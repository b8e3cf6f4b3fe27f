// String helpers used across the libraries (naming RTL cells, parsing
// directive specs in examples, report formatting).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace hcp {

/// Splits on a single-character delimiter; empty fields preserved.
std::vector<std::string> split(std::string_view s, char delim);

/// Strips ASCII whitespace from both ends.
std::string trim(std::string_view s);

/// Joins with a separator.
std::string join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// True if `s` starts with `prefix`.
bool startsWith(std::string_view s, std::string_view prefix);

/// Lower-cases ASCII.
std::string toLower(std::string_view s);

/// The rest of `is`, read into one string (the in-memory readers parse
/// whole documents).
std::string readAll(std::istream& is);

}  // namespace hcp
