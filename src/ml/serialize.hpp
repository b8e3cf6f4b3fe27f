// Model persistence: a trained predictor is the whole point of the method —
// train once on implemented designs, then reuse across projects without
// another place-and-route. Models serialize to a line-oriented text format
// (architecture-independent, diff-friendly); loading restores bit-identical
// predictions. Like every artifact, a model parses through one
// support::txt::Reader cursor, and a model file loads through
// support::txt::parseFile (DESIGN.md §13).
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "ml/model.hpp"

namespace hcp::ml {

/// Writes any supported regressor as one `hcp-model <kind> 1` block.
void saveModel(const Regressor& model, std::ostream& os);

/// Reads one block written by saveModel and leaves the cursor after it (a
/// predictor file holds three). Throws hcp::Error on malformed input or an
/// unknown type tag.
std::unique_ptr<Regressor> readModel(support::txt::Reader& in);

/// Parses one model; `text` must hold nothing else.
std::unique_ptr<Regressor> loadModel(std::string_view text);

/// File-path conveniences. Load errors name `path`.
void saveModelToFile(const Regressor& model, const std::string& path);
std::unique_ptr<Regressor> loadModelFromFile(const std::string& path);

}  // namespace hcp::ml
