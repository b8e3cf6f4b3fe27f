// Shared primitives of the line-oriented text serializers: every artifact
// the system writes and reads back (ir/hls/rtl/fpga/trace `serialize.hpp`,
// core/flow_serialize, regression models and predictors, map models and
// maps, dataset shards, the flow-cache envelope). Writers print to a
// std::ostream; readers parse a whole document held in memory through one
// txt::Reader cursor, and every artifact file loads through parseFile
// (DESIGN.md §13, "Text codec"). The format goals are the ones the flow
// cache needs:
//
//   - *exact* round trips: doubles are printed with 17 significant digits
//     (writers call `preparePrecision` once per document), so
//     save -> load -> save reproduces the original file byte for byte and
//     loaded values are bit-identical to the saved ones;
//   - robust strings: length-prefixed raw bytes (`5 hello`), so names with
//     spaces or any other byte survive unquoted;
//   - loud failures: every read checks its token and throws hcp::Error on
//     truncation, a malformed number or a token mismatch — a corrupt
//     document can never parse into a half-filled struct silently.
#pragma once

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "support/error.hpp"
#include "support/failpoint.hpp"

namespace hcp::support::txt {

/// Fail-safe file writer used by every artifact-producing site (model save,
/// run report, trace timeline, CSV tables, flow-cache entries). The contract
/// the bare `std::ofstream` writers violated:
///
///   - *atomic*: bytes go to `<path>.tmp.<pid>.<ticket>`; only commit()
///     renames into place, so a crash, an exception or ENOSPC mid-write can
///     never leave a truncated file under the final name. The destructor
///     removes the temp file when commit() was not reached.
///   - *verified*: open, write, flush, close and rename are all checked;
///     any failure throws hcp::IoError naming the destination path and the
///     errno reason. A short write on a full disk raises at commit() instead
///     of surfacing as a corrupt artifact at load time.
///   - *injectable*: each boundary consults a named failpoint
///     (`<site>.open`, `<site>.write`, `<site>.rename` — see
///     support/failpoint.hpp), so tests and CI can exercise every failure
///     path deterministically.
///
/// Failure policy is the caller's: artifact writers let the IoError
/// propagate (exit code 5), the flow cache catches it and degrades to
/// recompute (DESIGN.md §14).
class CheckedFileWriter {
 public:
  CheckedFileWriter(std::string path, std::string site)
      : path_(std::move(path)), site_(std::move(site)) {
    static std::atomic<std::uint64_t> ticket{0};
    std::ostringstream tmpName;
    tmpName << path_ << ".tmp." << static_cast<unsigned long>(::getpid())
            << "." << ticket.fetch_add(1, std::memory_order_relaxed);
    tmp_ = tmpName.str();
    if (failpoint::shouldFail(site_ + ".open"))
      fail("cannot open", EACCES, true);
    errno = 0;
    os_.open(tmp_, std::ios::binary | std::ios::trunc);
    if (!os_.good()) fail("cannot open", errno, false);
  }

  ~CheckedFileWriter() {
    if (committed_) return;
    os_.close();
    std::error_code ec;
    std::filesystem::remove(tmp_, ec);  // best effort; never throws
  }

  CheckedFileWriter(const CheckedFileWriter&) = delete;
  CheckedFileWriter& operator=(const CheckedFileWriter&) = delete;

  /// The buffered stream. Callers need not check it between writes —
  /// commit() observes any sticky error bit.
  std::ostream& stream() { return os_; }
  const std::string& path() const { return path_; }

  /// Flush + close + rename into place, verifying each step. Throws
  /// hcp::IoError (and removes the temp file) on any failure, including a
  /// failure that happened during earlier buffered writes.
  void commit() {
    if (failpoint::shouldFail(site_ + ".write"))
      os_.setstate(std::ios::badbit);  // as if a buffer flush hit ENOSPC
    errno = 0;
    os_.flush();
    if (!os_.good()) fail("write failed for", errno != 0 ? errno : ENOSPC,
                          true);
    os_.close();
    if (os_.fail()) fail("close failed for", errno != 0 ? errno : ENOSPC,
                         true);
    std::error_code ec;
    if (failpoint::shouldFail(site_ + ".rename"))
      ec = std::make_error_code(std::errc::no_space_on_device);
    else
      std::filesystem::rename(tmp_, path_, ec);
    if (ec) {
      std::error_code ignored;
      std::filesystem::remove(tmp_, ignored);
      throw IoError("cannot move " + tmp_ + " into place at " + path_ +
                        ": " + ec.message(),
                    path_);
    }
    committed_ = true;
  }

 private:
  [[noreturn]] void fail(const char* verb, int err, bool removeTmp) {
    if (removeTmp) {
      os_.close();
      std::error_code ec;
      std::filesystem::remove(tmp_, ec);
    }
    committed_ = true;  // nothing left to clean up in the destructor
    std::ostringstream msg;
    msg << verb << ' ' << path_ << ": "
        << (err != 0 ? std::strerror(err) : "stream error");
    throw IoError(msg.str(), path_);
  }

  std::string path_, site_, tmp_;
  std::ofstream os_;
  bool committed_ = false;
};

/// Sets the float formatting contract of a serialized document. Call at the
/// top of every public write entry point.
inline void preparePrecision(std::ostream& os) { os.precision(17); }

/// Bools as 0/1 (the reader accepts exactly these two tokens).
inline void writeBool(std::ostream& os, bool b) { os << (b ? 1 : 0); }

/// Length-prefixed string: `<size> <raw bytes>`. The single separator after
/// the size is consumed exactly, so the bytes may contain anything.
inline void writeStr(std::ostream& os, const std::string& s) {
  os << s.size() << ' ' << s;
}

/// `<n> v0 v1 ...` vectors of arithmetic values.
template <typename T>
void writeVec(std::ostream& os, const std::vector<T>& v) {
  os << v.size();
  for (const T& x : v) os << ' ' << x;
}

/// Cursor over one whole serialized document held in memory. Every read
/// skips whitespace (space, \t, \n, \v, \f, \r), consumes one token and
/// throws hcp::Error when the token is missing or malformed. Numbers go
/// through std::from_chars, so the token grammar is from_chars' own:
///
///   - integers: decimal digits with an optional '-' for signed types only;
///     no '+', no "0x" prefix, no value outside the target type's range;
///   - doubles: decimal or exponent notation, finite and representable
///     (no inf/nan, no overflow, no underflow to zero; subnormals are fine);
///   - every number must end at whitespace or at the end of the text, so
///     `1x` or `1.5` read as an integer are rejected, not split.
///
/// The cursor never copies the text; only readStr and read<std::string>
/// allocate, for the strings they return. The viewed text must outlive the
/// Reader.
class Reader {
 public:
  explicit Reader(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  /// Reads one token and requires it to equal `token`.
  void expect(const char* token) {
    const std::string_view got = nextToken();
    HCP_CHECK_MSG(got == token, "serialized document: expected '"
                                    << token << "', got '" << got << "'");
  }

  /// Reads one arithmetic value, or one whitespace-delimited word when T is
  /// std::string.
  template <typename T>
  T read(const char* what) {
    if constexpr (std::is_same_v<T, std::string>) {
      const std::string_view word = nextToken();
      HCP_CHECK_MSG(!word.empty(),
                    "serialized document: truncated while reading " << what);
      return std::string(word);
    } else {
      static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>,
                    "read<T> takes numbers (readBool for bools)");
      skipSpace();
      T v{};
      const auto [next, ec] = std::from_chars(p_, end_, v);
      bool ok = ec == std::errc() && (next == end_ || isSpace(*next));
      if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
      HCP_CHECK_MSG(ok,
                    "serialized document: truncated while reading " << what);
      p_ = next;
      return v;
    }
  }

  /// Reads an element count and rejects one the rest of the text cannot
  /// hold: every counted item is at least one token plus its separator, so
  /// `n` items need 2n bytes. A corrupt count fails here, before any
  /// caller reserves memory for it.
  std::size_t readCount(const char* what) {
    const auto n = read<std::size_t>(what);
    HCP_CHECK_MSG(n <= remaining() / 2,
                  "serialized document: truncated while reading " << what);
    return n;
  }

  bool readBool(const char* what) {
    const int v = read<int>(what);
    HCP_CHECK_MSG(v == 0 || v == 1,
                  what << ": bool must be 0 or 1, got " << v);
    return v != 0;
  }

  /// Reads what writeStr wrote: the size, exactly one ' ', then that many
  /// raw bytes.
  std::string readStr(const char* what) {
    skipSpace();
    std::size_t n = 0;
    const auto [next, ec] = std::from_chars(p_, end_, n);
    HCP_CHECK_MSG(ec == std::errc(),
                  "serialized document: truncated while reading " << what);
    p_ = next;
    HCP_CHECK_MSG(p_ != end_ && *p_ == ' ',
                  what << ": malformed string (missing separator)");
    ++p_;
    HCP_CHECK_MSG(n <= remaining(),
                  what << ": truncated string (wanted " << n << " bytes)");
    std::string s(p_, n);
    p_ += n;
    return s;
  }

  template <typename T>
  std::vector<T> readVec(const char* what) {
    const std::size_t n = readCount(what);
    std::vector<T> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.push_back(read<T>(what));
    return v;
  }

  /// Requires that nothing but whitespace remains — the no-trailing-garbage
  /// check every top-level reader runs before declaring success.
  void expectEnd(const char* what) {
    const std::string_view extra = nextToken();
    HCP_CHECK_MSG(extra.empty(), what << ": trailing garbage '" << extra
                                      << "' after document");
  }

  /// True when nothing but whitespace remains.
  bool atEnd() {
    skipSpace();
    return p_ == end_;
  }

  /// The raw bytes up to the next '\n' (or the end of the text); consumes
  /// the '\n' too.
  std::string_view readLine() {
    const char* nl = p_;
    while (nl != end_ && *nl != '\n') ++nl;
    const std::string_view line(p_, static_cast<std::size_t>(nl - p_));
    p_ = nl == end_ ? end_ : nl + 1;
    return line;
  }

  /// All bytes not yet consumed, raw; leaves the cursor at the end.
  std::string_view readRest() {
    const std::string_view rest(p_, remaining());
    p_ = end_;
    return rest;
  }

  /// Bytes not yet consumed.
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

 private:
  static bool isSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

  void skipSpace() {
    while (p_ != end_ && isSpace(*p_)) ++p_;
  }

  /// Next whitespace-delimited token; empty at the end of the text.
  std::string_view nextToken() {
    skipSpace();
    const char* begin = p_;
    while (p_ != end_ && !isSpace(*p_)) ++p_;
    return {begin, static_cast<std::size_t>(p_ - begin)};
  }

  const char* p_;
  const char* end_;
};

/// The whole regular file at `path`, read with one read sized from the
/// opened file. Throws hcp::Error "cannot open <path>" when it is missing,
/// not a regular file or unreadable.
inline std::string readFile(const std::string& path) {
  std::error_code ec;
  std::ifstream is;
  if (std::filesystem::is_regular_file(path, ec))
    is.open(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = is.is_open() ? std::streamoff(is.tellg()) : -1;
  std::string text;
  if (size >= 0 && is.seekg(0)) {
    text.resize(static_cast<std::size_t>(size));
    is.read(text.data(), size);
  }
  HCP_CHECK_MSG(size >= 0 && is.good(), "cannot open " << path);
  return text;
}

/// The one artifact file loader: reads the whole file at `path`, parses it
/// with `parse(Reader&)`, requires that nothing but whitespace follows and
/// returns what `parse` returned. Any hcp::Error from the parse is rethrown
/// with ` [<kind> file: <path>]` appended, so every message names the file.
template <typename Parse>
auto parseFile(const std::string& path, const char* kind, Parse&& parse) {
  const std::string text = readFile(path);
  Reader in(text);
  try {
    auto result = parse(in);
    in.expectEnd(kind);
    return result;
  } catch (const Error& e) {
    throw Error(std::string(e.what()) + " [" + kind + " file: " + path + "]");
  }
}

}  // namespace hcp::support::txt
