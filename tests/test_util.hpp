// Shared test scaffolding. Every suite used to carry its own copy of the
// temp-path / slurp helpers; they live here once so their semantics (unique
// per-test paths, removal on destruction, binary-exact reads) cannot drift
// apart between suites.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace hcp::test {

/// A unique scratch file path under the gtest temp dir, removed on
/// destruction. The file is not created unless content is given — some
/// tests need only the name. Suites whose tests run as concurrent ctest
/// processes should fold the test name into `stem` (see uniqueStem).
class TempFile {
 public:
  explicit TempFile(const std::string& stem)
      : path_(std::string(::testing::TempDir()) + stem) {}
  TempFile(const std::string& stem, const std::string& content)
      : TempFile(stem) {
    std::ofstream os(path_, std::ios::binary);
    os << content;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Fresh scratch directory under the gtest temp dir, removed on
/// destruction. Cleared but NOT created by default — several suites test
/// that the code under test creates its own directory; pass create=true
/// when the directory must pre-exist.
class TempDir {
 public:
  explicit TempDir(const std::string& stem, bool create = false)
      : dir_(std::string(::testing::TempDir()) + stem) {
    std::filesystem::remove_all(dir_);
    if (create) std::filesystem::create_directories(dir_);
  }
  ~TempDir() { std::filesystem::remove_all(dir_); }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

/// `<prefix>_<current test name>_<tag>` — a stem that stays unique when
/// ctest runs the suite's tests as concurrent processes.
inline std::string uniqueStem(const std::string& prefix,
                              const std::string& tag) {
  return prefix + "_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + tag;
}

/// Whole file as bytes (binary mode: what was written is what compares).
inline std::string slurpFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Overwrites `path` with exactly `bytes` (corruption-test primitive).
inline void writeRaw(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << bytes;
}

/// `text` with the ' '-separated token `index` of line `line` (both 0-based)
/// replaced by `token` (corruption-test primitive).
inline std::string replaceToken(const std::string& text, std::size_t line,
                                std::size_t index, const std::string& token) {
  std::size_t begin = 0;
  for (std::size_t i = 0; i < line; ++i) begin = text.find('\n', begin) + 1;
  for (std::size_t i = 0; i < index; ++i) begin = text.find(' ', begin) + 1;
  const std::size_t end = text.find_first_of(" \n", begin);
  return text.substr(0, begin) + token + text.substr(end);
}

}  // namespace hcp::test
