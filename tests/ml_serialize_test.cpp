#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "ml/gbrt.hpp"
#include "ml/linear.hpp"
#include "ml/mlp.hpp"
#include "ml/serialize.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace hcp::ml {
namespace {

Dataset makeData(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data(6);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(6);
    for (auto& v : x) v = rng.uniformReal(-2, 2);
    data.add(x, 3 * x[0] * x[1] - x[2] + rng.normal(0, 0.1));
  }
  return data;
}

/// Round-trip property: saved+loaded models predict bit-identically.
template <typename Model>
void roundTrip(Model&& model, const Dataset& data) {
  model.fit(DatasetSource(data));
  std::stringstream buffer;
  saveModel(model, buffer);
  const auto restored = loadModel(buffer.str());
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->name(), model.name());
  for (std::size_t i = 0; i < std::min<std::size_t>(50, data.size()); ++i)
    EXPECT_DOUBLE_EQ(restored->predict(data.row(i)),
                     model.predict(data.row(i)));
}

TEST(Serialize, LassoRoundTrip) {
  roundTrip(LassoRegression({.alpha = 0.05}), makeData(300, 1));
}

TEST(Serialize, MlpRoundTrip) {
  MlpConfig cfg;
  cfg.hiddenLayers = {16, 8};
  cfg.maxEpochs = 15;
  roundTrip(MlpRegressor(cfg), makeData(300, 2));
}

TEST(Serialize, GbrtRoundTrip) {
  GbrtConfig cfg;
  cfg.numEstimators = 40;
  roundTrip(Gbrt(cfg), makeData(300, 3));
}

TEST(Serialize, GbrtImportanceSurvives) {
  const auto data = makeData(400, 4);
  Gbrt model({.numEstimators = 50});
  model.fit(DatasetSource(data));
  std::stringstream buffer;
  saveModel(model, buffer);
  const auto restored = loadModel(buffer.str());
  const auto& restoredGbrt = dynamic_cast<const Gbrt&>(*restored);
  const auto a = model.featureImportance();
  const auto b = restoredGbrt.featureImportance();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t f = 0; f < a.size(); ++f) EXPECT_DOUBLE_EQ(a[f], b[f]);
}

TEST(Serialize, RejectsGarbage) {
  EXPECT_THROW(loadModel("not a model at all"), hcp::Error);
}

TEST(Serialize, RejectsTruncated) {
  const auto data = makeData(100, 5);
  Gbrt model({.numEstimators = 10});
  model.fit(DatasetSource(data));
  std::stringstream buffer;
  saveModel(model, buffer);
  const std::string full = buffer.str();
  EXPECT_THROW(loadModel(full.substr(0, full.size() / 2)), hcp::Error);
}

TEST(Serialize, FileRoundTrip) {
  const auto data = makeData(200, 6);
  LassoRegression model;
  model.fit(DatasetSource(data));
  const std::string path = "serialize_test_model.tmp";
  saveModelToFile(model, path);
  const auto restored = loadModelFromFile(path);
  EXPECT_DOUBLE_EQ(restored->predict(data.row(0)), model.predict(data.row(0)));
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(loadModelFromFile("/nonexistent/model.hcp"), hcp::Error);
}

/// Writes `content` to a fresh temp file and returns its path.
std::string writeFile(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << content;
  return path;
}

std::string savedModelText() {
  LassoRegression model;
  model.fit(DatasetSource(makeData(100, 7)));
  std::stringstream buffer;
  saveModel(model, buffer);
  return buffer.str();
}

TEST(Serialize, FileErrorsNameTheOffendingPath) {
  const std::string full = savedModelText();
  const std::string path =
      writeFile("serialize_test_truncated.tmp", full.substr(0, full.size() / 2));
  try {
    loadModelFromFile(path);
    FAIL() << "truncated model file must not load";
  } catch (const hcp::Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "error message must name the file: " << e.what();
  }
  std::remove(path.c_str());
}

TEST(Serialize, FileRejectsTrailingGarbage) {
  const std::string path = writeFile("serialize_test_trailing.tmp",
                                     savedModelText() + "\nextra junk");
  try {
    loadModelFromFile(path);
    FAIL() << "model file with trailing bytes must not load";
  } catch (const hcp::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trailing"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(Serialize, FileRejectsConcatenatedModels) {
  const std::string one = savedModelText();
  const std::string path = writeFile("serialize_test_double.tmp", one + one);
  EXPECT_THROW(loadModelFromFile(path), hcp::Error);
  std::remove(path.c_str());
}

// --- corrupt GBRT trees ------------------------------------------------------
//
// A saved tree is one "feature bin threshold left right value" line per
// node. Links that loop, point back or leave the tree, and features past
// the row, must fail at load — before any predict can spin or read out of
// bounds.

/// A saved GBRT model, split into lines, with its first tree located.
struct SavedGbrt {
  std::vector<std::string> lines;
  std::size_t root = 0;      ///< line of the first tree's root node
  std::size_t numNodes = 0;  ///< nodes in the first tree

  /// The model text with field `field` of first-tree node `node` replaced.
  std::string with(std::size_t node, std::size_t field,
                   const std::string& value) const {
    std::istringstream is(lines[root + node]);
    std::vector<std::string> fields(6);
    for (std::string& f : fields) is >> f;
    fields[field] = value;
    std::string text;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (i != root + node) {
        text += lines[i] + '\n';
        continue;
      }
      for (const std::string& f : fields) text += f + ' ';
      text += '\n';
    }
    return text;
  }

  /// Index of the first split node after the root.
  std::size_t innerSplit() const {
    for (std::size_t k = 1; k < numNodes; ++k)
      if (lines[root + k].rfind("-1 ", 0) != 0) return k;
    ADD_FAILURE() << "first tree has no inner split";
    return 0;
  }
};

std::string savedGbrtText() {
  Gbrt model({.numEstimators = 8});
  model.fit(DatasetSource(makeData(300, 9)));
  std::stringstream buffer;
  saveModel(model, buffer);
  return buffer.str();
}

SavedGbrt savedGbrt() {
  std::stringstream buffer(savedGbrtText());
  SavedGbrt saved;
  for (std::string line; std::getline(buffer, line);)
    saved.lines.push_back(line);
  for (std::size_t i = 0; i < saved.lines.size(); ++i) {
    if (saved.lines[i].rfind("tree ", 0) == 0) {
      saved.root = i + 1;
      saved.numNodes = std::stoul(saved.lines[i].substr(5));
      break;
    }
  }
  return saved;
}

enum Field { kFeature = 0, kBin = 1, kLeft = 3, kRight = 4 };

void expectRejected(const std::string& text, const std::string& needle) {
  try {
    loadModel(text);
    FAIL() << "corrupt tree must not load";
  } catch (const hcp::Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(Serialize, GbrtRewrittenValidTreeLoads) {
  // Control for the cases below: rewriting a node line with the value it
  // already holds (a root's left child is node 1) still loads.
  const SavedGbrt saved = savedGbrt();
  ASSERT_GT(saved.numNodes, 3u);
  EXPECT_NO_THROW(loadModel(saved.with(0, kLeft, "1")));
}

TEST(Serialize, GbrtRejectsTreeSelfLoop) {
  const SavedGbrt saved = savedGbrt();
  expectRejected(saved.with(0, kLeft, "0"), "links to node 0");
}

TEST(Serialize, GbrtRejectsTreeBackwardEdge) {
  const SavedGbrt saved = savedGbrt();
  const std::size_t k = saved.innerSplit();
  expectRejected(saved.with(k, kRight, std::to_string(k - 1)),
                 "links to node " + std::to_string(k - 1));
}

TEST(Serialize, GbrtRejectsTreeChildOutOfRange) {
  const SavedGbrt saved = savedGbrt();
  expectRejected(saved.with(0, kRight, std::to_string(saved.numNodes)),
                 "links to node " + std::to_string(saved.numNodes));
}

TEST(Serialize, GbrtRejectsTreeFeatureOutOfRange) {
  const SavedGbrt saved = savedGbrt();
  expectRejected(saved.with(0, kFeature, "99999"), "feature 99999 of 6");
}

TEST(Serialize, GbrtRejectsTreeBinOutOfRange) {
  // A bin is one byte: 300 must not load as 300 mod 256.
  const SavedGbrt saved = savedGbrt();
  expectRejected(saved.with(0, kBin, "300"), "tree node bin");
}

// --- corrupt counts and out-of-range values --------------------------------
//
// Every count is bounded by the bytes left in the document and every value
// is range-checked for its type, so a corrupt number fails as hcp::Error —
// never as std::bad_alloc from a count-sized allocation, and never as a
// value wrapped into range.

/// Loads `text` from a file: it must fail as hcp::Error naming the file.
void expectFileRejectedNamingPath(const std::string& text,
                                  const std::string& path) {
  writeFile(path, text);
  try {
    loadModelFromFile(path);
    ADD_FAILURE() << "corrupt model file must not load";
  } catch (const hcp::Error& e) {
    EXPECT_NE(std::string(e.what()).find("[model file: " + path + "]"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Serialize, HugeLassoWeightCountThrowsNamingTheFile) {
  // Lines: header, config, scaler, means, deviations, weights, intercept.
  const std::string text =
      test::replaceToken(savedModelText(), 5, 0, "1000000000000000");
  EXPECT_THROW(loadModel(text), hcp::Error);
  expectFileRejectedNamingPath(text, "serialize_test_huge_weights.tmp");
}

TEST(Serialize, HugeGbrtForestCountThrowsNamingTheFile) {
  // Lines: header, config, state, "forest <n>", trees.
  const std::string text =
      test::replaceToken(savedGbrtText(), 3, 1, "100000000000000");
  EXPECT_THROW(loadModel(text), hcp::Error);
  expectFileRejectedNamingPath(text, "serialize_test_huge_forest.tmp");
}

TEST(Serialize, GbrtRejectsNegativeEstimatorCount) {
  // The estimator count is unsigned: -1 must not wrap to 2^64 - 1.
  expectRejected(test::replaceToken(savedGbrtText(), 1, 1, "-1"),
                 "gbrt estimators");
}

// --- save failure paths -----------------------------------------------------
//
// A model save is a user-requested artifact: unlike the flow cache it must
// fail loudly (hcp::IoError naming the path, exit 5 in hcp_cli) and must
// never leave a partial or temp file behind — the previous model, if any,
// stays intact.

/// Names of all files in the current directory that start with `stem`.
std::vector<std::string> filesMatching(const std::string& stem) {
  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::filesystem::current_path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(stem, 0) == 0) names.push_back(name);
  }
  return names;
}

class SaveFailure : public ::testing::Test {
 protected:
  void TearDown() override { support::failpoint::clear(); }
};

TEST_F(SaveFailure, InjectedWriteFailureThrowsIoErrorAndLeavesNoFile) {
  LassoRegression model;
  model.fit(DatasetSource(makeData(100, 8)));
  const std::string path = "serialize_test_savefail.tmp";

  support::failpoint::configure("model.write:1");
  try {
    saveModelToFile(model, path);
    FAIL() << "injected write failure must throw";
  } catch (const hcp::IoError& e) {
    EXPECT_EQ(e.path(), path);
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "error must name the destination: " << e.what();
  }
  // No destination file, no temp-file litter.
  EXPECT_TRUE(filesMatching(path).empty());

  // Budget spent: the same call now succeeds and the model loads back.
  saveModelToFile(model, path);
  EXPECT_NE(loadModelFromFile(path), nullptr);
  std::remove(path.c_str());
}

TEST_F(SaveFailure, FailedSaveKeepsThePreviousModelIntact) {
  const std::string path = "serialize_test_keepold.tmp";
  LassoRegression old;
  old.fit(DatasetSource(makeData(100, 9)));
  saveModelToFile(old, path);
  std::ifstream before(path, std::ios::binary);
  std::stringstream beforeBytes;
  beforeBytes << before.rdbuf();

  Gbrt replacement({.numEstimators = 10});
  replacement.fit(DatasetSource(makeData(100, 10)));
  support::failpoint::configure("model.rename:1");
  EXPECT_THROW(saveModelToFile(replacement, path), hcp::IoError);

  // The old model is untouched, byte for byte, and still loads.
  std::ifstream after(path, std::ios::binary);
  std::stringstream afterBytes;
  afterBytes << after.rdbuf();
  EXPECT_EQ(beforeBytes.str(), afterBytes.str());
  EXPECT_EQ(loadModelFromFile(path)->name(), old.name());
  EXPECT_EQ(filesMatching(path).size(), 1u);
  std::remove(path.c_str());
}

TEST_F(SaveFailure, UnwritableDestinationReportsPathAndErrno) {
  LassoRegression model;
  model.fit(DatasetSource(makeData(50, 11)));
  try {
    saveModelToFile(model, "/nonexistent-dir/model.hcp");
    FAIL() << "saving into a missing directory must throw";
  } catch (const hcp::IoError& e) {
    EXPECT_EQ(e.path(), "/nonexistent-dir/model.hcp");
    EXPECT_NE(std::string(e.what()).find("/nonexistent-dir/model.hcp"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace hcp::ml
