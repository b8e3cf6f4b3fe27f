// Persistence failure paths: every trained model kind must round-trip
// through CongestionPredictor::save/load bit-identically, and malformed
// files (truncated, wrong magic, bad version, unknown kind) must be
// rejected with hcp::Error by both ml::loadModelFromFile and
// CongestionPredictor::load — never crash or silently misload.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/predictor.hpp"
#include "ml/serialize.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace hcp::core {
namespace {

using hcp::test::TempFile;

/// A small deterministic regression problem (same rows for V/H/avg).
LabeledDataset makeDataset() {
  LabeledDataset data;
  for (std::size_t i = 0; i < 48; ++i) {
    const double a = static_cast<double>(i % 7);
    const double b = static_cast<double>((i * 5) % 11);
    const double c = static_cast<double>(i) / 48.0;
    const std::vector<double> row = {a, b, c};
    data.vertical.add(row, 0.4 * a + 0.1 * b);
    data.horizontal.add(row, 0.2 * b + c);
    data.average.add(row, 0.3 * a + 0.1 * b + 0.5 * c);
  }
  return data;
}

PredictorOptions smallOptions(ModelKind kind) {
  PredictorOptions options;
  options.kind = kind;
  options.gbrt.numEstimators = 12;
  options.gbrt.maxDepth = 3;
  options.gbrt.minSamplesLeaf = 2;
  options.mlp.hiddenLayers = {8};
  options.mlp.maxEpochs = 12;
  options.mlp.batchSize = 16;
  options.lasso.maxIterations = 100;
  return options;
}

class PredictorPersistenceTest : public ::testing::TestWithParam<ModelKind> {};

TEST_P(PredictorPersistenceTest, RoundTripPredictsIdentically) {
  const LabeledDataset data = makeDataset();
  CongestionPredictor predictor(smallOptions(GetParam()));
  predictor.train(data);

  TempFile file(std::string("predictor_roundtrip_") +
                std::string(modelKindName(GetParam())) + ".hcp");
  predictor.save(file.path());
  const CongestionPredictor restored = CongestionPredictor::load(file.path());
  EXPECT_TRUE(restored.trained());

  for (std::size_t i = 0; i < data.vertical.size(); ++i) {
    const auto row = data.vertical.row(i);
    EXPECT_EQ(predictor.verticalModel().predict(row),
              restored.verticalModel().predict(row));
    EXPECT_EQ(predictor.horizontalModel().predict(row),
              restored.horizontalModel().predict(row));
    EXPECT_EQ(predictor.averageModel().predict(row),
              restored.averageModel().predict(row));
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PredictorPersistenceTest,
                         ::testing::Values(ModelKind::Linear, ModelKind::Ann,
                                           ModelKind::Gbrt),
                         [](const auto& info) {
                           return std::string(modelKindName(info.param));
                         });

TEST(PredictorPersistenceFailures, SaveUntrainedThrows) {
  CongestionPredictor predictor;
  TempFile file("predictor_untrained.hcp");
  EXPECT_THROW(predictor.save(file.path()), hcp::Error);
}

TEST(PredictorPersistenceFailures, MissingFileThrows) {
  EXPECT_THROW(CongestionPredictor::load("/nonexistent/predictor.hcp"),
               hcp::Error);
  EXPECT_THROW(ml::loadModelFromFile("/nonexistent/model.hcp"), hcp::Error);
}

TEST(PredictorPersistenceFailures, TruncatedFileThrows) {
  const LabeledDataset data = makeDataset();
  CongestionPredictor predictor(smallOptions(ModelKind::Gbrt));
  predictor.train(data);
  TempFile file("predictor_truncated.hcp");
  predictor.save(file.path());

  std::string bytes;
  {
    std::ifstream is(file.path(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  ASSERT_GT(bytes.size(), 2u);
  TempFile cut("predictor_truncated_half.hcp");
  {
    std::ofstream os(cut.path(), std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(CongestionPredictor::load(cut.path()), hcp::Error);
  EXPECT_THROW(ml::loadModelFromFile(cut.path()), hcp::Error);
}

TEST(PredictorPersistenceFailures, WrongMagicThrows) {
  TempFile file("predictor_wrong_magic.hcp");
  {
    std::ofstream os(file.path());
    os << "not-a-predictor 1 GBRT\n";
  }
  EXPECT_THROW(CongestionPredictor::load(file.path()), hcp::Error);
  EXPECT_THROW(ml::loadModelFromFile(file.path()), hcp::Error);
}

TEST(PredictorPersistenceFailures, UnsupportedVersionThrows) {
  TempFile file("predictor_bad_version.hcp");
  {
    std::ofstream os(file.path());
    os << "hcp-predictor 99 GBRT\n";
  }
  EXPECT_THROW(CongestionPredictor::load(file.path()), hcp::Error);
}

TEST(PredictorPersistenceFailures, UnknownKindThrows) {
  TempFile file("predictor_unknown_kind.hcp");
  {
    std::ofstream os(file.path());
    os << "hcp-predictor 1 SVM\n";
  }
  EXPECT_THROW(CongestionPredictor::load(file.path()), hcp::Error);
}

TEST(PredictorPersistenceFailures, TruncationErrorNamesThePath) {
  const LabeledDataset data = makeDataset();
  CongestionPredictor predictor(smallOptions(ModelKind::Linear));
  predictor.train(data);
  TempFile file("predictor_named_path.hcp");
  predictor.save(file.path());

  std::string bytes;
  {
    std::ifstream is(file.path(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  TempFile cut("predictor_named_path_cut.hcp");
  {
    std::ofstream os(cut.path(), std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 40));
  }
  try {
    CongestionPredictor::load(cut.path());
    FAIL() << "truncated predictor file must not load";
  } catch (const hcp::Error& e) {
    EXPECT_NE(std::string(e.what()).find(cut.path()), std::string::npos)
        << "error message must name the file: " << e.what();
  }
}

TEST(PredictorPersistenceFailures, TrailingGarbageThrowsWithPath) {
  const LabeledDataset data = makeDataset();
  CongestionPredictor predictor(smallOptions(ModelKind::Linear));
  predictor.train(data);
  TempFile file("predictor_trailing.hcp");
  predictor.save(file.path());
  {
    std::ofstream os(file.path(), std::ios::binary | std::ios::app);
    os << "\nleftover bytes";
  }
  try {
    CongestionPredictor::load(file.path());
    FAIL() << "predictor file with trailing bytes must not load";
  } catch (const hcp::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trailing"), std::string::npos) << what;
    EXPECT_NE(what.find(file.path()), std::string::npos) << what;
  }
}

TEST(PredictorPersistenceFailures, CorruptGbrtTreeThrowsWithPath) {
  // A root whose left child is itself used to load fine and then spin
  // forever on the first predict; it must fail at load, naming the file.
  CongestionPredictor predictor(smallOptions(ModelKind::Gbrt));
  predictor.train(makeDataset());
  TempFile file("predictor_tree_loop.hcp");
  predictor.save(file.path());
  std::string bytes;
  {
    std::ifstream is(file.path(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  // The first tree's root line: "feature bin threshold 1 right value".
  const std::size_t root = bytes.find('\n', bytes.find("\ntree ") + 1) + 1;
  const std::size_t left = [&] {
    std::size_t at = root;
    for (int field = 0; field < 3; ++field) at = bytes.find(' ', at) + 1;
    return at;
  }();
  ASSERT_EQ(bytes.substr(left, 2), "1 ");
  bytes[left] = '0';
  {
    std::ofstream os(file.path(), std::ios::binary | std::ios::trunc);
    os << bytes;
  }
  try {
    CongestionPredictor::load(file.path());
    FAIL() << "predictor with a looping tree must not load";
  } catch (const hcp::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("links to node 0"), std::string::npos) << what;
    EXPECT_NE(what.find(file.path()), std::string::npos) << what;
  }
}

TEST(PredictorPersistenceFailures, UnknownModelTagThrows) {
  TempFile file("model_unknown_tag.hcp");
  {
    std::ofstream os(file.path());
    os << "hcp-model svm 1\n";
  }
  EXPECT_THROW(ml::loadModelFromFile(file.path()), hcp::Error);
}

// --- reader sweeps ----------------------------------------------------------
//
// Every evenly spaced prefix and seeded single-byte corruption of a saved
// Lasso, MLP and GBRT model and of a three-model predictor file, as
// FlowResultReaderSweep does for cached flow results: the reader throws
// hcp::Error or parses, and nothing else (std::bad_alloc from a corrupt
// count, an overread) escapes. Models parse from an exact-size heap copy,
// so an overread is a heap overflow under AddressSanitizer.

/// 302 features, like the paper's feature vector: each artifact is tens of
/// kilobytes, so every one of the 256 cuts drops more than the final token
/// (a cut inside the last number would still leave a valid document).
LabeledDataset wideDataset() {
  LabeledDataset data;
  Rng rng(31);
  for (std::size_t i = 0; i < 64; ++i) {
    std::vector<double> row(302);
    for (double& v : row) v = rng.uniformReal(-1, 1);
    data.vertical.add(row, row[0] + 0.5 * row[1]);
    data.horizontal.add(row, row[2] - row[3]);
    data.average.add(row, row[4]);
  }
  return data;
}

class ModelReaderSweep : public ::testing::Test {
 protected:
  static constexpr std::size_t kCases = 256;

  static void SetUpTestSuite() {
    texts_ = new std::map<std::string, std::string>;
    const LabeledDataset data = wideDataset();
    for (const ModelKind kind :
         {ModelKind::Linear, ModelKind::Ann, ModelKind::Gbrt}) {
      CongestionPredictor predictor(smallOptions(kind));
      predictor.train(data);
      std::ostringstream os;
      ml::saveModel(predictor.verticalModel(), os);
      (*texts_)[std::string(modelKindName(kind))] = os.str();
      if (kind != ModelKind::Gbrt) continue;
      TempFile file(scratchStem());
      predictor.save(file.path());
      (*texts_)["predictor"] = test::slurpFile(file.path());
    }
  }
  static void TearDownTestSuite() {
    delete texts_;
    texts_ = nullptr;
  }

  /// Per-process, so parallel ctest runs of the suite never share a file.
  static std::string scratchStem() {
    return "model_reader_sweep_" + std::to_string(::getpid()) + ".hcp";
  }

  /// Parses `bytes` as `artifact`: a model from the bytes themselves, the
  /// predictor from a file holding them.
  static void parse(const std::string& artifact,
                    const std::vector<char>& bytes) {
    if (artifact != "predictor") {
      (void)ml::loadModel(std::string_view(bytes.data(), bytes.size()));
      return;
    }
    TempFile file(scratchStem(), std::string(bytes.begin(), bytes.end()));
    (void)CongestionPredictor::load(file.path());
  }

  static void expectEveryTruncationThrows(const std::string& artifact) {
    const std::string& text = texts_->at(artifact);
    ASSERT_NO_THROW(parse(artifact, {text.begin(), text.end()}));
    ASSERT_GT(text.size() / kCases, 32u) << "cuts must step past a token";
    for (std::size_t i = 0; i < kCases; ++i) {
      const std::size_t cut = text.size() * i / kCases;
      SCOPED_TRACE(cut);
      EXPECT_THROW(parse(artifact, {text.begin(), text.begin() + cut}),
                   hcp::Error);
    }
  }

  static void expectEveryFlipThrowsOrParses(const std::string& artifact) {
    const std::string& text = texts_->at(artifact);
    Rng rng(0x6d6f64656c);
    std::size_t threw = 0;
    for (std::size_t i = 0; i < kCases; ++i) {
      std::vector<char> bytes(text.begin(), text.end());
      const std::size_t pos = rng.uniformInt(bytes.size());
      bytes[pos] = static_cast<char>(bytes[pos] ^ (1 + rng.uniformInt(255)));
      SCOPED_TRACE(pos);
      // Anything but hcp::Error escaping the reader fails the test.
      try {
        parse(artifact, bytes);
      } catch (const hcp::Error&) {
        ++threw;
      }
    }
    // Most flips break a token and throw; a digit swapped for another digit
    // still parses.
    EXPECT_GT(threw, 0u);
  }

  static std::map<std::string, std::string>* texts_;
};

std::map<std::string, std::string>* ModelReaderSweep::texts_ = nullptr;

TEST_F(ModelReaderSweep, LassoEveryTruncationThrows) {
  expectEveryTruncationThrows("Linear");
}
TEST_F(ModelReaderSweep, MlpEveryTruncationThrows) {
  expectEveryTruncationThrows("ANN");
}
TEST_F(ModelReaderSweep, GbrtEveryTruncationThrows) {
  expectEveryTruncationThrows("GBRT");
}
TEST_F(ModelReaderSweep, PredictorEveryTruncationThrows) {
  expectEveryTruncationThrows("predictor");
}
TEST_F(ModelReaderSweep, LassoEverySingleByteFlipThrowsOrParses) {
  expectEveryFlipThrowsOrParses("Linear");
}
TEST_F(ModelReaderSweep, MlpEverySingleByteFlipThrowsOrParses) {
  expectEveryFlipThrowsOrParses("ANN");
}
TEST_F(ModelReaderSweep, GbrtEverySingleByteFlipThrowsOrParses) {
  expectEveryFlipThrowsOrParses("GBRT");
}
TEST_F(ModelReaderSweep, PredictorEverySingleByteFlipThrowsOrParses) {
  expectEveryFlipThrowsOrParses("predictor");
}

}  // namespace
}  // namespace hcp::core
