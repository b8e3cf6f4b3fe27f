// Shard format, ShardSet scanning, streaming RowSource and the
// streamed-vs-in-memory byte-identity contract (DESIGN.md §19).
#include <gtest/gtest.h>

#include <sstream>

#include "ml/gbrt.hpp"
#include "ml/linear.hpp"
#include "ml/serialize.hpp"
#include "ml/shards.hpp"
#include "ml/validation.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace hcp::ml::shards {
namespace {

std::vector<ShardSample> makeSamples(std::size_t n, std::size_t d,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ShardSample> samples(n);
  for (ShardSample& s : samples) {
    s.features.resize(d);
    for (double& f : s.features) f = rng.uniformReal(-2, 2);
    s.vertical = 3 * s.features[0] - s.features[1] + rng.normal(0, 0.05);
    s.horizontal = -s.features[0] + 2 * s.features[2] + rng.normal(0, 0.05);
    s.average = (s.vertical + s.horizontal) / 2;
  }
  return samples;
}

ShardMeta meta(const std::string& design) {
  return ShardMeta{design, "xc7z020like", 7};
}

/// Writes `numShards` synthetic shards into `dir` and returns their keys.
std::vector<std::string> writeCorpus(const std::string& dir,
                                     std::size_t numShards, std::size_t n,
                                     std::size_t d) {
  std::vector<std::string> keys;
  for (std::size_t s = 0; s < numShards; ++s) {
    const std::string design = "design" + std::to_string(s);
    const std::string key = shardKey(design, "xc7z020like", 7, d, "salt");
    writeShard(dir, key, meta(design), makeSamples(n, d, 100 + s));
    keys.push_back(key);
  }
  return keys;
}

std::string modelBytes(const Regressor& model) {
  std::ostringstream os;
  saveModel(model, os);
  return os.str();
}

TEST(ShardKey, DeterministicAndInputSensitive) {
  const std::string base = shardKey("a", "dev", 7, 302, "salt");
  EXPECT_EQ(base, shardKey("a", "dev", 7, 302, "salt"));
  EXPECT_EQ(base.size(), 16u);
  EXPECT_NE(base, shardKey("b", "dev", 7, 302, "salt"));
  EXPECT_NE(base, shardKey("a", "dev2", 7, 302, "salt"));
  EXPECT_NE(base, shardKey("a", "dev", 8, 302, "salt"));
  EXPECT_NE(base, shardKey("a", "dev", 7, 301, "salt"));
  EXPECT_NE(base, shardKey("a", "dev", 7, 302, "salt2"));
  // Length-prefixed hashing: shifting a byte across the field boundary
  // must change the key.
  EXPECT_NE(shardKey("ab", "c", 7, 1, ""), shardKey("a", "bc", 7, 1, ""));
}

TEST(Shards, RoundTripPreservesEverything) {
  test::TempDir dir(test::uniqueStem("shards", "dir"));
  const auto samples = makeSamples(20, 5, 1);
  const std::string key = shardKey("d", "dev", 7, 5, "s");
  const std::string path = writeShard(dir.dir(), key, meta("d"), samples);

  const ShardData data = readShard(path);
  EXPECT_EQ(data.info.key, key);
  EXPECT_EQ(data.info.numFeatures, 5u);
  EXPECT_EQ(data.info.numSamples, 20u);
  EXPECT_EQ(data.meta.design, "d");
  EXPECT_EQ(data.meta.device, "xc7z020like");
  EXPECT_EQ(data.meta.seed, 7u);
  ASSERT_EQ(data.samples.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(data.samples[i].id, sampleId(key, i));
    EXPECT_EQ(data.samples[i].vertical, samples[i].vertical);
    EXPECT_EQ(data.samples[i].horizontal, samples[i].horizontal);
    EXPECT_EQ(data.samples[i].average, samples[i].average);
    EXPECT_EQ(data.samples[i].features, samples[i].features);
  }
}

TEST(Shards, WriteIsByteDeterministic) {
  test::TempDir dir(test::uniqueStem("shards", "det"));
  const auto samples = makeSamples(10, 4, 2);
  const std::string key = shardKey("d", "dev", 7, 4, "s");
  const std::string path = writeShard(dir.dir(), key, meta("d"), samples);
  const std::string first = test::slurpFile(path);
  writeShard(dir.dir(), key, meta("d"), samples);
  EXPECT_EQ(test::slurpFile(path), first);
}

TEST(Shards, EmptyShardRoundTrips) {
  test::TempDir dir(test::uniqueStem("shards", "empty"));
  const std::string key = shardKey("d", "dev", 7, 0, "s");
  const std::string path = writeShard(dir.dir(), key, meta("d"), {});
  const ShardData data = readShard(path);
  EXPECT_EQ(data.info.numSamples, 0u);
  EXPECT_TRUE(data.samples.empty());
}

TEST(Shards, RejectsInconsistentFeatureCounts) {
  test::TempDir dir(test::uniqueStem("shards", "inconsistent"));
  auto samples = makeSamples(3, 4, 3);
  samples[2].features.pop_back();
  EXPECT_THROW(writeShard(dir.dir(), shardKey("d", "dev", 7, 4, "s"),
                          meta("d"), samples),
               Error);
}

// --- corruption battery -------------------------------------------------

class ShardCorruption : public ::testing::Test {
 protected:
  std::string freshShard(const std::string& tag) {
    dir_ = std::make_unique<test::TempDir>(
        test::uniqueStem("shards_corrupt", tag));
    key_ = shardKey("d", "dev", 7, 4, "s");
    return writeShard(dir_->dir(), key_, meta("d"), makeSamples(6, 4, 4));
  }

  std::unique_ptr<test::TempDir> dir_;
  std::string key_;
};

TEST_F(ShardCorruption, TruncatedPayloadRejected) {
  const std::string path = freshShard("trunc");
  const std::string bytes = test::slurpFile(path);
  test::writeRaw(path, bytes.substr(0, bytes.size() - 40));
  EXPECT_THROW(readShard(path), Error);
}

TEST_F(ShardCorruption, FlippedPayloadByteRejected) {
  const std::string path = freshShard("flip");
  std::string bytes = test::slurpFile(path);
  bytes[bytes.size() - 10] = bytes[bytes.size() - 10] == '1' ? '2' : '1';
  test::writeRaw(path, bytes);
  EXPECT_THROW(readShard(path), Error);
}

TEST_F(ShardCorruption, TrailingGarbageRejected) {
  const std::string path = freshShard("trailing");
  test::writeRaw(path, test::slurpFile(path) + "extra\n");
  EXPECT_THROW(readShard(path), Error);
}

TEST_F(ShardCorruption, VersionSkewRejected) {
  const std::string path = freshShard("skew");
  std::string bytes = test::slurpFile(path);
  const std::string want = "hcp-shard 1 ";
  ASSERT_EQ(bytes.compare(0, want.size(), want), 0);
  bytes.replace(0, want.size(), "hcp-shard 2 ");
  test::writeRaw(path, bytes);
  try {
    readShard(path);
    FAIL() << "version skew not detected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version skew"), std::string::npos);
  }
}

TEST_F(ShardCorruption, HugePayloadSizeRejectedNamingTheFile) {
  // The size is checked against the bytes present before anything is
  // allocated for it, so 10^14 fails as hcp::Error, not std::bad_alloc.
  const std::string path = freshShard("hugepayload");
  // Header tokens: magic, version, key, features, samples, payload size,
  // digest.
  test::writeRaw(path, test::replaceToken(test::slurpFile(path), 0, 5,
                                          "100000000000000"));
  try {
    readShard(path);
    FAIL() << "huge payload size not detected";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated shard"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
}

TEST_F(ShardCorruption, HugeSampleCountRejectedNamingTheFile) {
  // The header is outside the payload digest; a sample count the payload
  // cannot hold must fail before it sizes a reservation.
  const std::string path = freshShard("hugesamples");
  test::writeRaw(path, test::replaceToken(test::slurpFile(path), 0, 4,
                                          "100000000000000"));
  try {
    readShard(path);
    FAIL() << "huge sample count not detected";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("exceed"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
}

TEST_F(ShardCorruption, RenamedFileRejected) {
  const std::string path = freshShard("rename");
  const std::string other =
      (std::filesystem::path(dir_->dir()) / "0123456789abcdef.shard")
          .string();
  std::filesystem::rename(path, other);
  EXPECT_THROW(readShard(other), Error);  // header key != file stem
}

TEST_F(ShardCorruption, NotAShardRejected) {
  const std::string path = freshShard("junk");
  test::writeRaw(path, "this is not a shard\n");
  EXPECT_THROW(readShard(path), Error);
}

TEST_F(ShardCorruption, ScanDetectsHeaderCorruption) {
  const std::string path = freshShard("scan");
  std::string bytes = test::slurpFile(path);
  test::writeRaw(path, "garbage " + bytes);
  EXPECT_THROW(ShardSet{dir_->dir()}, Error);
}

// --- failpoints ---------------------------------------------------------

TEST(ShardFailpoints, WriteSitesRaiseIoError) {
  for (const char* site : {"shard.open", "shard.write", "shard.rename"}) {
    test::TempDir dir(test::uniqueStem("shards_fp", site));
    support::failpoint::ScopedFailpoints fp(std::string(site) + ":1");
    EXPECT_THROW(writeShard(dir.dir(), shardKey("d", "dev", 7, 3, "s"),
                            meta("d"), makeSamples(4, 3, 5)),
                 IoError)
        << site;
  }
}

TEST(ShardFailpoints, ReadSiteRaisesError) {
  test::TempDir dir(test::uniqueStem("shards_fp", "read"));
  const std::string path = writeShard(
      dir.dir(), shardKey("d", "dev", 7, 3, "s"), meta("d"),
      makeSamples(4, 3, 6));
  support::failpoint::ScopedFailpoints fp("shard.read:1");
  EXPECT_THROW(readShard(path), Error);
  EXPECT_NO_THROW(readShard(path));  // count exhausted
}

// --- ShardSet -----------------------------------------------------------

TEST(ShardSet, ScansInKeyOrderWithTotals) {
  test::TempDir dir(test::uniqueStem("shardset", "scan"));
  auto keys = writeCorpus(dir.dir(), 3, 10, 4);
  std::sort(keys.begin(), keys.end());

  const ShardSet set(dir.dir());
  EXPECT_EQ(set.numShards(), 3u);
  EXPECT_EQ(set.totalSamples(), 30u);
  EXPECT_EQ(set.numFeatures(), 4u);
  for (std::size_t i = 0; i < set.numShards(); ++i)
    EXPECT_EQ(set.info(i).key, keys[i]);
  const ShardData data = set.load(1);
  EXPECT_EQ(data.info.key, keys[1]);
}

TEST(ShardSet, MissingDirectoryRejected) {
  test::TempDir dir(test::uniqueStem("shardset", "missing"));
  EXPECT_THROW(ShardSet{dir.dir()}, Error);
}

TEST(ShardSet, EmptyShardsTolerated) {
  test::TempDir dir(test::uniqueStem("shardset", "emptyok"));
  writeCorpus(dir.dir(), 2, 8, 4);
  // An empty shard has 0 features in its header; the set must not treat
  // that as a feature-count conflict.
  writeShard(dir.dir(), shardKey("e", "dev", 7, 0, "s"), meta("e"), {});
  const ShardSet set(dir.dir());
  EXPECT_EQ(set.numShards(), 3u);
  EXPECT_EQ(set.totalSamples(), 16u);
  EXPECT_EQ(set.numFeatures(), 4u);
}

TEST(ShardSet, FeatureCountMismatchRejected) {
  test::TempDir dir(test::uniqueStem("shardset", "mismatch"));
  writeShard(dir.dir(), shardKey("a", "dev", 7, 4, "s"), meta("a"),
             makeSamples(5, 4, 8));
  writeShard(dir.dir(), shardKey("b", "dev", 7, 5, "s"), meta("b"),
             makeSamples(5, 5, 9));
  EXPECT_THROW(ShardSet{dir.dir()}, Error);
}

TEST(ShardSet, LoadDetectsFileSwappedAfterScan) {
  test::TempDir dir(test::uniqueStem("shardset", "swap"));
  writeCorpus(dir.dir(), 1, 6, 4);
  const ShardSet set(dir.dir());
  // Replace the file with a *valid* shard of different shape under the
  // same name; load() must notice the scan is stale.
  const std::string key = set.info(0).key;
  test::TempDir other(test::uniqueStem("shardset", "swap_src"));
  const std::string fresh =
      writeShard(other.dir(), key, meta("d"), makeSamples(3, 4, 10));
  std::filesystem::copy_file(
      fresh, set.info(0).path,
      std::filesystem::copy_options::overwrite_existing);
  EXPECT_THROW(set.load(0), Error);
}

// --- ShardRowSource -----------------------------------------------------

TEST(ShardRowSource, MatchesMaterializedOrder) {
  test::TempDir dir(test::uniqueStem("rowsource", "order"));
  writeCorpus(dir.dir(), 2, 12, 4);
  const ShardSet set(dir.dir());
  const ShardRowSource source(set, Label::Vertical);
  EXPECT_EQ(source.size(), 24u);
  EXPECT_EQ(source.numFeatures(), 4u);

  // Canonical order = shards in key order, samples in ordinal order.
  std::vector<double> expected;
  for (std::size_t s = 0; s < set.numShards(); ++s)
    for (const ShardSample& row : set.load(s).samples)
      expected.push_back(row.vertical);

  std::vector<double> serial(source.size(), 0.0);
  std::size_t calls = 0;
  source.forEach([&](std::size_t i, const std::vector<double>& row, double y) {
    EXPECT_EQ(row.size(), 4u);
    serial[i] = y;
    ++calls;
  });
  EXPECT_EQ(calls, source.size());
  EXPECT_EQ(serial, expected);

  for (const std::size_t threads : {1u, 2u, 4u}) {
    support::ScopedThreadLimit limit(threads);
    std::vector<double> parallel(source.size(), -1.0);
    source.visitParallel(
        [&](std::size_t i, const std::vector<double>&, double y) {
          parallel[i] = y;
        });
    EXPECT_EQ(parallel, expected) << threads << " threads";
  }
}

TEST(ShardRowSource, LabelSelectsTarget) {
  test::TempDir dir(test::uniqueStem("rowsource", "label"));
  writeCorpus(dir.dir(), 1, 5, 4);
  const ShardSet set(dir.dir());
  const ShardData data = set.load(0);
  for (const Label label :
       {Label::Vertical, Label::Horizontal, Label::Average}) {
    const ShardRowSource source(set, label);
    source.forEach([&](std::size_t i, const std::vector<double>&, double y) {
      const ShardSample& s = data.samples[i];
      const double want = label == Label::Vertical     ? s.vertical
                          : label == Label::Horizontal ? s.horizontal
                                                       : s.average;
      EXPECT_EQ(y, want) << labelName(label) << " sample " << i;
    });
  }
}

TEST(ShardRowSource, KeepFilterRenumbersDensely) {
  test::TempDir dir(test::uniqueStem("rowsource", "filter"));
  writeCorpus(dir.dir(), 2, 10, 3);
  const ShardSet set(dir.dir());
  const auto keep = [](std::uint64_t id) { return id % 2 == 0; };

  // Expected: kept samples in canonical order, densely renumbered.
  std::vector<double> expected;
  for (std::size_t s = 0; s < set.numShards(); ++s)
    for (const ShardSample& row : set.load(s).samples)
      if (keep(row.id)) expected.push_back(row.average);

  const ShardRowSource source(set, Label::Average, keep);
  EXPECT_EQ(source.size(), expected.size());
  ASSERT_GT(source.size(), 0u);
  ASSERT_LT(source.size(), set.totalSamples());

  std::vector<double> seen(source.size(), -1.0);
  source.forEach([&](std::size_t i, const std::vector<double>&, double y) {
    seen[i] = y;
  });
  EXPECT_EQ(seen, expected);

  support::ScopedThreadLimit limit(4);
  std::vector<double> par(source.size(), -1.0);
  source.visitParallel([&](std::size_t i, const std::vector<double>&,
                           double y) { par[i] = y; });
  EXPECT_EQ(par, expected);
}

TEST(ShardRowSource, MaterializeEqualsLoads) {
  test::TempDir dir(test::uniqueStem("rowsource", "materialize"));
  writeCorpus(dir.dir(), 2, 9, 4);
  const ShardSet set(dir.dir());
  const Dataset data = materialize(ShardRowSource(set, Label::Horizontal));
  EXPECT_EQ(data.size(), set.totalSamples());
  EXPECT_EQ(data.numFeatures(), 4u);
  std::size_t i = 0;
  for (std::size_t s = 0; s < set.numShards(); ++s)
    for (const ShardSample& row : set.load(s).samples) {
      EXPECT_EQ(data.row(i), row.features);
      EXPECT_EQ(data.target(i), row.horizontal);
      ++i;
    }
}

// --- streamed-vs-in-memory byte identity --------------------------------

TEST(StreamingFit, LassoByteIdenticalAcrossThreadCounts) {
  test::TempDir dir(test::uniqueStem("streamfit", "lasso"));
  writeCorpus(dir.dir(), 3, 40, 6);
  const ShardSet set(dir.dir());
  const ShardRowSource source(set, Label::Vertical);

  LassoRegression reference;
  reference.fit(DatasetSource(materialize(source)));
  const std::string want = modelBytes(reference);

  for (const std::size_t threads : {1u, 2u, 4u}) {
    support::ScopedThreadLimit limit(threads);
    LassoRegression streamed;
    streamed.fit(source);
    EXPECT_EQ(modelBytes(streamed), want) << threads << " threads";
  }
}

TEST(StreamingFit, GbrtByteIdenticalAcrossThreadCounts) {
  test::TempDir dir(test::uniqueStem("streamfit", "gbrt"));
  writeCorpus(dir.dir(), 2, 50, 6);
  const ShardSet set(dir.dir());
  const ShardRowSource source(set, Label::Average);

  const GbrtConfig config{.numEstimators = 12, .maxDepth = 3};
  Gbrt reference(config);
  reference.fit(DatasetSource(materialize(source)));
  const std::string want = modelBytes(reference);

  for (const std::size_t threads : {1u, 2u, 4u}) {
    support::ScopedThreadLimit limit(threads);
    Gbrt streamed(config);
    streamed.fit(source);
    EXPECT_EQ(modelBytes(streamed), want) << threads << " threads";
  }
}

// --- out-of-core cross-validation ---------------------------------------

TEST(FoldOfSampleId, StableBalancedAndSeedSensitive) {
  EXPECT_EQ(foldOfSampleId(12345, 7, 5), foldOfSampleId(12345, 7, 5));
  std::vector<std::size_t> counts(5, 0);
  for (std::uint64_t id = 0; id < 5000; ++id)
    ++counts[foldOfSampleId(id, 7, 5)];
  for (const std::size_t c : counts) {
    EXPECT_GT(c, 800u);  // ~1000 expected per fold
    EXPECT_LT(c, 1200u);
  }
  std::size_t moved = 0;
  for (std::uint64_t id = 0; id < 1000; ++id)
    if (foldOfSampleId(id, 7, 5) != foldOfSampleId(id, 8, 5)) ++moved;
  EXPECT_GT(moved, 500u);  // a new seed reshuffles membership
}

TEST(CrossValidateStreaming, DeterministicAcrossThreadCounts) {
  test::TempDir dir(test::uniqueStem("cvstream", "det"));
  writeCorpus(dir.dir(), 2, 60, 5);
  const ShardSet set(dir.dir());
  const auto factory = [] { return std::make_unique<LassoRegression>(); };

  const CvResult base =
      crossValidateStreaming(factory, set, Label::Vertical, 4, 42);
  EXPECT_EQ(base.foldMae.size(), 4u);
  EXPECT_GT(base.meanMae, 0.0);
  EXPECT_LT(base.meanMae, 0.5);  // easy synthetic linear problem

  for (const std::size_t threads : {1u, 4u}) {
    support::ScopedThreadLimit limit(threads);
    const CvResult again =
        crossValidateStreaming(factory, set, Label::Vertical, 4, 42);
    EXPECT_EQ(again.foldMae, base.foldMae) << threads << " threads";
    EXPECT_EQ(again.foldMedae, base.foldMedae) << threads << " threads";
  }
}

TEST(CrossValidateStreaming, RejectsTinySets) {
  test::TempDir dir(test::uniqueStem("cvstream", "tiny"));
  writeCorpus(dir.dir(), 1, 2, 3);
  const ShardSet set(dir.dir());
  EXPECT_THROW(crossValidateStreaming(
                   [] { return std::make_unique<LassoRegression>(); }, set,
                   Label::Average, 5, 42),
               Error);
}

}  // namespace
}  // namespace hcp::ml::shards
