// The flow-cache test battery (tentpole of the content-addressed cache PR):
//
//   1. Round-trip properties: writeFlowResult -> readFlowResult ->
//      writeFlowResult is byte-identical for three designs on two devices,
//      and a loaded result feeds the dataset builder and predictor
//      bit-identically to the original.
//   2. Key derivation: stable across rebuilds of the same inputs,
//      discriminating across seeds, directives, synthesis options and
//      devices.
//   3. Cache behavior: cold miss -> write, warm hit -> byte-identical
//      result with *zero* place/route work, input changes -> miss.
//   4. Corruption battery: truncation, bit flips, blanked files, version
//      skew, key mismatch, trailing garbage and unparsable payloads are all
//      detected (flowcache_corrupt), logged, and fall back to recompute —
//      never a crash, never stale data — and the recompute self-heals the
//      entry.
//      The reader sweep cuts a full spam_filter result at 256 prefixes
//      (each must throw) and flips 256 seeded bytes (each must throw
//      hcp::Error or parse, never crash).
//   5. Failure matrix: injected store/load I/O failures (open, ENOSPC
//      mid-write, rename) degrade to recompute with the flowcache_*_error
//      counters bumped, never abort, never leave temp files, and stay
//      byte-identical to a cache-disabled run.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/digit_spam.hpp"
#include "apps/face_detection.hpp"
#include "apps/registry.hpp"
#include "core/dataset_builder.hpp"
#include "core/flow.hpp"
#include "core/flow_serialize.hpp"
#include "core/predictor.hpp"
#include "support/failpoint.hpp"
#include "support/flowcache.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"
#include "test_util.hpp"

namespace hcp::core {
namespace {

namespace fc = support::flowcache;
namespace telemetry = support::telemetry;
namespace fs = std::filesystem;

// --- fixtures ---------------------------------------------------------------

apps::AppDesign smallFace() {
  apps::FaceDetectionConfig cfg;
  cfg.stages = 4;
  cfg.windowTrip = 64;
  cfg.fillTrip = 64;
  return apps::faceDetection(cfg);
}

apps::AppDesign smallDigit() {
  apps::DigitRecognitionConfig cfg;
  cfg.trainingSize = 128;
  cfg.unroll = 8;
  return apps::digitRecognition(cfg);
}

apps::AppDesign smallSpam() {
  apps::SpamFilterConfig cfg;
  cfg.numFeatures = 256;
  cfg.unroll = 8;
  cfg.partition = 8;
  return apps::spamFilter(cfg);
}

using DesignFactory = apps::AppDesign (*)();
constexpr DesignFactory kDesigns[] = {&smallFace, &smallDigit, &smallSpam};

fpga::Device mainDevice() { return fpga::Device::xc7z020like(); }

/// Same grid as the xc7z020, different name and channel capacities — a
/// second device that every design still fits on but that must place/route
/// (and therefore cache) differently.
fpga::Device scarceDevice() {
  fpga::Device::Config cfg = fpga::Device::xc7z020like().config();
  cfg.name = "xc7z020like_scarce";
  cfg.vTracks = 40.0;
  cfg.hTracks = 30.0;
  return fpga::Device(cfg);
}

std::string serialize(const FlowResult& result) {
  std::ostringstream os;
  writeFlowResult(os, result);
  return os.str();
}

FlowResult deserialize(const std::string& text) {
  std::istringstream is(text);
  return readFlowResult(is);
}

/// One flow per (design, device) pair, computed once for the whole binary.
class FlowCacheRoundTrip : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    flows_ = new std::vector<FlowResult>();
    for (const fpga::Device& device : {mainDevice(), scarceDevice()})
      for (DesignFactory make : kDesigns)
        flows_->push_back(runFlow(make(), device, {}));
  }
  static void TearDownTestSuite() {
    delete flows_;
    flows_ = nullptr;
  }

  static std::vector<FlowResult>* flows_;
};

std::vector<FlowResult>* FlowCacheRoundTrip::flows_ = nullptr;

using TempCacheDir = hcp::test::TempDir;
using hcp::test::slurpFile;
using hcp::test::writeRaw;

// --- 1. round-trip properties ----------------------------------------------

TEST_F(FlowCacheRoundTrip, SaveLoadSaveIsByteIdentical) {
  for (const FlowResult& flow : *flows_) {
    SCOPED_TRACE(flow.name);
    const std::string first = serialize(flow);
    const FlowResult loaded = deserialize(first);
    EXPECT_EQ(first, serialize(loaded));
  }
}

TEST_F(FlowCacheRoundTrip, LoadedResultMatchesOriginalFieldwise) {
  for (const FlowResult& flow : *flows_) {
    SCOPED_TRACE(flow.name);
    const FlowResult loaded = deserialize(serialize(flow));
    EXPECT_EQ(loaded.name, flow.name);
    EXPECT_EQ(loaded.wnsNs, flow.wnsNs);
    EXPECT_EQ(loaded.maxFrequencyMhz, flow.maxFrequencyMhz);
    EXPECT_EQ(loaded.latencyCycles, flow.latencyCycles);
    EXPECT_EQ(loaded.maxVCongestion, flow.maxVCongestion);
    EXPECT_EQ(loaded.maxHCongestion, flow.maxHCongestion);
    EXPECT_EQ(loaded.congestedTiles, flow.congestedTiles);
    EXPECT_EQ(loaded.rtl.netlist.numCells(), flow.rtl.netlist.numCells());
    EXPECT_EQ(loaded.rtl.netlist.numNets(), flow.rtl.netlist.numNets());
    EXPECT_TRUE(loaded.rtl.netlist.validate().empty());
    EXPECT_EQ(loaded.traced.samples.size(), flow.traced.samples.size());
    EXPECT_EQ(loaded.impl.placement.tileOfCluster.size(),
              flow.impl.placement.tileOfCluster.size());
  }
}

TEST_F(FlowCacheRoundTrip, LoadedResultBuildsIdenticalDataset) {
  for (const FlowResult& flow : *flows_) {
    SCOPED_TRACE(flow.name);
    const FlowResult loaded = deserialize(serialize(flow));
    const LabeledDataset a = buildDataset(flow, {});
    const LabeledDataset b = buildDataset(loaded, {});
    ASSERT_EQ(a.vertical.size(), b.vertical.size());
    EXPECT_EQ(a.vertical.rows(), b.vertical.rows());
    EXPECT_EQ(a.vertical.targets(), b.vertical.targets());
    EXPECT_EQ(a.horizontal.targets(), b.horizontal.targets());
    EXPECT_EQ(a.average.targets(), b.average.targets());
    EXPECT_EQ(a.filterStats.marginal, b.filterStats.marginal);
  }
}

TEST_F(FlowCacheRoundTrip, LoadedDesignPredictsIdentically) {
  const FlowResult& flow = flows_->front();
  const FlowResult loaded = deserialize(serialize(flow));

  PredictorOptions opts;
  opts.gbrt.numEstimators = 20;
  CongestionPredictor predictor(opts);
  const LabeledDataset data = buildDataset(flow, {});
  predictor.train(data);

  features::FeatureExtractor original(flow.design, {});
  features::FeatureExtractor restored(loaded.design, {});
  for (std::size_t i = 0; i < std::min<std::size_t>(25, data.samples.size());
       ++i) {
    const auto& s = data.samples[i];
    const auto a = predictor.predictOp(original, s.functionIndex, s.op);
    const auto b = predictor.predictOp(restored, s.functionIndex, s.op);
    EXPECT_EQ(a.vertical, b.vertical);
    EXPECT_EQ(a.horizontal, b.horizontal);
    EXPECT_EQ(a.average, b.average);
  }
}

// --- 2. key derivation ------------------------------------------------------

TEST(FlowCacheKey, StableAcrossRebuildsOfTheSameInputs) {
  const fpga::Device device = mainDevice();
  const FlowConfig config;
  const std::string a = flowCacheKey(smallDigit(), device, config);
  const std::string b = flowCacheKey(smallDigit(), device, config);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 16u);
}

TEST(FlowCacheKey, DiscriminatesEveryInput) {
  const fpga::Device device = mainDevice();
  const FlowConfig base;
  const std::string key = flowCacheKey(smallDigit(), device, base);

  FlowConfig seeded = base;
  seeded.seed = base.seed + 1;
  EXPECT_NE(key, flowCacheKey(smallDigit(), device, seeded));

  FlowConfig options = base;
  options.synthesis.runFrontendPasses = false;
  EXPECT_NE(key, flowCacheKey(smallDigit(), device, options));

  FlowConfig clocked = base;
  clocked.synthesis.schedule.clockPeriodNs = 8.0;
  EXPECT_NE(key, flowCacheKey(smallDigit(), device, clocked));

  FlowConfig par = base;
  par.par.router.maxIterations += 1;
  EXPECT_NE(key, flowCacheKey(smallDigit(), device, par));

  apps::DigitRecognitionConfig noDir;
  noDir.trainingSize = 128;
  noDir.unroll = 8;
  noDir.withDirectives = false;
  EXPECT_NE(key,
            flowCacheKey(apps::digitRecognition(noDir), device, base));

  EXPECT_NE(key, flowCacheKey(smallDigit(), scarceDevice(), base));
  EXPECT_NE(key, flowCacheKey(smallSpam(), device, base));
}

// --- 3. cache behavior ------------------------------------------------------

/// Arms telemetry and the global cache for one test body.
class CacheBehaviorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::setEnabled(true);
    telemetry::reset();
  }
  void TearDown() override {
    telemetry::reset();
    telemetry::setEnabled(false);
  }

  static std::uint64_t counter(telemetry::Counter c) {
    return telemetry::snapshot().counter(c);
  }
};

TEST_F(CacheBehaviorTest, ColdMissesWarmHitsByteIdentically) {
  TempCacheDir scratch("flowcache_behavior/");
  fc::ScopedCacheDir armed(scratch.dir());

  const FlowResult cold = runFlow(smallDigit(), mainDevice(), {});
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheMiss), 1u);
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheWrite), 1u);
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheHit), 0u);

  telemetry::reset();
  const FlowResult warm = runFlow(smallDigit(), mainDevice(), {});
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheHit), 1u);
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheMiss), 0u);
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheWrite), 0u);
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheCorrupt), 0u);
  // The entire point: a hit does zero physical-implementation work...
  EXPECT_EQ(counter(telemetry::Counter::PlacerMovesProposed), 0u);
  EXPECT_EQ(counter(telemetry::Counter::RouterIterations), 0u);
  EXPECT_EQ(counter(telemetry::Counter::HlsFunctionsSynthesized), 0u);
  // ...and returns the recomputed result byte for byte.
  EXPECT_EQ(serialize(cold), serialize(warm));
}

TEST_F(CacheBehaviorTest, WarmHitCountsExactlyItsPayloadBytesParsed) {
  TempCacheDir scratch("flowcache_bytes_parsed/");
  fc::ScopedCacheDir armed(scratch.dir());

  (void)runFlow(smallDigit(), mainDevice(), {});
  EXPECT_EQ(counter(telemetry::Counter::FlowBytesParsed), 0u);  // cold
  const std::optional<std::string> payload = fc::global()->load(
      flowCacheKey(smallDigit(), mainDevice(), {}));
  ASSERT_TRUE(payload.has_value());

  telemetry::reset();
  (void)runFlow(smallDigit(), mainDevice(), {});
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheHit), 1u);
  EXPECT_EQ(counter(telemetry::Counter::FlowBytesParsed), payload->size());
}

TEST_F(CacheBehaviorTest, InputChangesMissInsteadOfServingStaleData) {
  TempCacheDir scratch("flowcache_invalidate/");
  fc::ScopedCacheDir armed(scratch.dir());

  FlowConfig config;
  (void)runFlow(smallDigit(), mainDevice(), config);

  telemetry::reset();
  config.seed = 43;
  (void)runFlow(smallDigit(), mainDevice(), config);
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheMiss), 1u);
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheHit), 0u);

  telemetry::reset();
  apps::DigitRecognitionConfig retuned;
  retuned.trainingSize = 128;
  retuned.unroll = 4;  // different unroll directive
  (void)runFlow(apps::digitRecognition(retuned), mainDevice(), {});
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheMiss), 1u);
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheHit), 0u);
}

TEST_F(CacheBehaviorTest, RunFlowsServesEveryDesignFromTheCache) {
  TempCacheDir scratch("flowcache_runflows/");
  fc::ScopedCacheDir armed(scratch.dir());

  auto makeSuite = [] {
    std::vector<apps::AppDesign> designs;
    designs.push_back(smallFace());
    designs.push_back(smallDigit());
    designs.push_back(smallSpam());
    return designs;
  };
  auto designs = makeSuite();
  const auto cold = runFlows(designs, mainDevice(), {});

  telemetry::reset();
  auto again = makeSuite();
  const auto warm = runFlows(again, mainDevice(), {});
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheHit), 3u);
  EXPECT_EQ(counter(telemetry::Counter::PlacerMovesProposed), 0u);
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i)
    EXPECT_EQ(serialize(cold[i]), serialize(warm[i]));
}

TEST_F(CacheBehaviorTest, GoldenDigitSpamColdWarmAndInvalidation) {
  // The issue's golden scenario, on the paper's combined design proper:
  // same flow twice into a temp cache — the second run is a 100% hit and
  // its run-report observables (counters, span paths and hit counts,
  // histogram observation counts — everything but wall time) match a
  // further warm run exactly; changing one directive knob or the seed
  // misses instead of serving the old entry.
  TempCacheDir scratch("flowcache_golden/");
  fc::ScopedCacheDir armed(scratch.dir());

  const FlowResult cold = runFlow(apps::digitSpamCombined(), mainDevice(), {});
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheMiss), 1u);

  auto warmSnapshot = [&] {
    telemetry::reset();
    const FlowResult warm =
        runFlow(apps::digitSpamCombined(), mainDevice(), {});
    EXPECT_EQ(serialize(warm), serialize(cold));
    return telemetry::snapshot();
  };
  const telemetry::Snapshot warm1 = warmSnapshot();
  const telemetry::Snapshot warm2 = warmSnapshot();

  EXPECT_EQ(warm1.counter(telemetry::Counter::FlowCacheHit), 1u);
  EXPECT_EQ(warm1.counter(telemetry::Counter::FlowCacheMiss), 0u);
  EXPECT_EQ(warm1.counter(telemetry::Counter::PlacerMovesProposed), 0u);
  // Bit-identical report observables across warm runs.
  EXPECT_EQ(warm1.counters, warm2.counters);
  ASSERT_EQ(warm1.spans.size(), warm2.spans.size());
  for (std::size_t i = 0; i < warm1.spans.size(); ++i) {
    EXPECT_EQ(warm1.spans[i].path, warm2.spans[i].path);
    EXPECT_EQ(warm1.spans[i].count, warm2.spans[i].count);
    EXPECT_NE(warm1.spans[i].path, "flow/place");
    EXPECT_NE(warm1.spans[i].path, "flow/route");
  }
  for (std::size_t h = 0; h < telemetry::kNumHistograms; ++h)
    EXPECT_EQ(warm1.histograms[h].count, warm2.histograms[h].count);

  // One directive knob changed -> miss.
  telemetry::reset();
  apps::DigitRecognitionConfig digit;
  digit.unroll = 16;
  (void)runFlow(apps::digitSpamCombined(digit, {}), mainDevice(), {});
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheHit), 0u);
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheMiss), 1u);

  // Seed changed -> miss.
  telemetry::reset();
  FlowConfig reseeded;
  reseeded.seed = 43;
  (void)runFlow(apps::digitSpamCombined(), mainDevice(), reseeded);
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheHit), 0u);
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheMiss), 1u);
}

// --- 4. corruption battery --------------------------------------------------

/// Every mutation of a stored entry must load as nullopt and count one
/// flowcache_corrupt — never throw, never return bytes.
class CorruptionBattery : public CacheBehaviorTest {
 protected:
  void expectCorrupt(const fc::FlowCache& cache, const std::string& key,
                     const char* what) {
    SCOPED_TRACE(what);
    const std::uint64_t before =
        counter(telemetry::Counter::FlowCacheCorrupt);
    std::optional<std::string> out;
    EXPECT_NO_THROW(out = cache.load(key));
    EXPECT_FALSE(out.has_value());
    EXPECT_EQ(counter(telemetry::Counter::FlowCacheCorrupt), before + 1);
  }
};

TEST_F(CorruptionBattery, EveryMalformedEnvelopeShapeIsDetected) {
  TempCacheDir scratch("flowcache_corrupt_env/");
  const fc::FlowCache cache(scratch.dir());
  const std::string key = "00deadbeef00cafe";
  const std::string payload = "pretend flow result payload\nwith lines\n";
  cache.store(key, payload);
  const std::string path = cache.entryPath(key);
  const std::string good = slurpFile(path);
  ASSERT_FALSE(good.empty());

  // Sanity: the untouched entry loads.
  ASSERT_EQ(cache.load(key), payload);

  writeRaw(path, "");
  expectCorrupt(cache, key, "blanked file");

  writeRaw(path, good.substr(0, good.size() / 2));
  expectCorrupt(cache, key, "truncated payload");

  writeRaw(path, good.substr(0, good.find('\n') / 2));
  expectCorrupt(cache, key, "truncated header, no newline");

  std::string flipped = good;
  flipped[flipped.size() - 3] ^= 0x20;  // bit-flip inside the payload
  writeRaw(path, flipped);
  expectCorrupt(cache, key, "payload bit flip");

  writeRaw(path, good + "extra");
  expectCorrupt(cache, key, "trailing garbage after payload");

  std::string skewed = good;
  const std::string versionTag = "hcp-flowcache " +
                                 std::to_string(fc::kSchemaVersion) + ' ';
  ASSERT_EQ(skewed.rfind(versionTag, 0), 0u);
  skewed.replace(0, versionTag.size(), "hcp-flowcache 999 ");
  writeRaw(path, skewed);
  expectCorrupt(cache, key, "schema version bump");

  writeRaw(path, "wrong-magic" + good.substr(good.find(' ')));
  expectCorrupt(cache, key, "wrong magic");

  std::string crowded = good;
  crowded.insert(crowded.find('\n'), " surplus-token");
  writeRaw(path, crowded);
  expectCorrupt(cache, key, "trailing tokens in header");

  // An entry copied to a different key's path: stored digest disagrees with
  // the requested key, so it must not be served.
  const std::string otherKey = "1111222233334444";
  cache.store(key, payload);  // self-heal the original first
  fs::copy_file(cache.entryPath(key), cache.entryPath(otherKey),
                fs::copy_options::overwrite_existing);
  expectCorrupt(cache, otherKey, "key mismatch");

  // After all that abuse, a fresh store must still serve.
  cache.store(key, payload);
  EXPECT_EQ(cache.load(key), payload);
}

TEST_F(CorruptionBattery, CorruptFlowEntryFallsBackToRecomputeAndSelfHeals) {
  TempCacheDir scratch("flowcache_corrupt_flow/");
  fc::ScopedCacheDir armed(scratch.dir());

  const FlowResult cold = runFlow(smallSpam(), mainDevice(), {});
  const std::string key = flowCacheKey(smallSpam(), mainDevice(), {});
  const std::string path = fc::global()->entryPath(key);
  const std::string good = slurpFile(path);
  ASSERT_FALSE(good.empty());

  // Truncate the real entry: the warm run must detect it, recompute the
  // identical result, and rewrite the entry.
  writeRaw(path, good.substr(0, good.size() - 100));
  telemetry::reset();
  const FlowResult healed = runFlow(smallSpam(), mainDevice(), {});
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheCorrupt), 1u);
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheHit), 0u);
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheWrite), 1u);
  EXPECT_EQ(serialize(cold), serialize(healed));
  EXPECT_EQ(slurpFile(path), good);

  // And the healed entry now hits.
  telemetry::reset();
  (void)runFlow(smallSpam(), mainDevice(), {});
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheHit), 1u);
}

TEST_F(CorruptionBattery, ValidEnvelopeWithUnparsablePayloadRecomputes) {
  TempCacheDir scratch("flowcache_corrupt_payload/");
  fc::ScopedCacheDir armed(scratch.dir());

  // A payload that passes every envelope check but is not a FlowResult:
  // the parse failure must count as corrupt and fall back to recompute.
  const std::string key = flowCacheKey(smallSpam(), mainDevice(), {});
  fc::global()->store(key, "hcp-flowresult 1 name 4 oops truncated nonsense");

  telemetry::reset();
  FlowResult result;
  EXPECT_NO_THROW(result = runFlow(smallSpam(), mainDevice(), {}));
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheCorrupt), 1u);
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheHit), 0u);
  EXPECT_GT(result.rtl.netlist.numCells(), 0u);

  // The recompute overwrote the poisoned entry; now it hits.
  telemetry::reset();
  (void)runFlow(smallSpam(), mainDevice(), {});
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheHit), 1u);
}

TEST_F(CorruptionBattery, FlowResultReaderRejectsTrailingGarbage) {
  // readFlowResult is the "one document per entry" contract: concatenated
  // or padded payloads must be rejected, not half-consumed.
  const FlowResult flow = runFlow(smallSpam(), mainDevice(), {});
  const std::string text = serialize(flow);
  EXPECT_THROW(deserialize(text + "surplus"), hcp::Error);
  EXPECT_THROW(deserialize(text + text), hcp::Error);
  std::istringstream truncated(text.substr(0, text.size() / 3));
  EXPECT_THROW(readFlowResult(truncated), hcp::Error);
}

/// Every prefix and single-byte corruption of a full-size spam_filter flow
/// result, fed straight to the reader (no envelope digest in front of it).
/// Each case parses from an exact-size heap copy, so an overread is a heap
/// overflow under AddressSanitizer.
class FlowResultReaderSweep : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    payload_ = new std::string(
        serialize(runFlow(apps::makeDesign("spam_filter"), mainDevice(), {})));
  }
  static void TearDownTestSuite() {
    delete payload_;
    payload_ = nullptr;
  }

  static std::string* payload_;
};

std::string* FlowResultReaderSweep::payload_ = nullptr;

TEST_F(FlowResultReaderSweep, EveryTruncationThrows) {
  const std::string& text = *payload_;
  ASSERT_NO_THROW(deserialize(text));
  constexpr std::size_t kCuts = 256;
  for (std::size_t i = 0; i < kCuts; ++i) {
    const std::size_t cut = text.size() * i / kCuts;
    SCOPED_TRACE(cut);
    const std::vector<char> prefix(text.begin(), text.begin() + cut);
    EXPECT_THROW(readFlowResult(std::string_view(prefix.data(), cut)),
                 hcp::Error);
  }
}

TEST_F(FlowResultReaderSweep, EverySingleByteFlipThrowsOrParses) {
  const std::string& text = *payload_;
  Rng rng(0x7465787469);
  std::size_t threw = 0;
  for (int i = 0; i < 256; ++i) {
    std::vector<char> bytes(text.begin(), text.end());
    const std::size_t pos = rng.uniformInt(bytes.size());
    bytes[pos] = static_cast<char>(bytes[pos] ^ (1 + rng.uniformInt(255)));
    SCOPED_TRACE(pos);
    // Anything but hcp::Error escaping the reader fails the test.
    try {
      (void)readFlowResult(std::string_view(bytes.data(), bytes.size()));
    } catch (const hcp::Error&) {
      ++threw;
    }
  }
  // Most flips break a token and throw; one that swaps a digit for another
  // digit still parses (the cache's payload digest catches those).
  EXPECT_GT(threw, 0u);
}

// --- 5. failure matrix: store/load I/O failures degrade to recompute --------
//
// The contract under test (DESIGN.md §14): the cache is an accelerator,
// never a correctness dependency. No cache I/O failure may abort a flow
// that would succeed without the cache; failures are counted
// (flowcache_store_error / flowcache_load_error), the orphaned temp file is
// always removed, and results stay byte-identical to a cache-disabled run.

namespace fp = support::failpoint;

/// Files in `dir` whose name contains ".tmp." — must always be empty after
/// a store, successful or failed.
std::vector<std::string> tmpFilesIn(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp.") != std::string::npos) names.push_back(name);
  }
  return names;
}

class FailureMatrix : public CacheBehaviorTest {
 protected:
  void TearDown() override {
    fp::clear();
    CacheBehaviorTest::TearDown();
  }
};

TEST_F(FailureMatrix, InjectedEnospcMidStoreDegradesToRecompute) {
  TempCacheDir scratch("flowcache_enospc/");
  fc::ScopedCacheDir armed(scratch.dir());

  // ENOSPC on the first store: the flow must still succeed, counting one
  // store error and writing no entry (and leaving no temp file).
  fp::configure("flowcache.store.write:1");
  FlowResult cold;
  EXPECT_NO_THROW(cold = runFlow(smallDigit(), mainDevice(), {}));
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheStoreError), 1u);
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheWrite), 0u);
  EXPECT_TRUE(tmpFilesIn(scratch.dir()).empty());
  EXPECT_TRUE(fs::is_empty(scratch.dir()));

  // The budget is spent: the next run recomputes (miss — nothing was
  // stored), stores successfully, and matches the degraded run byte for
  // byte.
  telemetry::reset();
  const FlowResult warm = runFlow(smallDigit(), mainDevice(), {});
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheMiss), 1u);
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheWrite), 1u);
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheStoreError), 0u);
  EXPECT_EQ(serialize(cold), serialize(warm));

  // And the healed entry hits.
  telemetry::reset();
  const FlowResult hit = runFlow(smallDigit(), mainDevice(), {});
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheHit), 1u);
  EXPECT_EQ(serialize(cold), serialize(hit));
}

TEST_F(FailureMatrix, RenameFailureRemovesTheOrphanedTempFile) {
  TempCacheDir scratch("flowcache_rename/");
  fc::ScopedCacheDir armed(scratch.dir());

  fp::configure("flowcache.store.rename:1");
  const FlowResult cold = runFlow(smallDigit(), mainDevice(), {});
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheStoreError), 1u);
  EXPECT_TRUE(fs::is_empty(scratch.dir()))
      << "rename failure must remove the temp file";

  // Warm run (budget spent) still byte-identical to the degraded cold run.
  telemetry::reset();
  const FlowResult warm = runFlow(smallDigit(), mainDevice(), {});
  EXPECT_EQ(serialize(cold), serialize(warm));
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheWrite), 1u);
}

TEST_F(FailureMatrix, OpenFailureOnStoreDegradesToo) {
  TempCacheDir scratch("flowcache_openfail/");
  const fc::FlowCache cache(scratch.dir());
  fp::configure("flowcache.store.open:1");
  EXPECT_FALSE(cache.store("00deadbeef00cafe", "payload"));
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheStoreError), 1u);
  EXPECT_TRUE(fs::is_empty(scratch.dir()));
  EXPECT_TRUE(cache.store("00deadbeef00cafe", "payload"));
  EXPECT_EQ(cache.load("00deadbeef00cafe"), "payload");
}

TEST_F(FailureMatrix, DirectoryAtEntryPathIsAnUnreadableEntry) {
  // A directory opens as a stream whose end offset is huge; load() must
  // not size a read from it.
  TempCacheDir scratch("flowcache_dir_entry/");
  const fc::FlowCache cache(scratch.dir());
  const std::string key = "0123456789abcdef";
  fs::create_directories(cache.entryPath(key));
  std::optional<std::string> out;
  EXPECT_NO_THROW(out = cache.load(key));
  EXPECT_FALSE(out.has_value());
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheLoadError), 1u);
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheMiss), 0u);
}

TEST_F(FailureMatrix, InjectedLoadErrorRecomputesWithoutServingBytes) {
  TempCacheDir scratch("flowcache_loadfail/");
  fc::ScopedCacheDir armed(scratch.dir());

  const FlowResult cold = runFlow(smallDigit(), mainDevice(), {});

  // The stored entry is fine, but reading it fails (injected): the run
  // must recompute — and produce identical bytes — rather than abort.
  telemetry::reset();
  fp::configure("flowcache.load:1");
  const FlowResult degraded = runFlow(smallDigit(), mainDevice(), {});
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheLoadError), 1u);
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheHit), 0u);
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheMiss), 0u);
  EXPECT_EQ(serialize(cold), serialize(degraded));

  // Budget spent: the entry (self-healed by the recompute's store) hits.
  telemetry::reset();
  (void)runFlow(smallDigit(), mainDevice(), {});
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheHit), 1u);
}

TEST_F(FailureMatrix, MultiDesignRunFlowsSurvivesOneStoreFailure) {
  // The acceptance scenario: HCP_FAILPOINTS=flowcache.store:1 armed, a
  // multi-design runFlows completes, produces results byte-identical to a
  // cache-disabled run, and reports flowcache_store_error == 1.
  auto makeSuite = [] {
    std::vector<apps::AppDesign> designs;
    designs.push_back(smallFace());
    designs.push_back(smallDigit());
    designs.push_back(smallSpam());
    return designs;
  };
  auto baselineDesigns = makeSuite();
  const auto baseline = runFlows(baselineDesigns, mainDevice(), {});  // no cache

  TempCacheDir scratch("flowcache_acceptance/");
  fc::ScopedCacheDir armed(scratch.dir());
  telemetry::reset();
  fp::configure("flowcache.store:1");
  auto designs = makeSuite();
  std::vector<FlowResult> flows;
  EXPECT_NO_THROW(flows = runFlows(designs, mainDevice(), {}));
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheStoreError), 1u);
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheWrite), 2u);
  ASSERT_EQ(flows.size(), baseline.size());
  for (std::size_t i = 0; i < flows.size(); ++i)
    EXPECT_EQ(serialize(flows[i]), serialize(baseline[i]));
  EXPECT_TRUE(tmpFilesIn(scratch.dir()).empty());
}

TEST_F(FailureMatrix, ReadOnlyCacheDirDegradesEveryStore) {
  if (::geteuid() == 0)
    GTEST_SKIP() << "running as root: permission bits are not enforced";
  TempCacheDir scratch("flowcache_readonly/");
  const fc::FlowCache cache(scratch.dir());
  fs::permissions(scratch.dir(), fs::perms::owner_read | fs::perms::owner_exec,
                  fs::perm_options::replace);
  EXPECT_FALSE(cache.store("00deadbeef00cafe", "payload"));
  EXPECT_EQ(counter(telemetry::Counter::FlowCacheStoreError), 1u);
  fs::permissions(scratch.dir(), fs::perms::owner_all,
                  fs::perm_options::replace);
}

// --- plumbing ---------------------------------------------------------------

TEST(FlowCachePlumbing, ScopedCacheDirArmsAndRestores) {
  const std::string before = fc::globalDir();
  {
    TempCacheDir scratch("flowcache_scoped/");
    fc::ScopedCacheDir armed(scratch.dir());
    EXPECT_EQ(fc::globalDir(), scratch.dir());
    EXPECT_NE(fc::global(), nullptr);
    EXPECT_TRUE(fs::is_directory(scratch.dir()));
  }
  EXPECT_EQ(fc::globalDir(), before);
}

TEST(FlowCachePlumbing, StoreIsAtomicReplace) {
  TempCacheDir scratch("flowcache_replace/");
  const fc::FlowCache cache(scratch.dir());
  cache.store("feedfacefeedface", "first");
  cache.store("feedfacefeedface", "second");
  EXPECT_EQ(cache.load("feedfacefeedface"), "second");
  // No temp files left behind.
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(scratch.dir())) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST(FlowCachePlumbing, MissOnEmptyDirectoryCountsMiss) {
  telemetry::setEnabled(true);
  telemetry::reset();
  TempCacheDir scratch("flowcache_miss/");
  const fc::FlowCache cache(scratch.dir());
  EXPECT_FALSE(cache.load("0123456789abcdef").has_value());
  EXPECT_EQ(telemetry::snapshot().counter(telemetry::Counter::FlowCacheMiss),
            1u);
  EXPECT_EQ(
      telemetry::snapshot().counter(telemetry::Counter::FlowCacheCorrupt),
      0u);
  telemetry::reset();
  telemetry::setEnabled(false);
}

}  // namespace
}  // namespace hcp::core
