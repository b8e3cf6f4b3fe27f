#include "ml/shards.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/flowcache.hpp"
#include "support/parallel.hpp"
#include "support/telemetry.hpp"
#include "support/textio.hpp"

namespace hcp::ml::shards {

namespace {

namespace fs = std::filesystem;
namespace txt = support::txt;
using support::flowcache::Fnv1a;

constexpr const char* kMagic = "hcp-shard";

double targetOf(Label label, const ShardSample& s) {
  switch (label) {
    case Label::Vertical: return s.vertical;
    case Label::Horizontal: return s.horizontal;
    case Label::Average: return s.average;
  }
  HCP_CHECK(false);
  return 0.0;
}

struct HeaderEnvelope {
  ShardInfo info;
  std::size_t payloadBytes = 0;
  std::string payloadHash;
};

bool isHex16(const std::string& s) {
  return s.size() == 16 &&
         s.find_first_not_of("0123456789abcdef") == std::string::npos;
}

/// Parses one header line (without the trailing newline). Every failure
/// message names `path`.
HeaderEnvelope parseHeader(std::string_view line, const std::string& path) {
  txt::Reader in(line);
  HeaderEnvelope env;
  std::uint32_t version = 0;
  try {
    in.expect(kMagic);
    version = in.read<std::uint32_t>("shard version");
    env.info.key = in.read<std::string>("shard key");
    env.info.numFeatures = in.read<std::size_t>("shard feature count");
    env.info.numSamples = in.read<std::size_t>("shard sample count");
    env.payloadBytes = in.read<std::size_t>("shard payload size");
    env.payloadHash = in.read<std::string>("shard payload digest");
  } catch (const Error& e) {
    throw Error("not a shard file (bad header): " + path + " (" + e.what() +
                ")");
  }
  HCP_CHECK_MSG(version == kSchemaVersion,
                "shard schema version skew: " << path << " has version "
                                              << version << ", expected "
                                              << kSchemaVersion);
  HCP_CHECK_MSG(isHex16(env.info.key), "shard header: malformed key '"
                                           << env.info.key << "' in "
                                           << path);
  HCP_CHECK_MSG(isHex16(env.payloadHash),
                "shard header: malformed payload digest in " << path);
  HCP_CHECK_MSG(in.atEnd(), "shard header: trailing garbage in " << path);
  HCP_CHECK_MSG(fs::path(path).stem().string() == env.info.key,
                "shard key mismatch: header says " << env.info.key
                                                   << " but the file is named "
                                                   << path);
  env.info.path = path;
  return env;
}

}  // namespace

std::string_view labelName(Label label) {
  switch (label) {
    case Label::Vertical: return "vertical";
    case Label::Horizontal: return "horizontal";
    case Label::Average: return "average";
  }
  return "?";
}

std::string shardKey(const std::string& design, const std::string& device,
                     std::uint64_t seed, std::size_t numFeatures,
                     const std::string& salt) {
  return Fnv1a()
      .u64(kSchemaVersion)
      .str(design)
      .str(device)
      .u64(seed)
      .u64(numFeatures)
      .str(salt)
      .hex();
}

std::uint64_t sampleId(const std::string& key, std::uint64_t ordinal) {
  return Fnv1a().str(key).u64(ordinal).digest();
}

std::string writeShard(const std::string& dir, const std::string& key,
                       const ShardMeta& meta,
                       const std::vector<ShardSample>& samples) {
  const std::size_t numFeatures =
      samples.empty() ? 0 : samples.front().features.size();
  for (const ShardSample& s : samples)
    HCP_CHECK_MSG(s.features.size() == numFeatures,
                  "shard sample has " << s.features.size()
                                      << " features, expected "
                                      << numFeatures);

  std::ostringstream payload;
  support::txt::preparePrecision(payload);
  payload << "design ";
  support::txt::writeStr(payload, meta.design);
  payload << "\ndevice ";
  support::txt::writeStr(payload, meta.device);
  payload << "\nseed " << meta.seed << "\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const ShardSample& s = samples[i];
    payload << "sample " << sampleId(key, i) << ' ' << s.vertical << ' '
            << s.horizontal << ' ' << s.average;
    for (const double f : s.features) payload << ' ' << f;
    payload << "\n";
  }
  const std::string bytes = payload.str();

  std::error_code ec;
  fs::create_directories(dir, ec);
  HCP_CHECK_MSG(!ec, "cannot create shard directory " << dir << ": "
                                                      << ec.message());
  const std::string path = (fs::path(dir) / (key + ".shard")).string();
  support::txt::CheckedFileWriter writer(path, "shard");
  writer.stream() << kMagic << ' ' << kSchemaVersion << ' ' << key << ' '
                  << numFeatures << ' ' << samples.size() << ' '
                  << bytes.size() << ' ' << Fnv1a().bytes(bytes).hex() << "\n"
                  << bytes;
  writer.commit();
  support::telemetry::count(support::telemetry::Counter::ShardWrites);
  return path;
}

ShardData readShard(const std::string& path) {
  if (support::failpoint::shouldFail("shard.read"))
    throw Error("cannot read shard " + path + " (injected shard.read fault)");
  ShardData data = txt::parseFile(path, "shard", [&](txt::Reader& file) {
    const HeaderEnvelope env = parseHeader(file.readLine(), path);
    // Length first, against the bytes actually present, so a corrupt size
    // is never digested, allocated or parsed.
    const std::size_t present = file.remaining();
    HCP_CHECK_MSG(present >= env.payloadBytes,
                  "truncated shard (payload wanted "
                      << env.payloadBytes << " bytes, got " << present << ")");
    HCP_CHECK_MSG(present == env.payloadBytes,
                  "trailing garbage after shard payload");
    const std::string_view payload = file.readRest();
    const std::string digest = Fnv1a().bytes(payload).hex();
    HCP_CHECK_MSG(digest == env.payloadHash,
                  "shard payload digest mismatch (header "
                      << env.payloadHash << ", computed " << digest << ")");
    // Every sample is at least "sample <id> v h a" plus its features, two
    // bytes a token, so counts past that are corrupt, not reservable.
    const ShardInfo& info = env.info;
    HCP_CHECK_MSG(info.numFeatures <= payload.size() / 2 &&
                      info.numSamples <=
                          payload.size() / (2 * (5 + info.numFeatures)),
                  "shard header counts (" << info.numSamples << " samples of "
                                          << info.numFeatures
                                          << " features) exceed the "
                                          << payload.size()
                                          << "-byte payload");

    ShardData data;
    data.info = info;
    txt::Reader in(payload);
    in.expect("design");
    data.meta.design = in.readStr("shard design");
    in.expect("device");
    data.meta.device = in.readStr("shard device");
    in.expect("seed");
    data.meta.seed = in.read<std::uint64_t>("shard seed");
    data.samples.reserve(info.numSamples);
    for (std::size_t i = 0; i < info.numSamples; ++i) {
      in.expect("sample");
      ShardSample s;
      s.id = in.read<std::uint64_t>("sample id");
      HCP_CHECK_MSG(s.id == sampleId(info.key, i),
                    "shard sample " << i << " has id " << s.id
                                    << ", expected canonical id "
                                    << sampleId(info.key, i));
      s.vertical = in.read<double>("sample labels");
      s.horizontal = in.read<double>("sample labels");
      s.average = in.read<double>("sample labels");
      s.features.reserve(info.numFeatures);
      for (std::size_t f = 0; f < info.numFeatures; ++f)
        s.features.push_back(in.read<double>("sample features"));
      data.samples.push_back(std::move(s));
    }
    in.expectEnd("shard payload");
    return data;
  });
  support::telemetry::count(support::telemetry::Counter::ShardReads);
  return data;
}

ShardSet::ShardSet(std::string dir) : dir_(std::move(dir)) {
  HCP_CHECK_MSG(fs::is_directory(dir_),
                "shard directory does not exist: " << dir_);
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".shard") continue;
    paths.push_back(entry.path().string());
  }
  // Directory iteration order is filesystem-dependent; the sorted file name
  // (= content key) order is the canonical sample order of the set.
  std::sort(paths.begin(), paths.end());

  for (const std::string& path : paths) {
    std::ifstream is(path, std::ios::binary);
    HCP_CHECK_MSG(is.good(), "cannot open shard " << path);
    std::string line;
    std::getline(is, line);
    const HeaderEnvelope env = parseHeader(line, path);
    if (env.info.numSamples > 0) {
      if (numFeatures_ == 0) {
        numFeatures_ = env.info.numFeatures;
      } else {
        HCP_CHECK_MSG(env.info.numFeatures == numFeatures_,
                      "shard feature-count mismatch in set: "
                          << path << " has " << env.info.numFeatures
                          << " features, set has " << numFeatures_);
      }
    }
    totalSamples_ += env.info.numSamples;
    infos_.push_back(env.info);
  }
}

ShardData ShardSet::load(std::size_t i) const {
  const ShardInfo& expected = info(i);
  ShardData data = readShard(expected.path);
  // Guards against the file changing between the scan and this load.
  HCP_CHECK_MSG(data.info.key == expected.key &&
                    data.info.numSamples == expected.numSamples &&
                    data.info.numFeatures == expected.numFeatures,
                "shard changed since the set was scanned: " << expected.path);
  return data;
}

ShardRowSource::ShardRowSource(const ShardSet& set, Label label, KeepFn keep)
    : set_(&set), label_(label), keep_(std::move(keep)) {
  if (!keep_) {
    size_ = set_->totalSamples();
    return;
  }
  // Ids are a pure function of (key, ordinal): the filtered size comes from
  // the headers alone, no payload I/O.
  for (std::size_t s = 0; s < set_->numShards(); ++s) {
    const ShardInfo& info = set_->info(s);
    for (std::size_t o = 0; o < info.numSamples; ++o)
      if (keep_(sampleId(info.key, o))) ++size_;
  }
}

void ShardRowSource::forEach(const RowFn& fn) const {
  std::size_t index = 0;
  for (std::size_t s = 0; s < set_->numShards(); ++s) {
    if (set_->info(s).numSamples == 0) continue;
    const ShardData data = set_->load(s);
    for (const ShardSample& sample : data.samples) {
      if (keep_ && !keep_(sample.id)) continue;
      fn(index++, sample.features, targetOf(label_, sample));
    }
  }
}

void ShardRowSource::visitParallel(const RowFn& fn) const {
  std::size_t base = 0;
  for (std::size_t s = 0; s < set_->numShards(); ++s) {
    if (set_->info(s).numSamples == 0) continue;
    const ShardData data = set_->load(s);
    std::vector<std::size_t> kept;
    kept.reserve(data.samples.size());
    for (std::size_t o = 0; o < data.samples.size(); ++o)
      if (!keep_ || keep_(data.samples[o].id)) kept.push_back(o);
    support::parallelFor(0, kept.size(), 64, [&](std::size_t j) {
      const ShardSample& sample = data.samples[kept[j]];
      fn(base + j, sample.features, targetOf(label_, sample));
    });
    base += kept.size();
  }
}

}  // namespace hcp::ml::shards
