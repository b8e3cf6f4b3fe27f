#include "support/flowcache.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>

#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/telemetry.hpp"
#include "support/textio.hpp"

namespace hcp::support::flowcache {

namespace fs = std::filesystem;
namespace telemetry = hcp::support::telemetry;

Fnv1a& Fnv1a::u64(std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  return bytes(std::string_view(b, 8));
}

Fnv1a& Fnv1a::f64(double v) {
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return u64(bits);
}

std::string Fnv1a::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash_));
  return std::string(buf, 16);
}

FlowCache::FlowCache(std::string dir) : dir_(std::move(dir)) {
  HCP_CHECK_MSG(!dir_.empty(), "flow cache directory must be non-empty");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  HCP_CHECK_MSG(!ec && fs::is_directory(dir_),
                "cannot create flow cache directory " << dir_ << ": "
                                                      << ec.message());
}

std::string FlowCache::entryPath(const std::string& key) const {
  return dir_ + "/" + key + ".flow";
}

namespace {

/// Reads the whole file with one read sized from the opened stream (so an
/// entry renamed into place meanwhile cannot mix with the old one); nullopt
/// when it does not exist, is not a regular file or cannot be read.
std::optional<std::string> slurp(const std::string& path) {
  std::error_code ec;
  if (!fs::is_regular_file(path, ec)) return std::nullopt;
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is.good()) return std::nullopt;
  const std::streamoff size = is.tellg();
  if (size < 0 || !is.seekg(0)) return std::nullopt;
  std::string bytes(static_cast<std::size_t>(size), '\0');
  if (!is.read(bytes.data(), size)) return std::nullopt;
  return bytes;
}

void corrupt(const std::string& path, const char* why) {
  telemetry::count(telemetry::Counter::FlowCacheCorrupt);
  std::fprintf(stderr, "[flowcache] corrupt entry %s: %s (will recompute)\n",
               path.c_str(), why);
}

std::atomic<bool> gDegraded{false};

/// Degrade-gracefully reporting (DESIGN.md §14): count every failure, log
/// only the first of each kind so a systemically broken cache (full disk,
/// bad mount) does not flood stderr across hundreds of flows. The first
/// failure of either kind also latches the process-wide degraded gauge.
void ioFailure(telemetry::Counter counter, std::atomic<bool>& loggedOnce,
               const char* action, const std::string& detail) {
  telemetry::count(counter);
  if (!gDegraded.exchange(true, std::memory_order_relaxed))
    telemetry::count(telemetry::Counter::FlowCacheDegraded);
  if (!loggedOnce.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "[flowcache] %s failed: %s (degrading to recompute; "
                 "further %s failures will not be logged)\n",
                 action, detail.c_str(), action);
  }
}

std::atomic<bool> gStoreErrorLogged{false};
std::atomic<bool> gLoadErrorLogged{false};

}  // namespace

bool degraded() { return gDegraded.load(std::memory_order_relaxed); }

namespace detail {
void resetDegraded() { gDegraded.store(false, std::memory_order_relaxed); }
}  // namespace detail

std::optional<std::string> FlowCache::load(const std::string& key) const {
  const std::string path = entryPath(key);
  if (failpoint::shouldFail("flowcache.load")) {
    ioFailure(telemetry::Counter::FlowCacheLoadError, gLoadErrorLogged,
              "load", path + ": injected read failure");
    return std::nullopt;
  }
  auto raw = slurp(path);
  if (!raw) {
    // Distinguish "no entry" (the normal cold miss) from "entry exists but
    // cannot be read" (permissions, I/O error): the latter degrades too,
    // but under its own counter so operators can see a sick cache disk.
    std::error_code ec;
    if (fs::exists(path, ec) && !ec) {
      ioFailure(telemetry::Counter::FlowCacheLoadError, gLoadErrorLogged,
                "load", path + ": cannot read entry");
    } else {
      telemetry::count(telemetry::Counter::FlowCacheMiss);
    }
    return std::nullopt;
  }
  // Envelope: "hcp-flowcache <schema> <key> <bytes> <fnv>\n<payload>".
  const std::size_t nl = raw->find('\n');
  if (nl == std::string::npos) {
    corrupt(path, "missing envelope header line");
    return std::nullopt;
  }
  txt::Reader header(std::string_view(*raw).substr(0, nl));
  std::uint32_t version = 0;
  std::string storedKey, payloadHash;
  std::uint64_t payloadBytes = 0;
  try {
    header.expect("hcp-flowcache");
    version = header.read<std::uint32_t>("cache schema version");
    storedKey = header.read<std::string>("cache key");
    payloadBytes = header.read<std::uint64_t>("cache payload size");
    payloadHash = header.read<std::string>("cache payload digest");
  } catch (const hcp::Error&) {
    corrupt(path, "malformed envelope header");
    return std::nullopt;
  }
  if (!header.atEnd()) {
    corrupt(path, "trailing tokens in envelope header");
    return std::nullopt;
  }
  if (version != kSchemaVersion) {
    corrupt(path, "schema version skew");
    return std::nullopt;
  }
  if (storedKey != key) {
    corrupt(path, "key mismatch (entry stored under a different digest)");
    return std::nullopt;
  }
  raw->erase(0, nl + 1);  // drop the header in place; the rest is payload
  std::string& payload = *raw;
  if (payload.size() != payloadBytes) {
    corrupt(path, payload.size() < payloadBytes
                      ? "truncated payload"
                      : "trailing garbage after payload");
    return std::nullopt;
  }
  if (Fnv1a().bytes(payload).hex() != payloadHash) {
    corrupt(path, "payload hash mismatch (bit rot or concurrent tampering)");
    return std::nullopt;
  }
  return raw;
}

bool FlowCache::store(const std::string& key,
                      const std::string& payload) const {
  // CheckedFileWriter gives the atomicity (unique temp file + rename, so
  // concurrent pool tasks and concurrent processes only ever expose whole
  // entries) and the verification. The cache is an accelerator, never a
  // correctness dependency: any failure — ENOSPC, read-only directory,
  // rename across a broken mount, or an injected flowcache.store.* fault —
  // is absorbed here per the degrade contract (DESIGN.md §14). The temp
  // file is removed on every failure path (writer destructor / commit).
  try {
    txt::CheckedFileWriter writer(entryPath(key), "flowcache.store");
    writer.stream() << "hcp-flowcache " << kSchemaVersion << ' ' << key << ' '
                    << payload.size() << ' ' << Fnv1a().bytes(payload).hex()
                    << '\n'
                    << payload;
    writer.commit();
  } catch (const hcp::Error& e) {
    ioFailure(telemetry::Counter::FlowCacheStoreError, gStoreErrorLogged,
              "store", e.what());
    return false;
  }
  telemetry::count(telemetry::Counter::FlowCacheWrite);
  return true;
}

namespace {
std::unique_ptr<FlowCache>& globalSlot() {
  static std::unique_ptr<FlowCache> cache;
  return cache;
}
}  // namespace

FlowCache* global() { return globalSlot().get(); }

void setGlobalDir(const std::string& dir) {
  if (dir.empty()) {
    globalSlot().reset();
  } else if (globalSlot() == nullptr || globalSlot()->dir() != dir) {
    globalSlot() = std::make_unique<FlowCache>(dir);
  }
}

std::string globalDir() {
  return globalSlot() == nullptr ? std::string() : globalSlot()->dir();
}

std::string initCacheFromArgs(int argc, char** argv) {
  std::string dir = telemetry::detail::flagValueOrDie(argc, argv, "cache");
  if (dir.empty()) {
    if (const char* env = std::getenv("HCP_CACHE")) dir = env;
  }
  if (!dir.empty()) setGlobalDir(dir);
  return dir;
}

}  // namespace hcp::support::flowcache
