// Flow-result serialization and cache-key derivation (the core-side half of
// the flow cache; the content-agnostic store lives in support/flowcache).
//
// writeFlowResult/readFlowResult compose the per-layer serializers
// (ir/hls/rtl/fpga/trace serialize.hpp) into one self-delimiting text
// document. Save -> load -> save is byte-identical, and a loaded result
// feeds feature extraction, dataset building and report printing
// bit-identically to the original.
//
// flowCacheKey digests *every* input runFlow's output depends on: the cache
// schema version, the design name, the complete IR module text, the
// canonical directive dump, all synthesis options, the PAR configuration,
// the master seed and the device fingerprint. Two calls share a key iff
// runFlow would produce byte-identical results for them.
#pragma once

#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "core/flow.hpp"

namespace hcp::core {

void writeFlowResult(std::ostream& os, const FlowResult& result);

/// Parses one document written by writeFlowResult; `text` must hold exactly
/// that document (trailing garbage is malformed input). Throws hcp::Error
/// otherwise. Adds text.size() to the flow_bytes_parsed counter on success.
FlowResult readFlowResult(std::string_view text);

/// Reads the rest of `is` into memory and parses it as above.
FlowResult readFlowResult(std::istream& is);

/// 16-char hex digest of all flow inputs (see file comment). Stable across
/// runs, platforms and thread counts.
std::string flowCacheKey(const apps::AppDesign& app,
                         const fpga::Device& device,
                         const FlowConfig& config);

}  // namespace hcp::core
