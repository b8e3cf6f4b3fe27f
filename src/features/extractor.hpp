// Feature extraction (paper §III-B): computes the 302-dimensional feature
// vector of an IR operation from HLS-time information only — the dependency
// graph (with shared ops merged), the schedule (control steps -> dTcs), the
// binding (per-op resource shares) and the function/global reports. Nothing
// here looks at placement or routing; that is the whole point of the method.
#pragma once

#include <cstdint>
#include <vector>

#include "features/feature_registry.hpp"
#include "hls/design.hpp"

namespace hcp::features {

/// Device resource totals used for the utilization-ratio features. Kept as a
/// plain struct so this library does not depend on the physical model.
struct DeviceCaps {
  double lut = 53200.0;   // XC7Z020 budgets
  double ff = 106400.0;
  double dsp = 220.0;
  double bram = 280.0;
};

/// Immutable after construction, which builds every per-function context:
/// one extractor may serve concurrent extract() calls.
class FeatureExtractor {
 public:
  FeatureExtractor(const hls::SynthesizedDesign& design, DeviceCaps caps);

  /// The feature vector of op `op` in function `functionIndex`, ordered per
  /// FeatureRegistry.
  std::vector<double> extract(std::uint32_t functionIndex,
                              ir::OpId op) const;

  /// Per-op resource share (unit + binding muxes split over sharers, plus
  /// bank-access muxes for loads). Exposed for tests.
  hls::Resource opResource(std::uint32_t functionIndex, ir::OpId op) const;

 private:
  struct FunctionCtx {
    std::vector<hls::Resource> opRes;    ///< per op
    std::vector<hls::Resource> nodeRes;  ///< per graph node (members summed)
    std::vector<std::uint32_t> nodeCstep;///< min start step over members
  };

  FunctionCtx buildCtx(std::uint32_t functionIndex) const;
  const FunctionCtx& ctx(std::uint32_t functionIndex) const;

  const hls::SynthesizedDesign& design_;
  DeviceCaps caps_;
  std::vector<FunctionCtx> ctx_;  ///< one per function
};

}  // namespace hcp::features
