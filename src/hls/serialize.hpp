// Text serialization of HLS results (flow-cache format): a full
// SynthesizedDesign — module, per-function schedule/binding/graph/report,
// schedule constraints — plus a canonical directive dump used by the
// flow-cache key derivation. Doubles use 17 significant digits;
// save -> load -> save is byte-identical and a loaded design feeds feature
// extraction and RTL generation bit-identically to the original.
#pragma once

#include <ostream>

#include "hls/design.hpp"

namespace hcp::support::txt {
class Reader;
}  // namespace hcp::support::txt

namespace hcp::hls {

void writeDesign(std::ostream& os, const SynthesizedDesign& design);

/// Reads a design written by writeDesign. Per-function dependency graphs are
/// rebound to the freshly read module's functions. Throws hcp::Error on
/// malformed input.
SynthesizedDesign readDesign(support::txt::Reader& in);

/// Canonical text form of a directive set (map-ordered, complete). Feeds the
/// flow-cache key: two DirectiveSets serialize identically iff they request
/// the same transforms.
void writeDirectives(std::ostream& os, const DirectiveSet& dirs);

/// Scalar blocks shared with core/flow_serialize.
void writeResource(std::ostream& os, const Resource& r);
Resource readResource(support::txt::Reader& in);
void writeScheduleConstraints(std::ostream& os,
                              const ScheduleConstraints& c);
ScheduleConstraints readScheduleConstraints(support::txt::Reader& in);

}  // namespace hcp::hls
