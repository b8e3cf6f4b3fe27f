// Text serialization of physical-implementation results (flow-cache
// format): packing, placement, routing (congestion map + per-net routed
// trees) and the timing report, plus the device fingerprint that
// participates in the flow-cache key. Doubles use 17 significant digits;
// save -> load -> save is byte-identical.
#pragma once

#include <ostream>

#include "fpga/par.hpp"

namespace hcp::support::txt {
class Reader;
}  // namespace hcp::support::txt

namespace hcp::fpga {

void writeImplementation(std::ostream& os, const Implementation& impl);

/// Reads what writeImplementation wrote. Throws hcp::Error on malformed
/// input.
Implementation readImplementation(support::txt::Reader& in);

/// Canonical text fingerprint of a device: every Config field. Two devices
/// fingerprint identically iff pack/place/route behave identically on them.
void writeDeviceFingerprint(std::ostream& os, const Device& device);

/// Scalar config blocks (flow-cache key inputs).
void writeParConfig(std::ostream& os, const ParConfig& config);

}  // namespace hcp::fpga
