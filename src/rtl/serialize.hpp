// Text serialization of generated RTL (flow-cache format): the flattened
// netlist (instances, cells, nets) plus the op -> cell provenance map. The
// netlist is rebuilt through its public construction API, so a loaded
// netlist passes validate() exactly like the original. Doubles use 17
// significant digits; save -> load -> save is byte-identical.
#pragma once

#include <ostream>

#include "rtl/generator.hpp"

namespace hcp::support::txt {
class Reader;
}  // namespace hcp::support::txt

namespace hcp::rtl {

void writeGeneratedRtl(std::ostream& os, const GeneratedRtl& rtl);

/// Reads what writeGeneratedRtl wrote. Throws hcp::Error on malformed input.
GeneratedRtl readGeneratedRtl(support::txt::Reader& in);

}  // namespace hcp::rtl
