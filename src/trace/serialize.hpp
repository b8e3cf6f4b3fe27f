// Text serialization of back-tracing results (flow-cache format). Doubles
// use 17 significant digits; save -> load -> save is byte-identical.
#pragma once

#include <ostream>

#include "trace/backtrace.hpp"

namespace hcp::support::txt {
class Reader;
}  // namespace hcp::support::txt

namespace hcp::trace {

void writeBackTrace(std::ostream& os, const BackTraceResult& traced);

/// Reads what writeBackTrace wrote. Throws hcp::Error on malformed input.
BackTraceResult readBackTrace(support::txt::Reader& in);

}  // namespace hcp::trace
