// Text serialization of IR containers (flow-cache format).
//
// Unlike ir/printer.hpp — a human-facing dump that omits payload fields the
// reader can infer — this format is *complete*: every field of every Op,
// LoopInfo, ArrayInfo and PortInfo round-trips exactly, so a deserialized
// module is indistinguishable from the original to every downstream stage
// (scheduling replay, feature extraction, provenance lookups). Doubles use
// 17 significant digits; save -> load -> save is byte-identical.
#pragma once

#include <memory>
#include <ostream>

#include "ir/module.hpp"

namespace hcp::support::txt {
class Reader;
}  // namespace hcp::support::txt

namespace hcp::ir {

void writeModule(std::ostream& os, const Module& mod);

/// Reads a module written by writeModule. Throws hcp::Error on malformed or
/// truncated input. Does not require the text to end afterwards (modules
/// embed into larger documents).
std::unique_ptr<Module> readModule(support::txt::Reader& in);

}  // namespace hcp::ir
