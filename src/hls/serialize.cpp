#include "hls/serialize.hpp"

#include "ir/serialize.hpp"
#include "support/textio.hpp"

namespace hcp::hls {

namespace txt = support::txt;

void writeResource(std::ostream& os, const Resource& r) {
  os << r.lut << ' ' << r.ff << ' ' << r.dsp << ' ' << r.bram;
}

Resource readResource(txt::Reader& in) {
  Resource r;
  r.lut = in.read<double>("resource lut");
  r.ff = in.read<double>("resource ff");
  r.dsp = in.read<double>("resource dsp");
  r.bram = in.read<double>("resource bram");
  return r;
}

void writeScheduleConstraints(std::ostream& os,
                              const ScheduleConstraints& c) {
  os << "constraints " << c.clockPeriodNs << ' ' << c.clockUncertaintyNs
     << ' ' << c.dspLimit << ' ' << c.memPortsPerBank << ' ' << c.divLimit
     << ' ' << c.callInstanceLimit << ' ' << c.chainingSlackFactor << '\n';
}

ScheduleConstraints readScheduleConstraints(txt::Reader& in) {
  in.expect("constraints");
  ScheduleConstraints c;
  c.clockPeriodNs = in.read<double>("constraints clockPeriodNs");
  c.clockUncertaintyNs = in.read<double>("constraints clockUncertaintyNs");
  c.dspLimit = in.read<std::uint32_t>("constraints dspLimit");
  c.memPortsPerBank = in.read<std::uint32_t>("constraints memPortsPerBank");
  c.divLimit = in.read<std::uint32_t>("constraints divLimit");
  c.callInstanceLimit = in.read<std::uint32_t>("constraints callInstanceLimit");
  c.chainingSlackFactor = in.read<double>("constraints chainingSlackFactor");
  return c;
}

namespace {

void writeSchedule(std::ostream& os, const Schedule& s) {
  os << "schedule " << s.ops.size() << ' ' << s.numSteps << ' '
     << s.totalLatency << ' ' << s.estimatedClockNs << '\n';
  for (const OpSchedule& op : s.ops)
    os << op.startStep << ' ' << op.endStep << ' ' << op.startOffsetNs << ' '
       << op.delayNs << ' ' << op.latency << '\n';
}

Schedule readSchedule(txt::Reader& in) {
  in.expect("schedule");
  Schedule s;
  const auto numOps = in.readCount("schedule op count");
  s.numSteps = in.read<std::uint32_t>("schedule numSteps");
  s.totalLatency = in.read<std::uint64_t>("schedule totalLatency");
  s.estimatedClockNs = in.read<double>("schedule estimatedClockNs");
  s.ops.reserve(numOps);
  for (std::size_t i = 0; i < numOps; ++i) {
    OpSchedule op;
    op.startStep = in.read<std::uint32_t>("opschedule startStep");
    op.endStep = in.read<std::uint32_t>("opschedule endStep");
    op.startOffsetNs = in.read<double>("opschedule startOffsetNs");
    op.delayNs = in.read<double>("opschedule delayNs");
    op.latency = in.read<std::uint32_t>("opschedule latency");
    s.ops.push_back(op);
  }
  return s;
}

void writeBinding(std::ostream& os, const Binding& b) {
  os << "binding " << b.fus.size() << '\n';
  for (const FuInstance& fu : b.fus) {
    os << static_cast<unsigned>(fu.opcode) << ' ' << fu.width << ' ';
    txt::writeVec(os, fu.ops);
    os << ' ';
    writeResource(os, fu.unitRes);
    os << ' ';
    writeResource(os, fu.muxRes);
    os << ' ' << fu.muxCount << ' ' << fu.muxInputs << ' ';
    txt::writeStr(os, fu.callee);
    os << '\n';
  }
  os << "fuofop ";
  txt::writeVec(os, b.fuOfOp);
  os << '\n'
     << "sharing " << b.sharedUnits << ' ' << b.sharedOps << ' ';
  writeResource(os, b.totalMuxRes);
  os << ' ' << b.totalMuxCount << '\n';
}

Binding readBinding(txt::Reader& in) {
  in.expect("binding");
  Binding b;
  const auto numFus = in.readCount("binding fu count");
  b.fus.reserve(numFus);
  for (std::size_t i = 0; i < numFus; ++i) {
    FuInstance fu;
    const auto opcode = in.read<unsigned>("fu opcode");
    HCP_CHECK_MSG(opcode < ir::kNumOpcodes,
                  "fu opcode out of range: " << opcode);
    fu.opcode = static_cast<ir::Opcode>(opcode);
    fu.width = in.read<std::uint16_t>("fu width");
    fu.ops = in.readVec<ir::OpId>("fu ops");
    fu.unitRes = readResource(in);
    fu.muxRes = readResource(in);
    fu.muxCount = in.read<std::uint32_t>("fu muxCount");
    fu.muxInputs = in.read<std::uint32_t>("fu muxInputs");
    fu.callee = in.readStr("fu callee");
    b.fus.push_back(std::move(fu));
  }
  in.expect("fuofop");
  b.fuOfOp = in.readVec<std::uint32_t>("fuOfOp");
  in.expect("sharing");
  b.sharedUnits = in.read<std::size_t>("binding sharedUnits");
  b.sharedOps = in.read<std::size_t>("binding sharedOps");
  b.totalMuxRes = readResource(in);
  b.totalMuxCount = in.read<std::uint32_t>("binding totalMuxCount");
  return b;
}

void writeFunctionReport(std::ostream& os, const FunctionReport& r) {
  os << "report ";
  writeResource(os, r.fuRes);
  os << ' ';
  writeResource(os, r.regRes);
  os << ' ';
  writeResource(os, r.memRes);
  os << ' ';
  writeResource(os, r.muxRes);
  os << ' ';
  writeResource(os, r.calleeRes);
  os << ' ';
  writeResource(os, r.totalRes);
  os << ' ' << r.memory.words << ' ' << r.memory.banks << ' '
     << r.memory.bits << ' ' << r.memory.primitives << ' ' << r.mux.count
     << ' ';
  writeResource(os, r.mux.res);
  os << ' ' << r.mux.totalInputs << ' ' << r.mux.avgWidth << ' '
     << r.latency << ' ' << r.numSteps << ' ' << r.estimatedClockNs << ' '
     << r.targetClockNs << ' ' << r.clockUncertaintyNs << '\n';
}

FunctionReport readFunctionReport(txt::Reader& in) {
  in.expect("report");
  FunctionReport r;
  r.fuRes = readResource(in);
  r.regRes = readResource(in);
  r.memRes = readResource(in);
  r.muxRes = readResource(in);
  r.calleeRes = readResource(in);
  r.totalRes = readResource(in);
  r.memory.words = in.read<std::uint64_t>("report memory words");
  r.memory.banks = in.read<std::uint64_t>("report memory banks");
  r.memory.bits = in.read<std::uint64_t>("report memory bits");
  r.memory.primitives = in.read<std::uint64_t>("report memory primitives");
  r.mux.count = in.read<std::uint32_t>("report mux count");
  r.mux.res = readResource(in);
  r.mux.totalInputs = in.read<std::uint64_t>("report mux totalInputs");
  r.mux.avgWidth = in.read<double>("report mux avgWidth");
  r.latency = in.read<std::uint64_t>("report latency");
  r.numSteps = in.read<std::uint32_t>("report numSteps");
  r.estimatedClockNs = in.read<double>("report estimatedClockNs");
  r.targetClockNs = in.read<double>("report targetClockNs");
  r.clockUncertaintyNs = in.read<double>("report clockUncertaintyNs");
  return r;
}

}  // namespace

void writeDesign(std::ostream& os, const SynthesizedDesign& design) {
  txt::preparePrecision(os);
  os << "design\n";
  ir::writeModule(os, *design.module);
  writeScheduleConstraints(os, design.constraints);
  os << "functions " << design.functions.size() << '\n';
  for (const SynthesizedFunction& fn : design.functions) {
    os << "synthfn " << fn.functionIndex << '\n';
    writeSchedule(os, fn.schedule);
    writeBinding(os, fn.binding);
    fn.graph.write(os);
    writeFunctionReport(os, fn.report);
  }
}

SynthesizedDesign readDesign(txt::Reader& in) {
  in.expect("design");
  SynthesizedDesign design;
  design.module = ir::readModule(in);
  design.constraints = readScheduleConstraints(in);
  in.expect("functions");
  const auto numFunctions = in.readCount("synthfn count");
  design.functions.reserve(numFunctions);
  for (std::size_t i = 0; i < numFunctions; ++i) {
    SynthesizedFunction fn;
    in.expect("synthfn");
    fn.functionIndex = in.read<std::uint32_t>("synthfn index");
    HCP_CHECK_MSG(fn.functionIndex < design.module->numFunctions(),
                  "synthfn index " << fn.functionIndex
                                   << " out of range for module with "
                                   << design.module->numFunctions()
                                   << " functions");
    fn.schedule = readSchedule(in);
    fn.binding = readBinding(in);
    fn.graph = ir::DependencyGraph::read(
        in, design.module->function(fn.functionIndex));
    fn.report = readFunctionReport(in);
    design.functions.push_back(std::move(fn));
  }
  return design;
}

void writeDirectives(std::ostream& os, const DirectiveSet& dirs) {
  os << "directives " << dirs.all().size() << '\n';
  for (const auto& [fnName, fd] : dirs.all()) {
    txt::writeStr(os, fnName);
    os << ' ';
    txt::writeBool(os, fd.inlineFunction);
    os << " loops " << fd.loops.size();
    for (const auto& [loopName, ld] : fd.loops) {
      os << ' ';
      txt::writeStr(os, loopName);
      os << ' ' << ld.unrollFactor << ' ';
      txt::writeBool(os, ld.pipeline);
      os << ' ' << ld.initiationInterval;
    }
    os << " arrays " << fd.arrays.size();
    for (const auto& [arrayName, ad] : fd.arrays) {
      os << ' ';
      txt::writeStr(os, arrayName);
      os << ' ' << ad.partitionFactor << ' ';
      txt::writeBool(os, ad.complete);
    }
    os << '\n';
  }
}

}  // namespace hcp::hls
