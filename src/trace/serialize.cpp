#include "trace/serialize.hpp"

#include "support/textio.hpp"

namespace hcp::trace {

namespace txt = support::txt;

void writeBackTrace(std::ostream& os, const BackTraceResult& traced) {
  txt::preparePrecision(os);
  os << "trace " << traced.samples.size() << ' ' << traced.cellsTraced << ' '
     << traced.cellsWithoutOps << '\n';
  for (const Sample& s : traced.samples) {
    os << s.functionIndex << ' ' << s.instance << ' ' << s.op << ' '
       << s.originOp << ' ' << s.sourceLine << ' ' << s.vCongestion << ' '
       << s.hCongestion << ' ' << s.avgCongestion << ' ' << s.centreRadius
       << ' ' << s.numCells << ' ';
    txt::writeBool(os, s.marginal);
    os << '\n';
  }
}

BackTraceResult readBackTrace(txt::Reader& in) {
  in.expect("trace");
  BackTraceResult traced;
  const auto numSamples = in.readCount("trace sample count");
  traced.cellsTraced = in.read<std::size_t>("trace cellsTraced");
  traced.cellsWithoutOps = in.read<std::size_t>("trace cellsWithoutOps");
  traced.samples.reserve(numSamples);
  for (std::size_t i = 0; i < numSamples; ++i) {
    Sample s;
    s.functionIndex = in.read<std::uint32_t>("sample functionIndex");
    s.instance = in.read<rtl::InstanceId>("sample instance");
    s.op = in.read<ir::OpId>("sample op");
    s.originOp = in.read<ir::OpId>("sample originOp");
    s.sourceLine = in.read<std::int32_t>("sample sourceLine");
    s.vCongestion = in.read<double>("sample vCongestion");
    s.hCongestion = in.read<double>("sample hCongestion");
    s.avgCongestion = in.read<double>("sample avgCongestion");
    s.centreRadius = in.read<double>("sample centreRadius");
    s.numCells = in.read<std::size_t>("sample numCells");
    s.marginal = in.readBool("sample marginal");
    traced.samples.push_back(s);
  }
  return traced;
}

}  // namespace hcp::trace
