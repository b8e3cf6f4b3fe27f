#include "core/flow_serialize.hpp"

#include <sstream>

#include "fpga/serialize.hpp"
#include "hls/serialize.hpp"
#include "ir/serialize.hpp"
#include "rtl/serialize.hpp"
#include "support/flowcache.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"
#include "support/textio.hpp"
#include "trace/serialize.hpp"

namespace hcp::core {

namespace txt = support::txt;

void writeFlowResult(std::ostream& os, const FlowResult& result) {
  txt::preparePrecision(os);
  os << "hcp-flowresult " << support::flowcache::kSchemaVersion << '\n';
  os << "name ";
  txt::writeStr(os, result.name);
  os << '\n';
  hls::writeDesign(os, result.design);
  rtl::writeGeneratedRtl(os, result.rtl);
  fpga::writeImplementation(os, result.impl);
  trace::writeBackTrace(os, result.traced);
  os << "headline " << result.wnsNs << ' ' << result.maxFrequencyMhz << ' '
     << result.latencyCycles << ' ' << result.maxVCongestion << ' '
     << result.maxHCongestion << ' ' << result.congestedTiles << '\n';
  os << "end\n";
}

FlowResult readFlowResult(std::string_view text) {
  txt::Reader in(text);
  in.expect("hcp-flowresult");
  const auto version = in.read<std::uint32_t>("flow-result version");
  HCP_CHECK_MSG(version == support::flowcache::kSchemaVersion,
                "flow-result schema " << version << ", expected "
                                      << support::flowcache::kSchemaVersion);
  FlowResult result;
  in.expect("name");
  result.name = in.readStr("flow-result name");
  result.design = hls::readDesign(in);
  result.rtl = rtl::readGeneratedRtl(in);
  result.impl = fpga::readImplementation(in);
  result.traced = trace::readBackTrace(in);
  in.expect("headline");
  result.wnsNs = in.read<double>("headline wnsNs");
  result.maxFrequencyMhz = in.read<double>("headline maxFrequencyMhz");
  result.latencyCycles = in.read<std::uint64_t>("headline latencyCycles");
  result.maxVCongestion = in.read<double>("headline maxVCongestion");
  result.maxHCongestion = in.read<double>("headline maxHCongestion");
  result.congestedTiles = in.read<std::size_t>("headline congestedTiles");
  in.expect("end");
  in.expectEnd("flow result");
  support::telemetry::count(support::telemetry::Counter::FlowBytesParsed,
                            text.size());
  return result;
}

FlowResult readFlowResult(std::istream& is) {
  return readFlowResult(readAll(is));
}

std::string flowCacheKey(const apps::AppDesign& app,
                         const fpga::Device& device,
                         const FlowConfig& config) {
  // Canonical text of the structured inputs; hashing the same writers the
  // cache payload uses keeps the key in lockstep with the formats.
  std::ostringstream canon;
  ir::writeModule(canon, *app.module);
  hls::writeDirectives(canon, app.directives);
  hls::writeScheduleConstraints(canon, config.synthesis.schedule);
  fpga::writeParConfig(canon, config.par);
  fpga::writeDeviceFingerprint(canon, device);

  support::flowcache::Fnv1a h;
  h.u64(support::flowcache::kSchemaVersion)
      .str(app.name)
      .str(canon.str())
      .u64(config.synthesis.bind.maxGroupSize)
      .u64(config.synthesis.bind.shareInPipelinedLoops ? 1 : 0)
      .u64(config.synthesis.runFrontendPasses ? 1 : 0)
      .u64(config.seed);
  return h.hex();
}

}  // namespace hcp::core
