#include "fpga/serialize.hpp"

#include "support/textio.hpp"

namespace hcp::fpga {

namespace txt = support::txt;

// --- CongestionMap (declared in fpga/congestion.hpp) ------------------------

void CongestionMap::write(std::ostream& os) const {
  txt::preparePrecision(os);
  os << "congestion " << width_ << ' ' << height_ << ' ' << vCap_ << ' '
     << hCap_ << '\n';
  os << "vdemand ";
  txt::writeVec(os, vDemand_);
  os << "\nhdemand ";
  txt::writeVec(os, hDemand_);
  os << "\nvcaptile ";
  txt::writeVec(os, vCapTile_);
  os << "\nhcaptile ";
  txt::writeVec(os, hCapTile_);
  os << '\n';
}

CongestionMap CongestionMap::read(txt::Reader& in) {
  in.expect("congestion");
  // Fields are assigned directly rather than through the sizing
  // constructor: a corrupt width or height is caught by the vector-size
  // check below, before anything is allocated for it.
  CongestionMap map;
  map.width_ = in.read<std::uint32_t>("congestion width");
  map.height_ = in.read<std::uint32_t>("congestion height");
  map.vCap_ = in.read<double>("congestion vCap");
  map.hCap_ = in.read<double>("congestion hCap");
  const std::size_t tiles = static_cast<std::size_t>(map.width_) * map.height_;
  in.expect("vdemand");
  map.vDemand_ = in.readVec<double>("congestion vDemand");
  in.expect("hdemand");
  map.hDemand_ = in.readVec<double>("congestion hDemand");
  in.expect("vcaptile");
  map.vCapTile_ = in.readVec<double>("congestion vCapTile");
  in.expect("hcaptile");
  map.hCapTile_ = in.readVec<double>("congestion hCapTile");
  HCP_CHECK_MSG(map.vDemand_.size() == tiles &&
                    map.hDemand_.size() == tiles &&
                    (map.vCapTile_.empty() || map.vCapTile_.size() == tiles) &&
                    (map.hCapTile_.empty() || map.hCapTile_.size() == tiles),
                "congestion map dimensions do not match its vectors");
  return map;
}

// --- Implementation ---------------------------------------------------------

void writeImplementation(std::ostream& os, const Implementation& impl) {
  txt::preparePrecision(os);
  os << "impl\nclusters " << impl.packing.clusters.size() << '\n';
  for (const Cluster& c : impl.packing.clusters) {
    os << static_cast<unsigned>(c.site) << ' ';
    txt::writeVec(os, c.cells);
    os << ' ' << c.lut << ' ' << c.ff << ' ' << c.dsp << ' ' << c.bram << ' '
       << c.part << '\n';
  }
  os << "clusternets " << impl.packing.nets.size() << '\n';
  for (const ClusterNet& n : impl.packing.nets) {
    os << n.source << ' ' << n.width << ' ' << n.driver << ' ';
    txt::writeVec(os, n.sinks);
    os << '\n';
  }
  os << "clustersofcell " << impl.packing.clustersOfCell.size() << '\n';
  for (const auto& clusters : impl.packing.clustersOfCell) {
    txt::writeVec(os, clusters);
    os << '\n';
  }
  os << "placement " << impl.placement.tileOfCluster.size() << '\n';
  for (const TileXY& t : impl.placement.tileOfCluster)
    os << t.x << ' ' << t.y << '\n';
  os << "placestats " << impl.placement.cost << ' '
     << impl.placement.movesAccepted << ' ' << impl.placement.movesTried
     << '\n';
  impl.routing.map.write(os);
  os << "routes " << impl.routing.routes.size() << '\n';
  for (const auto& route : impl.routing.routes) {
    os << route.size();
    for (const RouteStep& s : route) {
      os << ' ' << s.x << ' ' << s.y << ' ';
      txt::writeBool(os, s.vertical);
    }
    os << '\n';
  }
  os << "routestats " << impl.routing.totalWirelength << ' '
     << impl.routing.overflowTiles << ' ' << impl.routing.iterationsRun
     << '\n';
  os << "timing " << impl.timing.criticalPathNs << ' ' << impl.timing.wnsNs
     << ' ' << impl.timing.maxFrequencyMhz << ' '
     << impl.timing.combinationalCycleCells << ' '
     << impl.timing.criticalNet << '\n';
}

Implementation readImplementation(txt::Reader& in) {
  in.expect("impl");
  Implementation impl;
  in.expect("clusters");
  const auto numClusters = in.readCount("cluster count");
  impl.packing.clusters.reserve(numClusters);
  for (std::size_t i = 0; i < numClusters; ++i) {
    Cluster c;
    const auto site = in.read<unsigned>("cluster site");
    HCP_CHECK_MSG(site <= static_cast<unsigned>(TileType::Io),
                  "cluster site out of range: " << site);
    c.site = static_cast<TileType>(site);
    c.cells = in.readVec<rtl::CellId>("cluster cells");
    c.lut = in.read<double>("cluster lut");
    c.ff = in.read<double>("cluster ff");
    c.dsp = in.read<double>("cluster dsp");
    c.bram = in.read<double>("cluster bram");
    c.part = in.read<std::uint32_t>("cluster part");
    impl.packing.clusters.push_back(std::move(c));
  }
  in.expect("clusternets");
  const auto numNets = in.readCount("cluster net count");
  impl.packing.nets.reserve(numNets);
  for (std::size_t i = 0; i < numNets; ++i) {
    ClusterNet n;
    n.source = in.read<rtl::NetId>("cluster net source");
    n.width = in.read<std::uint16_t>("cluster net width");
    n.driver = in.read<ClusterId>("cluster net driver");
    n.sinks = in.readVec<ClusterId>("cluster net sinks");
    impl.packing.nets.push_back(std::move(n));
  }
  in.expect("clustersofcell");
  const auto numCells = in.readCount("clustersOfCell count");
  impl.packing.clustersOfCell.reserve(numCells);
  for (std::size_t i = 0; i < numCells; ++i)
    impl.packing.clustersOfCell.push_back(
        in.readVec<ClusterId>("clustersOfCell"));
  in.expect("placement");
  const auto numPlaced = in.readCount("placement count");
  HCP_CHECK_MSG(numPlaced == numClusters,
                "placement covers " << numPlaced << " clusters, packing has "
                                    << numClusters);
  impl.placement.tileOfCluster.reserve(numPlaced);
  for (std::size_t i = 0; i < numPlaced; ++i) {
    TileXY t;
    t.x = in.read<std::uint32_t>("placement x");
    t.y = in.read<std::uint32_t>("placement y");
    impl.placement.tileOfCluster.push_back(t);
  }
  in.expect("placestats");
  impl.placement.cost = in.read<double>("placement cost");
  impl.placement.movesAccepted =
      in.read<std::uint64_t>("placement movesAccepted");
  impl.placement.movesTried = in.read<std::uint64_t>("placement movesTried");
  impl.routing.map = CongestionMap::read(in);
  in.expect("routes");
  const auto numRoutes = in.readCount("route count");
  impl.routing.routes.reserve(numRoutes);
  for (std::size_t i = 0; i < numRoutes; ++i) {
    const auto numSteps = in.readCount("route step count");
    std::vector<RouteStep> route;
    route.reserve(numSteps);
    for (std::size_t s = 0; s < numSteps; ++s) {
      RouteStep step;
      step.x = in.read<std::uint32_t>("route step x");
      step.y = in.read<std::uint32_t>("route step y");
      step.vertical = in.readBool("route step vertical");
      route.push_back(step);
    }
    impl.routing.routes.push_back(std::move(route));
  }
  in.expect("routestats");
  impl.routing.totalWirelength = in.read<double>("routing totalWirelength");
  impl.routing.overflowTiles = in.read<std::size_t>("routing overflowTiles");
  impl.routing.iterationsRun = in.read<int>("routing iterationsRun");
  in.expect("timing");
  impl.timing.criticalPathNs = in.read<double>("timing criticalPathNs");
  impl.timing.wnsNs = in.read<double>("timing wnsNs");
  impl.timing.maxFrequencyMhz = in.read<double>("timing maxFrequencyMhz");
  impl.timing.combinationalCycleCells =
      in.read<std::size_t>("timing combinationalCycleCells");
  impl.timing.criticalNet = in.read<rtl::NetId>("timing criticalNet");
  return impl;
}

// --- Key inputs -------------------------------------------------------------

void writeDeviceFingerprint(std::ostream& os, const Device& device) {
  txt::preparePrecision(os);
  const Device::Config& c = device.config();
  os << "device ";
  txt::writeStr(os, c.name);
  os << ' ' << c.width << ' ' << c.height << " dsp ";
  txt::writeVec(os, c.dspColumns);
  os << " bram ";
  txt::writeVec(os, c.bramColumns);
  os << ' ' << c.lutPerClb << ' ' << c.ffPerClb << ' ' << c.dspPerTile << ' '
     << c.bramPerTile << ' ' << c.vTracks << ' ' << c.hTracks << '\n';
}

void writeParConfig(std::ostream& os, const ParConfig& config) {
  txt::preparePrecision(os);
  os << "parconfig " << config.placer.seed << ' ' << config.placer.effort
     << ' ' << config.placer.coolingRate << ' ' << config.placer.stopFraction
     << ' ' << config.placer.regionSize << ' '
     << config.placer.supplyFraction << ' ' << config.placer.densityWeight
     << ' ' << config.router.maxIterations << ' '
     << config.router.historyGain << ' '
     << config.router.presentFactorGrowth << ' ' << config.router.bboxMargin
     << ' ' << config.timing.targetClockNs << ' '
     << config.timing.clockUncertaintyNs << ' '
     << config.timing.netBaseDelayNs << ' ' << config.timing.perTileDelayNs
     << ' ' << config.timing.congestionPenaltyNs << ' '
     << config.timing.maxOverflowFraction << ' ' << config.timing.setupNs
     << '\n';
}

}  // namespace hcp::fpga
