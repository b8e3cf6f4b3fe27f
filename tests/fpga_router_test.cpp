#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "fpga/router.hpp"

namespace hcp::fpga {
namespace {

/// Manual packing/placement of point-to-point nets for routing tests.
struct Fixture {
  Packing packing;
  Placement placement;

  ClusterId addClusterAt(std::uint32_t x, std::uint32_t y) {
    Cluster c;
    c.site = TileType::Clb;
    packing.clusters.push_back(c);
    placement.tileOfCluster.push_back({x, y});
    return static_cast<ClusterId>(packing.clusters.size() - 1);
  }

  void addNet(ClusterId from, std::vector<ClusterId> to,
              std::uint16_t width) {
    ClusterNet net;
    net.width = width;
    net.driver = from;
    net.sinks = std::move(to);
    packing.nets.push_back(std::move(net));
  }
};

TEST(Router, RouteLengthIsManhattanWhenUncongested) {
  Fixture f;
  const auto a = f.addClusterAt(10, 10);
  const auto b = f.addClusterAt(25, 30);
  f.addNet(a, {b}, 8);
  const Device dev = Device::xc7z020like();
  const auto result = route(f.packing, f.placement, dev, {});
  EXPECT_EQ(result.routes[0].size(), 15u + 20u);
  EXPECT_EQ(result.overflowTiles, 0u);
}

TEST(Router, DemandEqualsWidthAlongRoute) {
  Fixture f;
  const auto a = f.addClusterAt(10, 10);
  const auto b = f.addClusterAt(20, 10);  // pure horizontal
  f.addNet(a, {b}, 12);
  const Device dev = Device::xc7z020like();
  const auto result = route(f.packing, f.placement, dev, {});
  double totalH = 0.0;
  for (std::uint32_t x = 0; x < dev.width(); ++x)
    for (std::uint32_t y = 0; y < dev.height(); ++y)
      totalH += result.map.hDemand(x, y);
  EXPECT_DOUBLE_EQ(totalH, 12.0 * 10.0);
}

TEST(Router, MultiTerminalTreeSharesTrunk) {
  Fixture f;
  const auto src = f.addClusterAt(10, 40);
  const auto s1 = f.addClusterAt(40, 40);
  const auto s2 = f.addClusterAt(40, 42);
  f.addNet(src, {s1, s2}, 8);
  const Device dev = Device::xc7z020like();
  const auto result = route(f.packing, f.placement, dev, {});
  // A Steiner-ish tree is far shorter than two independent routes
  // (2 x 30ish); the shared trunk means total ~32-40 steps.
  EXPECT_LT(result.routes[0].size(), 45u);
  EXPECT_GE(result.routes[0].size(), 32u);
}

TEST(Router, NegotiationSpreadsOverflow) {
  // Many wide nets crossing the same corridor.
  Fixture f;
  const Device dev = Device::xc7z020like();
  for (int i = 0; i < 12; ++i) {
    const auto a = f.addClusterAt(20, 38 + (i % 3));
    const auto b = f.addClusterAt(50, 38 + (i % 3));
    f.addNet(a, {b}, 24);
  }
  RouterConfig oneShot;
  oneShot.maxIterations = 1;
  RouterConfig negotiated;
  negotiated.maxIterations = 8;
  negotiated.bboxMargin = 12;
  const auto first = route(f.packing, f.placement, dev, oneShot);
  const auto final = route(f.packing, f.placement, dev, negotiated);
  EXPECT_LE(final.map.maxHUtil(), first.map.maxHUtil());
}

TEST(Router, DeterministicResults) {
  Fixture f;
  hcp::Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    const auto a = f.addClusterAt(5 + rng.uniformInt(60),
                                  5 + rng.uniformInt(60));
    const auto b = f.addClusterAt(5 + rng.uniformInt(60),
                                  5 + rng.uniformInt(60));
    f.addNet(a, {b}, 8);
  }
  const Device dev = Device::xc7z020like();
  const auto r1 = route(f.packing, f.placement, dev, {});
  const auto r2 = route(f.packing, f.placement, dev, {});
  ASSERT_EQ(r1.routes.size(), r2.routes.size());
  for (std::size_t n = 0; n < r1.routes.size(); ++n)
    EXPECT_EQ(r1.routes[n].size(), r2.routes[n].size());
  EXPECT_DOUBLE_EQ(r1.totalWirelength, r2.totalWirelength);
}

TEST(Router, UtilizationAccountsCapacityBoost) {
  // Same demand on a boosted tile (next to a DSP column) yields lower
  // utilization than on a plain tile.
  const Device dev = Device::xc7z020like();
  CongestionMap map = CongestionMap::forDevice(dev);
  map.addHorizontal(19, 10, 20.0);  // boosted (next to x=18 DSP column)
  map.addHorizontal(13, 10, 20.0);  // plain
  EXPECT_LT(map.hUtil(19, 10), map.hUtil(13, 10));
}

TEST(Router, RudyEstimateCoversBbox) {
  Fixture f;
  const auto a = f.addClusterAt(10, 10);
  const auto b = f.addClusterAt(20, 20);
  f.addNet(a, {b}, 10);
  const Device dev = Device::xc7z020like();
  const auto rudy = estimateRudy(f.packing, f.placement, dev);
  // Demand present inside the bbox, absent outside.
  EXPECT_GT(rudy.hDemand(15, 15), 0.0);
  EXPECT_DOUBLE_EQ(rudy.hDemand(50, 50), 0.0);
}

TEST(CongestionMapTest, SmoothingPreservesTotalDemand) {
  CongestionMap map(20, 20, 10, 10);
  map.addHorizontal(10, 10, 100.0);
  const auto smooth = map.smoothed(2);
  double before = 0.0, after = 0.0;
  for (std::uint32_t y = 0; y < 20; ++y)
    for (std::uint32_t x = 0; x < 20; ++x) {
      before += map.hDemand(x, y);
      after += smooth.hDemand(x, y);
    }
  // Interior blur preserves mass up to boundary effects.
  EXPECT_NEAR(after, before, before * 0.05);
  EXPECT_LT(smooth.hDemand(10, 10), map.hDemand(10, 10));
  EXPECT_GT(smooth.hDemand(12, 10), 0.0);
}

TEST(CongestionMapTest, TilesOverThreshold) {
  CongestionMap map(8, 8, 10, 10);
  map.addVertical(2, 2, 15.0);   // 150%
  map.addHorizontal(3, 3, 9.0);  // 90%
  EXPECT_EQ(map.tilesOver(100.0), 1u);
  EXPECT_EQ(map.tilesOver(80.0), 2u);
}

TEST(CongestionMapTest, AsciiArtBuckets) {
  CongestionMap map(4, 4, 10, 10);
  map.addVertical(0, 3, 12.0);  // >=100% -> '@' (top-left in output)
  const std::string art = map.toAscii(true);
  EXPECT_EQ(art[0], '@');
  EXPECT_NE(art.find('.'), std::string::npos);
}

TEST(CongestionMapTest, CsvHasHeaderAndRows) {
  CongestionMap map(2, 2, 10, 10);
  const std::string csv = map.toCsv();
  EXPECT_EQ(csv.rfind("x,y,v_util,h_util", 0), 0u);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);
}

}  // namespace
}  // namespace hcp::fpga
