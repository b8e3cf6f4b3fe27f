#include "fpga/router.hpp"

#include <algorithm>
#include <cmath>

#include "support/telemetry.hpp"

namespace hcp::fpga {

namespace {

struct Window {
  std::uint32_t x0, y0, x1, y1;
  bool contains(std::uint32_t x, std::uint32_t y) const {
    return x >= x0 && x <= x1 && y >= y0 && y <= y1;
  }
  std::uint32_t w() const { return x1 - x0 + 1; }
  std::uint32_t h() const { return y1 - y0 + 1; }
  std::size_t idx(std::uint32_t x, std::uint32_t y) const {
    return static_cast<std::size_t>(y - y0) * w() + (x - x0);
  }
};

class Router {
 public:
  Router(const Packing& packing, const Placement& placement,
         const Device& device, const RouterConfig& config)
      : packing_(packing), placement_(placement), device_(device),
        config_(config),
        map_(CongestionMap::forDevice(device)),
        vHistory_(device.numTiles(), 0.0),
        hHistory_(device.numTiles(), 0.0) {}

  RoutingResult run() {
    routes_.resize(packing_.nets.size());
    double presentFactor = 0.6;

    int iter = 0;
    for (; iter < config_.maxIterations; ++iter) {
      // Decide which nets to (re)route this round.
      work_.clear();
      for (std::size_t n = 0; n < packing_.nets.size(); ++n) {
        if (iter == 0 || routeOverflows(n)) work_.push_back(n);
      }
      if (work_.empty()) break;

      for (std::size_t n : work_) {
        if (!routes_[n].empty()) ++ripUps_;
        ripUp(n);
        routeNet(n, presentFactor);
      }

      // Accumulate history on overflowed segments.
      bool anyOverflow = false;
      std::uint64_t overflowTilesThisIter = 0;
      for (std::uint32_t y = 0; y < device_.height(); ++y) {
        for (std::uint32_t x = 0; x < device_.width(); ++x) {
          const std::size_t i = device_.index(x, y);
          const double vOver = map_.vDemand(x, y) - map_.vCapAt(x, y);
          const double hOver = map_.hDemand(x, y) - map_.hCapAt(x, y);
          if (vOver > 0) {
            vHistory_[i] += config_.historyGain * vOver / map_.vCapAt(x, y);
            anyOverflow = true;
          }
          if (hOver > 0) {
            hHistory_[i] += config_.historyGain * hOver / map_.hCapAt(x, y);
            anyOverflow = true;
          }
          if (vOver > 0 || hOver > 0) ++overflowTilesThisIter;
        }
      }
      support::telemetry::observe(
          support::telemetry::Histogram::RouterOverflowTilesPerIter,
          static_cast<double>(overflowTilesThisIter));
      presentFactor *= config_.presentFactorGrowth;
      if (!anyOverflow) {
        ++iter;
        break;
      }
    }

    RoutingResult result{std::move(map_), std::move(routes_), 0.0, 0, iter};
    for (std::size_t n = 0; n < packing_.nets.size(); ++n)
      result.totalWirelength +=
          static_cast<double>(packing_.nets[n].width) *
          static_cast<double>(result.routes[n].size());
    result.overflowTiles = result.map.tilesOver(100.0);
    namespace tm = support::telemetry;
    tm::count(tm::Counter::RouterIterations, static_cast<std::uint64_t>(iter));
    tm::count(tm::Counter::RouterRipUps, ripUps_);
    tm::count(tm::Counter::RouterOverflowTiles, result.overflowTiles);
    return result;
  }

 private:
  bool routeOverflows(std::size_t n) const {
    for (const RouteStep& s : routes_[n]) {
      if (s.vertical) {
        if (map_.vDemand(s.x, s.y) > map_.vCapAt(s.x, s.y)) return true;
      } else {
        if (map_.hDemand(s.x, s.y) > map_.hCapAt(s.x, s.y)) return true;
      }
    }
    return false;
  }

  void ripUp(std::size_t n) {
    const double w = packing_.nets[n].width;
    for (const RouteStep& s : routes_[n]) {
      if (s.vertical) map_.removeVertical(s.x, s.y, w);
      else map_.removeHorizontal(s.x, s.y, w);
    }
    routes_[n].clear();
  }

  /// Cost of taking one step through (x,y) in the given orientation.
  double stepCost(std::uint32_t x, std::uint32_t y, bool vertical,
                  double width, double presentFactor) const {
    const std::size_t i = device_.index(x, y);
    const double cap = vertical ? map_.vCapAt(x, y) : map_.hCapAt(x, y);
    const double demand =
        (vertical ? map_.vDemand(x, y) : map_.hDemand(x, y)) + width;
    const double hist = vertical ? vHistory_[i] : hHistory_[i];
    double cost = 1.0 + hist;
    if (demand > cap) cost += presentFactor * (demand - cap) / cap;
    return cost;
  }

  void routeNet(std::size_t n, double presentFactor) {
    const ClusterNet& net = packing_.nets[n];
    const TileXY src = placement_.tileOfCluster[net.driver];

    // Sinks ordered by distance from the driver.
    sinks_.clear();
    for (ClusterId s : net.sinks) sinks_.push_back(placement_.tileOfCluster[s]);
    std::sort(sinks_.begin(), sinks_.end(), [&](TileXY a, TileXY b) {
      const auto da = Device::manhattan(src.x, src.y, a.x, a.y);
      const auto db = Device::manhattan(src.x, src.y, b.x, b.y);
      return da < db || (da == db && (a.x != b.x ? a.x < b.x : a.y < b.y));
    });

    // Window: bbox of all terminals plus margin.
    std::uint32_t x0 = src.x, x1 = src.x, y0 = src.y, y1 = src.y;
    for (const TileXY& s : sinks_) {
      x0 = std::min(x0, s.x);
      x1 = std::max(x1, s.x);
      y0 = std::min(y0, s.y);
      y1 = std::max(y1, s.y);
    }
    const auto m = static_cast<std::uint32_t>(config_.bboxMargin);
    Window win{
        x0 > m ? x0 - m : 0, y0 > m ? y0 - m : 0,
        std::min(device_.width() - 1, x1 + m),
        std::min(device_.height() - 1, y1 + m)};

    // Search state is reused across sinks and nets: the arrays only ever
    // grow to the largest window seen, per-sink invalidation is one epoch
    // bump (dist entries from older epochs read as +inf), and the open
    // list keeps its heap storage. This removes the per-sink O(window)
    // allocate+fill churn the original router paid.
    const std::size_t tiles = static_cast<std::size_t>(win.w()) * win.h();
    if (dist_.size() < tiles) {
      dist_.resize(tiles);
      from_.resize(tiles);
      stamp_.resize(tiles, 0);
    }

    // Tree membership per window tile (per-net, so a plain refill).
    inTree_.assign(tiles, false);
    inTree_[win.idx(src.x, src.y)] = true;

    for (const TileXY& sink : sinks_) {
      if (inTree_[win.idx(sink.x, sink.y)]) continue;
      connectSink(n, sink, win, presentFactor);
    }
  }

  /// A* from `sink` to the nearest tree tile; adds the path to the tree and
  /// charges demand.
  void connectSink(std::size_t n, TileXY sink, const Window& win,
                   double presentFactor) {
    const double width = packing_.nets[n].width;
    ++epoch_;
    const auto distAt = [&](std::size_t i) {
      return stamp_[i] == epoch_ ? dist_[i]
                                 : std::numeric_limits<double>::infinity();
    };

    // Min-heap via push_heap/pop_heap on a reused vector — the exact
    // algorithm std::priority_queue runs, so pop order (ties included) is
    // identical; unlike priority_queue the storage survives clear().
    using QE = std::pair<double, std::uint32_t>;  // (cost, window index)
    heap_.clear();
    const auto push = [&](double c, std::uint32_t i) {
      heap_.emplace_back(c, i);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<QE>{});
    };
    const std::size_t start = win.idx(sink.x, sink.y);
    dist_[start] = 0.0;
    stamp_[start] = epoch_;
    push(0.0, static_cast<std::uint32_t>(start));

    std::size_t goal = std::numeric_limits<std::size_t>::max();
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<QE>{});
      const auto [d, ui] = heap_.back();
      heap_.pop_back();
      if (d > distAt(ui)) continue;
      if (inTree_[ui]) {
        goal = ui;
        break;
      }
      const std::uint32_t ux = win.x0 + ui % win.w();
      const std::uint32_t uy = win.y0 + ui / win.w();
      struct Dir {
        std::int32_t dx, dy;
        std::int8_t code;
        bool vertical;
      };
      static constexpr Dir dirs[4] = {
          {-1, 0, 0, false}, {1, 0, 1, false}, {0, -1, 2, true},
          {0, 1, 3, true}};
      for (const Dir& dir : dirs) {
        const std::int64_t nx = static_cast<std::int64_t>(ux) + dir.dx;
        const std::int64_t ny = static_cast<std::int64_t>(uy) + dir.dy;
        if (nx < win.x0 || ny < win.y0 || nx > win.x1 || ny > win.y1)
          continue;
        // Charge the channel of the tile being *left* — a step from u to v
        // consumes u's channel segment in that orientation.
        const double c =
            d + stepCost(ux, uy, dir.vertical, width, presentFactor);
        const std::size_t vi =
            win.idx(static_cast<std::uint32_t>(nx),
                    static_cast<std::uint32_t>(ny));
        if (c < distAt(vi)) {
          dist_[vi] = c;
          stamp_[vi] = epoch_;
          from_[vi] = dir.code;
          push(c, static_cast<std::uint32_t>(vi));
        }
      }
    }
    HCP_CHECK_MSG(goal != std::numeric_limits<std::size_t>::max(),
                  "router: sink unreachable (window too small?)");

    // Walk back from the tree hit to the sink, marking tree tiles and
    // charging demand. The path was searched sink->tree, so we retrace using
    // the arrival directions.
    std::size_t cur = goal;
    while (cur != start) {
      inTree_[cur] = true;
      const std::uint32_t cx = win.x0 + cur % win.w();
      const std::uint32_t cy = win.y0 + cur / win.w();
      const std::int8_t code = from_[cur];
      // Invert the step to find the predecessor (closer to the sink).
      std::uint32_t px = cx, py = cy;
      bool vertical = false;
      switch (code) {
        case 0: px = cx + 1; vertical = false; break;  // arrived going west
        case 1: px = cx - 1; vertical = false; break;
        case 2: py = cy + 1; vertical = true; break;
        case 3: py = cy - 1; vertical = true; break;
        default: HCP_CHECK_MSG(false, "router: broken backtrace");
      }
      // The step px/py -> cx/cy consumed the channel at (px, py).
      routes_[n].push_back(RouteStep{px, py, vertical});
      if (vertical) map_.addVertical(px, py, packing_.nets[n].width);
      else map_.addHorizontal(px, py, packing_.nets[n].width);
      cur = win.idx(px, py);
    }
    inTree_[start] = true;
  }

  const Packing& packing_;
  const Placement& placement_;
  const Device& device_;
  const RouterConfig& config_;
  CongestionMap map_;
  std::vector<double> vHistory_, hHistory_;
  std::vector<std::vector<RouteStep>> routes_;
  std::uint64_t ripUps_ = 0;

  // Reused per-iteration / per-net / per-sink scratch (see routeNet).
  std::vector<std::size_t> work_;
  std::vector<TileXY> sinks_;
  std::vector<bool> inTree_;
  std::vector<double> dist_;
  std::vector<std::int8_t> from_;  // 0=W,1=E,2=S,3=N arrival dir
  std::vector<std::uint64_t> stamp_;
  std::uint64_t epoch_ = 0;
  std::vector<std::pair<double, std::uint32_t>> heap_;
};

}  // namespace

RoutingResult route(const Packing& packing, const Placement& placement,
                    const Device& device, const RouterConfig& config) {
  HCP_SPAN("route");
  Router router(packing, placement, device, config);
  return router.run();
}

CongestionMap estimateRudy(const Packing& packing,
                           const Placement& placement,
                           const Device& device) {
  CongestionMap map = CongestionMap::forDevice(device);
  for (const ClusterNet& net : packing.nets) {
    const TileXY d = placement.tileOfCluster[net.driver];
    std::uint32_t x0 = d.x, x1 = d.x, y0 = d.y, y1 = d.y;
    for (ClusterId s : net.sinks) {
      const TileXY p = placement.tileOfCluster[s];
      x0 = std::min(x0, p.x);
      x1 = std::max(x1, p.x);
      y0 = std::min(y0, p.y);
      y1 = std::max(y1, p.y);
    }
    const double w = (x1 - x0) + 1.0;
    const double h = (y1 - y0) + 1.0;
    // RUDY: wirelength smeared uniformly over the bbox; horizontal demand
    // proportional to the net's x-span, vertical to its y-span.
    const double hDemandPerTile =
        static_cast<double>(net.width) * (w - 1.0) / (w * h);
    const double vDemandPerTile =
        static_cast<double>(net.width) * (h - 1.0) / (w * h);
    for (std::uint32_t y = y0; y <= y1; ++y) {
      for (std::uint32_t x = x0; x <= x1; ++x) {
        if (hDemandPerTile > 0) map.addHorizontal(x, y, hDemandPerTile);
        if (vDemandPerTile > 0) map.addVertical(x, y, vDemandPerTile);
      }
    }
  }
  return map;
}

}  // namespace hcp::fpga
