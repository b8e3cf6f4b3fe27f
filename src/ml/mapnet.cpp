#include "ml/mapnet.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/telemetry.hpp"
#include "support/textio.hpp"

namespace hcp::ml {

namespace txt = support::txt;

namespace {

using Plane = std::vector<double>;
using Planes = std::vector<Plane>;

/// 3x3 cross-correlation with zero padding. Weight layout is
/// w[(oc*cin + ic)*9 + ky*3 + kx]. Each output channel is computed by one
/// task that sums taps in a fixed pixel order, so the result is
/// bit-identical at any thread count.
void conv3x3Forward(const Planes& in, const std::vector<double>& w,
                    const std::vector<double>& b, std::size_t cout,
                    std::uint32_t width, std::uint32_t height, Planes& out) {
  const std::size_t cin = in.size();
  const std::size_t n = static_cast<std::size_t>(width) * height;
  out.resize(cout);
  support::parallelFor(0, cout, 1, [&](std::size_t oc) {
    Plane& o = out[oc];
    o.assign(n, b[oc]);
    for (std::size_t ic = 0; ic < cin; ++ic) {
      const Plane& x = in[ic];
      const double* tap = &w[(oc * cin + ic) * 9];
      for (std::uint32_t y = 0; y < height; ++y) {
        for (std::uint32_t xx = 0; xx < width; ++xx) {
          double s = 0.0;
          for (int ky = 0; ky < 3; ++ky) {
            const int sy = static_cast<int>(y) + ky - 1;
            if (sy < 0 || sy >= static_cast<int>(height)) continue;
            for (int kx = 0; kx < 3; ++kx) {
              const int sx = static_cast<int>(xx) + kx - 1;
              if (sx < 0 || sx >= static_cast<int>(width)) continue;
              s += tap[ky * 3 + kx] *
                   x[static_cast<std::size_t>(sy) * width + sx];
            }
          }
          o[static_cast<std::size_t>(y) * width + xx] += s;
        }
      }
    }
  });
}

/// dW for the 3x3 correlation: gw[(oc*cin+ic)*9+k] = sum_p dZ[oc][p] *
/// X[ic][p shifted by k]. One task per output channel, fixed inner order.
void conv3x3GradW(const Planes& in, const Planes& dz, std::size_t cout,
                  std::uint32_t width, std::uint32_t height,
                  std::vector<double>& gw, std::vector<double>& gb) {
  const std::size_t cin = in.size();
  gw.assign(cout * cin * 9, 0.0);
  gb.assign(cout, 0.0);
  support::parallelFor(0, cout, 1, [&](std::size_t oc) {
    const Plane& d = dz[oc];
    double bs = 0.0;
    for (double v : d) bs += v;
    gb[oc] = bs;
    for (std::size_t ic = 0; ic < cin; ++ic) {
      const Plane& x = in[ic];
      double* g = &gw[(oc * cin + ic) * 9];
      for (std::uint32_t y = 0; y < height; ++y) {
        for (std::uint32_t xx = 0; xx < width; ++xx) {
          const double dv = d[static_cast<std::size_t>(y) * width + xx];
          if (dv == 0.0) continue;
          for (int ky = 0; ky < 3; ++ky) {
            const int sy = static_cast<int>(y) + ky - 1;
            if (sy < 0 || sy >= static_cast<int>(height)) continue;
            for (int kx = 0; kx < 3; ++kx) {
              const int sx = static_cast<int>(xx) + kx - 1;
              if (sx < 0 || sx >= static_cast<int>(width)) continue;
              g[ky * 3 + kx] +=
                  dv * x[static_cast<std::size_t>(sy) * width + sx];
            }
          }
        }
      }
    }
  });
}

/// dX for the 3x3 correlation. One task per *input* channel.
void conv3x3GradIn(const Planes& dz, const std::vector<double>& w,
                   std::size_t cin, std::uint32_t width, std::uint32_t height,
                   Planes& dx) {
  const std::size_t cout = dz.size();
  const std::size_t n = static_cast<std::size_t>(width) * height;
  dx.resize(cin);
  support::parallelFor(0, cin, 1, [&](std::size_t ic) {
    Plane& g = dx[ic];
    g.assign(n, 0.0);
    for (std::size_t oc = 0; oc < cout; ++oc) {
      const Plane& d = dz[oc];
      const double* tap = &w[(oc * cin + ic) * 9];
      for (std::uint32_t y = 0; y < height; ++y) {
        for (std::uint32_t xx = 0; xx < width; ++xx) {
          double s = 0.0;
          for (int ky = 0; ky < 3; ++ky) {
            const int sy = static_cast<int>(y) - (ky - 1);
            if (sy < 0 || sy >= static_cast<int>(height)) continue;
            for (int kx = 0; kx < 3; ++kx) {
              const int sx = static_cast<int>(xx) - (kx - 1);
              if (sx < 0 || sx >= static_cast<int>(width)) continue;
              s += tap[ky * 3 + kx] *
                   d[static_cast<std::size_t>(sy) * width + sx];
            }
          }
          g[static_cast<std::size_t>(y) * width + xx] += s;
        }
      }
    }
  });
}

/// 1x1 "conv": out[o][p] = b[o] + sum_c w[o*cin+c] * in[c][p].
void pointwiseForward(const Planes& in, const std::vector<double>& w,
                      const std::vector<double>& b, std::size_t cout,
                      Planes& out) {
  const std::size_t cin = in.size();
  const std::size_t n = in.empty() ? 0 : in[0].size();
  out.resize(cout);
  support::parallelFor(0, cout, 1, [&](std::size_t oc) {
    Plane& o = out[oc];
    o.assign(n, b[oc]);
    for (std::size_t ic = 0; ic < cin; ++ic) {
      const double wv = w[oc * cin + ic];
      const Plane& x = in[ic];
      for (std::size_t p = 0; p < n; ++p) o[p] += wv * x[p];
    }
  });
}

void pointwiseGradW(const Planes& in, const Planes& dz,
                    std::vector<double>& gw, std::vector<double>& gb) {
  const std::size_t cin = in.size();
  const std::size_t cout = dz.size();
  gw.assign(cout * cin, 0.0);
  gb.assign(cout, 0.0);
  support::parallelFor(0, cout, 1, [&](std::size_t oc) {
    const Plane& d = dz[oc];
    double bs = 0.0;
    for (double v : d) bs += v;
    gb[oc] = bs;
    for (std::size_t ic = 0; ic < cin; ++ic) {
      const Plane& x = in[ic];
      double s = 0.0;
      for (std::size_t p = 0; p < d.size(); ++p) s += d[p] * x[p];
      gw[oc * cin + ic] = s;
    }
  });
}

/// dX of the 1x1: dx[c][p] = sum_o w[o*cin+c] * dz[o][p].
void pointwiseGradIn(const Planes& dz, const std::vector<double>& w,
                     std::size_t cin, Planes& dx) {
  const std::size_t cout = dz.size();
  const std::size_t n = dz.empty() ? 0 : dz[0].size();
  dx.resize(cin);
  support::parallelFor(0, cin, 1, [&](std::size_t ic) {
    Plane& g = dx[ic];
    g.assign(n, 0.0);
    for (std::size_t oc = 0; oc < cout; ++oc) {
      const double wv = w[oc * cin + ic];
      const Plane& d = dz[oc];
      for (std::size_t p = 0; p < n; ++p) g[p] += wv * d[p];
    }
  });
}

/// Reciprocal von-Neumann neighbour counts per pixel; 0 when a pixel has no
/// in-grid neighbours (a 1x1 grid — messages are defined as zero there).
std::vector<double> neighbourInvCounts(std::uint32_t width,
                                       std::uint32_t height) {
  const std::size_t n = static_cast<std::size_t>(width) * height;
  std::vector<double> inv(n, 0.0);
  for (std::uint32_t y = 0; y < height; ++y) {
    for (std::uint32_t x = 0; x < width; ++x) {
      int k = 0;
      if (x > 0) ++k;
      if (x + 1 < width) ++k;
      if (y > 0) ++k;
      if (y + 1 < height) ++k;
      if (k > 0) inv[static_cast<std::size_t>(y) * width + x] = 1.0 / k;
    }
  }
  return inv;
}

/// msg[c][p] = mean of in-grid von-Neumann neighbours of in[c][.].
void neighbourMean(const Planes& in, const std::vector<double>& inv,
                   std::uint32_t width, std::uint32_t height, Planes& out) {
  const std::size_t n = static_cast<std::size_t>(width) * height;
  out.resize(in.size());
  support::parallelFor(0, in.size(), 1, [&](std::size_t c) {
    const Plane& x = in[c];
    Plane& o = out[c];
    o.assign(n, 0.0);
    for (std::uint32_t y = 0; y < height; ++y) {
      for (std::uint32_t xx = 0; xx < width; ++xx) {
        const std::size_t p = static_cast<std::size_t>(y) * width + xx;
        if (inv[p] == 0.0) continue;
        double s = 0.0;
        if (xx > 0) s += x[p - 1];
        if (xx + 1 < width) s += x[p + 1];
        if (y > 0) s += x[p - width];
        if (y + 1 < height) s += x[p + width];
        o[p] = s * inv[p];
      }
    }
  });
}

/// Adjoint of neighbourMean: da[c][q] += sum over neighbours p of q of
/// dm[c][p] * inv[p]. The neighbour relation is symmetric, so each output
/// pixel reads its neighbours — no write races.
void neighbourMeanAdjoint(const Planes& dm, const std::vector<double>& inv,
                          std::uint32_t width, std::uint32_t height,
                          Planes& da) {
  support::parallelFor(0, dm.size(), 1, [&](std::size_t c) {
    const Plane& d = dm[c];
    Plane& o = da[c];
    for (std::uint32_t y = 0; y < height; ++y) {
      for (std::uint32_t xx = 0; xx < width; ++xx) {
        const std::size_t p = static_cast<std::size_t>(y) * width + xx;
        double s = 0.0;
        if (xx > 0) s += d[p - 1] * inv[p - 1];
        if (xx + 1 < width) s += d[p + 1] * inv[p + 1];
        if (y > 0) s += d[p - width] * inv[p - width];
        if (y + 1 < height) s += d[p + width] * inv[p + width];
        o[p] += s;
      }
    }
  });
}

void reluInPlace(Planes& a) {
  for (Plane& p : a)
    for (double& v : p) v = v > 0.0 ? v : 0.0;
}

/// dz = da masked by pre-activation sign.
void reluBackward(const Planes& pre, Planes& da) {
  for (std::size_t c = 0; c < da.size(); ++c)
    for (std::size_t p = 0; p < da[c].size(); ++p)
      if (pre[c][p] <= 0.0) da[c][p] = 0.0;
}

void sgdStep(std::vector<double>& w, const std::vector<double>& g, double lr,
             double l2) {
  for (std::size_t i = 0; i < w.size(); ++i) w[i] -= lr * (g[i] + l2 * w[i]);
}

void checkFinite(const std::vector<double>& v, const char* what) {
  for (double x : v)
    HCP_CHECK_MSG(std::isfinite(x), "mapnet: non-finite value in " << what);
}

}  // namespace

// --- MapPrediction ---------------------------------------------------------

double MapPrediction::maxVUtil() const {
  double m = 0.0;
  for (double v : vUtil) m = std::max(m, v);
  return m;
}

double MapPrediction::maxHUtil() const {
  double m = 0.0;
  for (double v : hUtil) m = std::max(m, v);
  return m;
}

std::size_t MapPrediction::tilesOver(double thresholdPercent) const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < vUtil.size(); ++i)
    if (vUtil[i] > thresholdPercent || hUtil[i] > thresholdPercent) ++n;
  return n;
}

std::string MapPrediction::toAscii(bool vertical) const {
  std::ostringstream os;
  const std::vector<double>& u = vertical ? vUtil : hUtil;
  for (std::uint32_t row = 0; row < height; ++row) {
    const std::uint32_t y = height - 1 - row;  // row 0 on top
    for (std::uint32_t x = 0; x < width; ++x) {
      const double v = u[static_cast<std::size_t>(y) * width + x];
      char c = '.';
      if (v >= 100.0) c = '@';
      else if (v >= 75.0) c = '#';
      else if (v >= 50.0) c = '+';
      else if (v >= 25.0) c = ':';
      os << c;
    }
    os << "\n";
  }
  return os.str();
}

std::string MapPrediction::toCsv() const {
  std::ostringstream os;
  os << "x,y,v_util,h_util\n";
  for (std::uint32_t y = 0; y < height; ++y)
    for (std::uint32_t x = 0; x < width; ++x) {
      const std::size_t i = static_cast<std::size_t>(y) * width + x;
      os << x << "," << y << "," << vUtil[i] << "," << hUtil[i] << "\n";
    }
  return os.str();
}

void MapPrediction::write(std::ostream& os) const {
  txt::preparePrecision(os);
  os << "hcp-map 1\n" << width << ' ' << height << '\n';
  os << "vutil ";
  txt::writeVec(os, vUtil);
  os << "\nhutil ";
  txt::writeVec(os, hUtil);
  os << '\n';
}

MapPrediction MapPrediction::read(txt::Reader& in) {
  in.expect("hcp-map");
  const int version = in.read<int>("map version");
  HCP_CHECK_MSG(version == 1, "unsupported map version " << version);
  MapPrediction map;
  map.width = in.read<std::uint32_t>("map width");
  map.height = in.read<std::uint32_t>("map height");
  in.expect("vutil");
  map.vUtil = in.readVec<double>("vutil");
  in.expect("hutil");
  map.hUtil = in.readVec<double>("hutil");
  HCP_CHECK_MSG(
      map.vUtil.size() == map.numTiles() && map.hUtil.size() == map.numTiles(),
      "map grid shape mismatch: " << map.width << "x" << map.height
                                  << " grid with " << map.vUtil.size() << "/"
                                  << map.hUtil.size() << " tile values");
  checkFinite(map.vUtil, "vutil");
  checkFinite(map.hUtil, "hutil");
  return map;
}

void saveMapPrediction(const MapPrediction& map, std::ostream& os) {
  map.write(os);
  HCP_CHECK_MSG(os.good(), "map write failed");
}

MapPrediction loadMapPrediction(std::string_view text) {
  txt::Reader in(text);
  MapPrediction map = MapPrediction::read(in);
  in.expectEnd("congestion map");
  return map;
}

void saveMapPredictionToFile(const MapPrediction& map,
                             const std::string& path) {
  support::txt::CheckedFileWriter writer(path, "mapout");
  saveMapPrediction(map, writer.stream());
  writer.commit();
}

MapPrediction loadMapPredictionFromFile(const std::string& path) {
  return txt::parseFile(path, "map", MapPrediction::read);
}

// --- MapNet ----------------------------------------------------------------

std::string_view topologyName(MapNetConfig::Topology t) {
  switch (t) {
    case MapNetConfig::Topology::kTileLinear: return "tilelinear";
    case MapNetConfig::Topology::kConv: return "conv";
    case MapNetConfig::Topology::kLattice: return "lattice";
  }
  return "?";
}

MapNetConfig::Topology topologyFromName(const std::string& name) {
  if (name == "tilelinear") return MapNetConfig::Topology::kTileLinear;
  if (name == "conv") return MapNetConfig::Topology::kConv;
  if (name == "lattice") return MapNetConfig::Topology::kLattice;
  HCP_CHECK_MSG(false, "unknown map-model topology '"
                           << name
                           << "' (valid: tilelinear, conv, lattice)");
  return MapNetConfig::Topology::kConv;
}

struct MapNet::Workspace {
  std::uint32_t width = 0, height = 0;
  std::vector<double> inv;  ///< neighbour reciprocal counts (lattice)
  Planes z1, a1;            ///< first-stage pre/post activation
  Planes yhat;              ///< [2][N] standardized heads
  // Lattice round storage: act[0] is the embed activation.
  std::vector<Planes> pre, act, msg;
  // Gradient scratch, reused across samples.
  Planes dY, dA, dB, dM;
  std::vector<double> gw1, gb1, gw2, gb2, gSelf, gMsg, gbRound;
};

void MapNet::initWeights(Rng& rng) {
  const std::size_t c = inChannels_;
  const std::size_t h = config_.hiddenChannels;
  const std::size_t r = config_.rounds;
  auto fill = [&](std::vector<double>& w, std::size_t n, std::size_t fanIn) {
    w.resize(n);
    const double scale = 1.0 / std::sqrt(static_cast<double>(fanIn));
    for (double& v : w) v = rng.normal(0.0, scale);
  };
  w1_.clear(); b1_.clear(); w2_.clear(); b2_.clear();
  wSelf_.clear(); wMsg_.clear(); bRound_.clear();
  switch (config_.topology) {
    case MapNetConfig::Topology::kTileLinear:
      fill(w1_, 2 * c, c);
      b1_.assign(2, 0.0);
      break;
    case MapNetConfig::Topology::kConv:
      fill(w1_, h * c * 9, c * 9);
      b1_.assign(h, 0.0);
      fill(w2_, 2 * h * 9, h * 9);
      b2_.assign(2, 0.0);
      break;
    case MapNetConfig::Topology::kLattice:
      fill(w1_, h * c, c);
      b1_.assign(h, 0.0);
      fill(wSelf_, r * h * h, 2 * h);
      fill(wMsg_, r * h * h, 2 * h);
      bRound_.assign(r * h, 0.0);
      fill(w2_, 2 * h, h);
      b2_.assign(2, 0.0);
      break;
  }
}

void MapNet::forward(const Planes& x, std::uint32_t w, std::uint32_t h,
                     Workspace& ws) const {
  const std::size_t hid = config_.hiddenChannels;
  if (ws.width != w || ws.height != h) {
    ws.width = w;
    ws.height = h;
    ws.inv = config_.topology == MapNetConfig::Topology::kLattice
                 ? neighbourInvCounts(w, h)
                 : std::vector<double>{};
  }
  switch (config_.topology) {
    case MapNetConfig::Topology::kTileLinear:
      pointwiseForward(x, w1_, b1_, 2, ws.yhat);
      break;
    case MapNetConfig::Topology::kConv:
      conv3x3Forward(x, w1_, b1_, hid, w, h, ws.z1);
      ws.a1 = ws.z1;
      reluInPlace(ws.a1);
      conv3x3Forward(ws.a1, w2_, b2_, 2, w, h, ws.yhat);
      break;
    case MapNetConfig::Topology::kLattice: {
      const std::size_t rounds = config_.rounds;
      pointwiseForward(x, w1_, b1_, hid, ws.z1);
      ws.act.assign(rounds + 1, Planes{});
      ws.pre.assign(rounds + 1, Planes{});
      ws.msg.assign(rounds, Planes{});
      ws.act[0] = ws.z1;
      reluInPlace(ws.act[0]);
      for (std::size_t r = 0; r < rounds; ++r) {
        neighbourMean(ws.act[r], ws.inv, w, h, ws.msg[r]);
        Planes self, msg;
        pointwiseForward(
            ws.act[r],
            {wSelf_.begin() + static_cast<std::ptrdiff_t>(r * hid * hid),
             wSelf_.begin() + static_cast<std::ptrdiff_t>((r + 1) * hid * hid)},
            {bRound_.begin() + static_cast<std::ptrdiff_t>(r * hid),
             bRound_.begin() + static_cast<std::ptrdiff_t>((r + 1) * hid)},
            hid, self);
        pointwiseForward(
            ws.msg[r],
            {wMsg_.begin() + static_cast<std::ptrdiff_t>(r * hid * hid),
             wMsg_.begin() + static_cast<std::ptrdiff_t>((r + 1) * hid * hid)},
            std::vector<double>(hid, 0.0), hid, msg);
        Planes& pre = ws.pre[r + 1];
        pre = std::move(self);
        for (std::size_t c = 0; c < hid; ++c)
          for (std::size_t p = 0; p < pre[c].size(); ++p)
            pre[c][p] += msg[c][p];
        ws.act[r + 1] = pre;
        reluInPlace(ws.act[r + 1]);
      }
      pointwiseForward(ws.act[rounds], w2_, b2_, 2, ws.yhat);
      break;
    }
  }
}

double MapNet::backwardAndStep(const MapSample&, const Planes& x,
                               const std::vector<double>& tv,
                               const std::vector<double>& th, Workspace& ws) {
  const std::size_t n = tv.size();
  const double invN = n == 0 ? 0.0 : 1.0 / static_cast<double>(n);
  const std::size_t hid = config_.hiddenChannels;
  const double lr = config_.learningRate;
  const double l2 = config_.l2;

  // Loss and output gradient in standardized space: L = 1/(2N) sum of
  // squared errors over both heads.
  double loss = 0.0;
  ws.dY.assign(2, Plane(n, 0.0));
  for (std::size_t p = 0; p < n; ++p) {
    const double dv = ws.yhat[0][p] - tv[p];
    const double dh = ws.yhat[1][p] - th[p];
    loss += dv * dv + dh * dh;
    ws.dY[0][p] = dv * invN;
    ws.dY[1][p] = dh * invN;
  }
  loss *= 0.5 * invN;

  switch (config_.topology) {
    case MapNetConfig::Topology::kTileLinear:
      pointwiseGradW(x, ws.dY, ws.gw1, ws.gb1);
      sgdStep(w1_, ws.gw1, lr, l2);
      sgdStep(b1_, ws.gb1, lr, 0.0);
      break;
    case MapNetConfig::Topology::kConv: {
      conv3x3GradW(ws.a1, ws.dY, 2, ws.width, ws.height, ws.gw2, ws.gb2);
      conv3x3GradIn(ws.dY, w2_, hid, ws.width, ws.height, ws.dA);
      reluBackward(ws.z1, ws.dA);
      conv3x3GradW(x, ws.dA, hid, ws.width, ws.height, ws.gw1, ws.gb1);
      sgdStep(w1_, ws.gw1, lr, l2);
      sgdStep(b1_, ws.gb1, lr, 0.0);
      sgdStep(w2_, ws.gw2, lr, l2);
      sgdStep(b2_, ws.gb2, lr, 0.0);
      break;
    }
    case MapNetConfig::Topology::kLattice: {
      const std::size_t rounds = config_.rounds;
      pointwiseGradW(ws.act[rounds], ws.dY, ws.gw2, ws.gb2);
      pointwiseGradIn(ws.dY, w2_, hid, ws.dA);
      ws.gSelf.assign(wSelf_.size(), 0.0);
      ws.gMsg.assign(wMsg_.size(), 0.0);
      ws.gbRound.assign(bRound_.size(), 0.0);
      for (std::size_t r = rounds; r > 0; --r) {
        reluBackward(ws.pre[r], ws.dA);  // dA is now dZ of round r
        const std::vector<double> wSelfR(
            wSelf_.begin() + static_cast<std::ptrdiff_t>((r - 1) * hid * hid),
            wSelf_.begin() + static_cast<std::ptrdiff_t>(r * hid * hid));
        const std::vector<double> wMsgR(
            wMsg_.begin() + static_cast<std::ptrdiff_t>((r - 1) * hid * hid),
            wMsg_.begin() + static_cast<std::ptrdiff_t>(r * hid * hid));
        std::vector<double> gs, gbs, gm, gmb;
        pointwiseGradW(ws.act[r - 1], ws.dA, gs, gbs);
        pointwiseGradW(ws.msg[r - 1], ws.dA, gm, gmb);
        for (std::size_t i = 0; i < gs.size(); ++i) {
          ws.gSelf[(r - 1) * hid * hid + i] = gs[i];
          ws.gMsg[(r - 1) * hid * hid + i] = gm[i];
        }
        for (std::size_t i = 0; i < gbs.size(); ++i)
          ws.gbRound[(r - 1) * hid + i] = gbs[i];
        pointwiseGradIn(ws.dA, wSelfR, hid, ws.dB);
        pointwiseGradIn(ws.dA, wMsgR, hid, ws.dM);
        neighbourMeanAdjoint(ws.dM, ws.inv, ws.width, ws.height, ws.dB);
        ws.dA = std::move(ws.dB);
      }
      reluBackward(ws.z1, ws.dA);
      pointwiseGradW(x, ws.dA, ws.gw1, ws.gb1);
      sgdStep(w1_, ws.gw1, lr, l2);
      sgdStep(b1_, ws.gb1, lr, 0.0);
      sgdStep(wSelf_, ws.gSelf, lr, l2);
      sgdStep(wMsg_, ws.gMsg, lr, l2);
      sgdStep(bRound_, ws.gbRound, lr, 0.0);
      sgdStep(w2_, ws.gw2, lr, l2);
      sgdStep(b2_, ws.gb2, lr, 0.0);
      break;
    }
  }
  return loss;
}

void MapNet::fit(const std::vector<MapSample>& data) {
  HCP_SPAN("mapnet_fit");
  HCP_CHECK_MSG(!data.empty(), "mapnet: empty training set");
  inChannels_ = data[0].grid.channels.size();
  HCP_CHECK_MSG(inChannels_ > 0, "mapnet: samples have no feature channels");
  for (const MapSample& s : data) {
    HCP_CHECK_MSG(s.grid.channels.size() == inChannels_,
                  "mapnet: inconsistent channel counts ("
                      << s.grid.channels.size() << " vs " << inChannels_
                      << ")");
    const std::size_t n = s.grid.numTiles();
    for (const auto& c : s.grid.channels)
      HCP_CHECK_MSG(c.size() == n, "mapnet: channel size " << c.size()
                                       << " != " << n << " tiles");
    HCP_CHECK_MSG(s.vTarget.size() == n && s.hTarget.size() == n,
                  "mapnet: target size mismatch");
  }

  // Per-channel input standardization and per-head target standardization,
  // accumulated in one fixed order.
  featMean_.assign(inChannels_, 0.0);
  featStd_.assign(inChannels_, 1.0);
  std::size_t total = 0;
  for (const MapSample& s : data) total += s.grid.numTiles();
  HCP_CHECK_MSG(total > 0, "mapnet: training set has no tiles");
  const double invTotal = 1.0 / static_cast<double>(total);
  for (std::size_t c = 0; c < inChannels_; ++c) {
    double sum = 0.0;
    for (const MapSample& s : data)
      for (double v : s.grid.channels[c]) sum += v;
    const double mean = sum * invTotal;
    double var = 0.0;
    for (const MapSample& s : data)
      for (double v : s.grid.channels[c]) var += (v - mean) * (v - mean);
    var *= invTotal;
    featMean_[c] = mean;
    featStd_[c] = var > 1e-24 ? std::sqrt(var) : 1.0;
  }
  auto targetStats = [&](auto pick, double& mean, double& std) {
    double sum = 0.0;
    for (const MapSample& s : data)
      for (double v : pick(s)) sum += v;
    mean = sum * invTotal;
    double var = 0.0;
    for (const MapSample& s : data)
      for (double v : pick(s)) var += (v - mean) * (v - mean);
    var *= invTotal;
    std = var > 1e-24 ? std::sqrt(var) : 1.0;
  };
  targetStats([](const MapSample& s) -> const std::vector<double>& {
    return s.vTarget;
  }, vMean_, vStd_);
  targetStats([](const MapSample& s) -> const std::vector<double>& {
    return s.hTarget;
  }, hMean_, hStd_);

  // Standardized copies, built once.
  std::vector<Planes> xs(data.size());
  std::vector<std::vector<double>> tvs(data.size()), ths(data.size());
  for (std::size_t s = 0; s < data.size(); ++s) {
    const std::size_t n = data[s].grid.numTiles();
    xs[s].resize(inChannels_);
    for (std::size_t c = 0; c < inChannels_; ++c) {
      xs[s][c].resize(n);
      for (std::size_t p = 0; p < n; ++p)
        xs[s][c][p] =
            (data[s].grid.channels[c][p] - featMean_[c]) / featStd_[c];
    }
    tvs[s].resize(n);
    ths[s].resize(n);
    for (std::size_t p = 0; p < n; ++p) {
      tvs[s][p] = (data[s].vTarget[p] - vMean_) / vStd_;
      ths[s][p] = (data[s].hTarget[p] - hMean_) / hStd_;
    }
  }

  Rng rng(config_.seed);
  initWeights(rng);

  // Plain SGD: one update per sample, epoch order shuffled by the model's
  // own Rng on the serving thread — the parallel work inside forward /
  // backward never touches the RNG, so the weight trajectory is a pure
  // function of (data, seed).
  Workspace ws;
  finalLoss_ = 0.0;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    const std::vector<std::size_t> order = rng.permutation(data.size());
    double epochLoss = 0.0;
    for (const std::size_t s : order) {
      forward(xs[s], data[s].grid.width, data[s].grid.height, ws);
      epochLoss += backwardAndStep(data[s], xs[s], tvs[s], ths[s], ws);
    }
    finalLoss_ = epochLoss / static_cast<double>(data.size());
  }
  epochsRun_ = config_.epochs;
}

MapPrediction MapNet::predict(const GridSample& grid) const {
  HCP_CHECK_MSG(inChannels_ > 0, "mapnet: model is not trained");
  HCP_CHECK_MSG(grid.channels.size() == inChannels_,
                "mapnet: sample has " << grid.channels.size()
                                      << " channels, model expects "
                                      << inChannels_);
  const std::size_t n = grid.numTiles();
  for (const auto& c : grid.channels)
    HCP_CHECK_MSG(c.size() == n, "mapnet: channel size " << c.size()
                                     << " != " << n << " tiles");
  MapPrediction out;
  out.width = grid.width;
  out.height = grid.height;
  out.vUtil.assign(n, 0.0);
  out.hUtil.assign(n, 0.0);
  if (n == 0) return out;

  Planes x(inChannels_);
  for (std::size_t c = 0; c < inChannels_; ++c) {
    x[c].resize(n);
    for (std::size_t p = 0; p < n; ++p)
      x[c][p] = (grid.channels[c][p] - featMean_[c]) / featStd_[c];
  }
  Workspace ws;
  forward(x, grid.width, grid.height, ws);
  // Utilization is a percentage: negative predictions clamp to zero.
  for (std::size_t p = 0; p < n; ++p) {
    out.vUtil[p] = std::max(0.0, ws.yhat[0][p] * vStd_ + vMean_);
    out.hUtil[p] = std::max(0.0, ws.yhat[1][p] * hStd_ + hMean_);
  }
  return out;
}

// --- serialization ---------------------------------------------------------

void MapNet::checkShapes() const {
  const std::size_t c = inChannels_;
  const std::size_t h = config_.hiddenChannels;
  const std::size_t r = config_.rounds;
  auto shape = [](const std::vector<double>& v, std::size_t want,
                  const char* what) {
    HCP_CHECK_MSG(v.size() == want, "mapnet tensor shape mismatch: " << what
                                        << " has " << v.size()
                                        << " values, expected " << want);
  };
  switch (config_.topology) {
    case MapNetConfig::Topology::kTileLinear:
      shape(w1_, 2 * c, "w1");
      shape(b1_, 2, "b1");
      shape(w2_, 0, "w2");
      shape(b2_, 0, "b2");
      shape(wSelf_, 0, "wself");
      shape(wMsg_, 0, "wmsg");
      shape(bRound_, 0, "bround");
      break;
    case MapNetConfig::Topology::kConv:
      shape(w1_, h * c * 9, "w1");
      shape(b1_, h, "b1");
      shape(w2_, 2 * h * 9, "w2");
      shape(b2_, 2, "b2");
      shape(wSelf_, 0, "wself");
      shape(wMsg_, 0, "wmsg");
      shape(bRound_, 0, "bround");
      break;
    case MapNetConfig::Topology::kLattice:
      shape(w1_, h * c, "w1");
      shape(b1_, h, "b1");
      shape(w2_, 2 * h, "w2");
      shape(b2_, 2, "b2");
      shape(wSelf_, r * h * h, "wself");
      shape(wMsg_, r * h * h, "wmsg");
      shape(bRound_, r * h, "bround");
      break;
  }
}

void MapNet::write(std::ostream& os) const {
  os << "shape " << inChannels_ << ' ' << config_.hiddenChannels << ' '
     << config_.rounds << '\n';
  os << "train " << config_.epochs << ' ' << config_.learningRate << ' '
     << config_.l2 << ' ' << config_.seed << '\n';
  os << "scaler ";
  txt::writeVec(os, featMean_);
  os << ' ';
  txt::writeVec(os, featStd_);
  os << '\n';
  os << "targets " << vMean_ << ' ' << vStd_ << ' ' << hMean_ << ' ' << hStd_
     << '\n';
  for (const auto& [name, tensor] :
       std::initializer_list<std::pair<const char*, const std::vector<double>*>>{
           {"w1", &w1_}, {"b1", &b1_}, {"w2", &w2_}, {"b2", &b2_},
           {"wself", &wSelf_}, {"wmsg", &wMsg_}, {"bround", &bRound_}}) {
    os << name << ' ';
    txt::writeVec(os, *tensor);
    os << '\n';
  }
  os << "state " << epochsRun_ << ' ' << finalLoss_ << '\n';
}

void MapNet::read(txt::Reader& in) {
  in.expect("shape");
  inChannels_ = in.read<std::size_t>("channel count");
  config_.hiddenChannels = in.read<std::size_t>("hidden channels");
  config_.rounds = in.read<std::size_t>("rounds");
  HCP_CHECK_MSG(inChannels_ > 0, "mapnet: channel count must be positive");
  in.expect("train");
  config_.epochs = in.read<std::size_t>("epochs");
  config_.learningRate = in.read<double>("learning rate");
  config_.l2 = in.read<double>("l2");
  config_.seed = in.read<std::uint64_t>("seed");
  in.expect("scaler");
  featMean_ = in.readVec<double>("feature means");
  featStd_ = in.readVec<double>("feature stds");
  HCP_CHECK_MSG(
      featMean_.size() == inChannels_ && featStd_.size() == inChannels_,
      "mapnet: scaler covers " << featMean_.size() << " channels, expected "
                               << inChannels_);
  in.expect("targets");
  vMean_ = in.read<double>("v mean");
  vStd_ = in.read<double>("v std");
  hMean_ = in.read<double>("h mean");
  hStd_ = in.read<double>("h std");
  for (auto [name, tensor] :
       std::initializer_list<std::pair<const char*, std::vector<double>*>>{
           {"w1", &w1_}, {"b1", &b1_}, {"w2", &w2_}, {"b2", &b2_},
           {"wself", &wSelf_}, {"wmsg", &wMsg_}, {"bround", &bRound_}}) {
    in.expect(name);
    *tensor = in.readVec<double>(name);
    // A model with a poisoned weight predicts NaN maps everywhere; reject
    // at load time, where the file can still be named.
    checkFinite(*tensor, name);
  }
  in.expect("state");
  epochsRun_ = in.read<std::size_t>("epochs run");
  finalLoss_ = in.read<double>("final loss");
  checkFinite(featMean_, "feature means");
  checkFinite(featStd_, "feature stds");
  checkShapes();
}

void saveMapModel(const MapNet& model, std::ostream& os) {
  txt::preparePrecision(os);
  os << "hcp-mapmodel " << topologyName(model.config().topology) << " 1\n";
  model.write(os);
  HCP_CHECK_MSG(os.good(), "map-model write failed");
}

namespace {

MapNet readMapModel(txt::Reader& in) {
  in.expect("hcp-mapmodel");
  const std::string kind = in.read<std::string>("model kind");
  const int version = in.read<int>("model version");
  HCP_CHECK_MSG(version == 1, "unsupported map-model version " << version);
  MapNetConfig config;
  config.topology = topologyFromName(kind);
  MapNet model(config);
  model.read(in);
  return model;
}

}  // namespace

MapNet loadMapModel(std::string_view text) {
  txt::Reader in(text);
  MapNet model = readMapModel(in);
  in.expectEnd("map model");
  return model;
}

void saveMapModelToFile(const MapNet& model, const std::string& path) {
  support::txt::CheckedFileWriter writer(path, "mapmodel");
  saveMapModel(model, writer.stream());
  writer.commit();
}

MapNet loadMapModelFromFile(const std::string& path) {
  return txt::parseFile(path, "map-model", readMapModel);
}

}  // namespace hcp::ml
