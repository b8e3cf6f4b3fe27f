#include "features/extractor.hpp"

#include <algorithm>
#include <cmath>
#include <set>

namespace hcp::features {

using hls::Resource;
using ir::DependencyGraph;
using ir::NodeId;
using ir::Opcode;
using ir::OpId;

namespace {

double resOf(const Resource& r, std::size_t type) {
  switch (type) {
    case 0: return r.lut;
    case 1: return r.ff;
    case 2: return r.dsp;
    case 3: return r.bram;
  }
  return 0.0;
}

double safeDiv(double a, double b) { return b != 0.0 ? a / b : 0.0; }

}  // namespace

FeatureExtractor::FeatureExtractor(const hls::SynthesizedDesign& design,
                                   DeviceCaps caps)
    : design_(design), caps_(caps) {
  ctx_.reserve(design.module->numFunctions());
  for (std::uint32_t f = 0; f < design.module->numFunctions(); ++f)
    ctx_.push_back(buildCtx(f));
}

const FeatureExtractor::FunctionCtx& FeatureExtractor::ctx(
    std::uint32_t f) const {
  HCP_CHECK(f < ctx_.size());
  return ctx_[f];
}

FeatureExtractor::FunctionCtx FeatureExtractor::buildCtx(
    std::uint32_t f) const {
  const ir::Function& fn = design_.module->function(f);
  const hls::SynthesizedFunction& syn = design_.functions[f];
  FunctionCtx c;

  // Per-op resource share.
  c.opRes.assign(fn.numOps(), Resource{});
  for (const hls::FuInstance& fu : syn.binding.fus) {
    const Resource share =
        (fu.unitRes + fu.muxRes) * (1.0 / static_cast<double>(fu.ops.size()));
    for (OpId op : fu.ops) c.opRes[op] = share;
  }
  for (OpId op = 0; op < fn.numOps(); ++op) {
    const ir::Op& o = fn.op(op);
    if (o.opcode == Opcode::Load && o.array != ir::kInvalidIndex &&
        fn.array(o.array).banks > 1) {
      c.opRes[op] += design_.library
                         .muxSpec(std::max<std::uint32_t>(2,
                                                          fn.array(o.array)
                                                              .banks),
                                  fn.array(o.array).bitwidth)
                         .res;
    }
  }

  // Per-node aggregates.
  const DependencyGraph& g = syn.graph;
  c.nodeRes.assign(g.numNodes(), Resource{});
  c.nodeCstep.assign(g.numNodes(), 0);
  for (NodeId n = 0; n < g.numNodes(); ++n) {
    const auto& node = g.node(n);
    if (node.kind == DependencyGraph::NodeKind::Port) continue;
    std::uint32_t minStep = ~0u;
    for (OpId m : node.members) {
      c.nodeRes[n] += c.opRes[m];
      minStep = std::min(minStep, syn.schedule.ops[m].startStep);
    }
    c.nodeCstep[n] = minStep == ~0u ? 0 : minStep;
  }

  return c;
}

hls::Resource FeatureExtractor::opResource(std::uint32_t functionIndex,
                                           ir::OpId op) const {
  const FunctionCtx& c = ctx(functionIndex);
  HCP_CHECK(op < c.opRes.size());
  return c.opRes[op];
}

std::vector<double> FeatureExtractor::extract(std::uint32_t f,
                                              ir::OpId op) const {
  const ir::Function& fn = design_.module->function(f);
  const hls::SynthesizedFunction& syn = design_.functions[f];
  const FunctionCtx& c = ctx(f);
  const DependencyGraph& g = syn.graph;
  const NodeId v = g.nodeOf(op);

  std::vector<double> x;
  x.reserve(kNumFeatures);

  // Neighbour sets.
  std::vector<NodeId> preds1, succs1;
  for (const auto& n : g.preds(v)) preds1.push_back(n.node);
  for (const auto& n : g.succs(v)) succs1.push_back(n.node);
  const std::vector<NodeId> preds2 = g.twoHopPreds(v);
  const std::vector<NodeId> succs2 = g.twoHopSuccs(v);

  // --- bitwidth -------------------------------------------------------
  x.push_back(fn.op(op).bitwidth);

  // --- interconnection -------------------------------------------------
  {
    const double fanIn = g.fanIn(v);
    const double fanOut = g.fanOut(v);
    double maxWire = 0.0;
    for (const auto& n : g.preds(v)) maxWire = std::max(maxWire, n.wires);
    for (const auto& n : g.succs(v)) maxWire = std::max(maxWire, n.wires);

    x.push_back(fanIn);
    x.push_back(fanOut);
    x.push_back(fanIn + fanOut);
    x.push_back(static_cast<double>(preds1.size()));
    x.push_back(static_cast<double>(succs1.size()));
    x.push_back(static_cast<double>(preds1.size() + succs1.size()));
    x.push_back(maxWire);
    x.push_back(safeDiv(maxWire, fanIn));
    x.push_back(safeDiv(maxWire, fanOut));

    // Two-hop cone variants: total wires feeding/leaving the 2-level cone.
    double fanIn2 = fanIn, fanOut2 = fanOut, maxWire2 = maxWire;
    for (NodeId p : preds1) {
      fanIn2 += g.fanIn(p);
      for (const auto& e : g.preds(p)) maxWire2 = std::max(maxWire2, e.wires);
    }
    for (NodeId s : succs1) {
      fanOut2 += g.fanOut(s);
      for (const auto& e : g.succs(s)) maxWire2 = std::max(maxWire2, e.wires);
    }
    x.push_back(fanIn2);
    x.push_back(fanOut2);
    x.push_back(fanIn2 + fanOut2);
    x.push_back(static_cast<double>(preds2.size()));
    x.push_back(static_cast<double>(succs2.size()));
    x.push_back(static_cast<double>(preds2.size() + succs2.size()));
    x.push_back(maxWire2);
    x.push_back(safeDiv(maxWire2, fanIn2));
    x.push_back(safeDiv(maxWire2, fanOut2));
  }

  // --- resource ---------------------------------------------------------
  const Resource fnTotal = syn.report.totalRes;
  const double devCap[4] = {caps_.lut, caps_.ff, caps_.dsp, caps_.bram};
  for (std::size_t t = 0; t < 4; ++t) {
    const double self = resOf(c.opRes[op], t);
    const double fnT = resOf(fnTotal, t);
    x.push_back(self);
    x.push_back(safeDiv(self, devCap[t]));
    x.push_back(safeDiv(self, fnT));

    auto sumOver = [&](const std::vector<NodeId>& nodes) {
      double s = 0.0;
      for (NodeId n : nodes) s += resOf(c.nodeRes[n], t);
      return s;
    };
    auto maxOver = [&](const std::vector<NodeId>& a,
                       const std::vector<NodeId>& b) {
      double m = 0.0;
      for (NodeId n : a) m = std::max(m, resOf(c.nodeRes[n], t));
      for (NodeId n : b) m = std::max(m, resOf(c.nodeRes[n], t));
      return m;
    };

    const double p1 = sumOver(preds1), s1 = sumOver(succs1);
    x.push_back(p1);
    x.push_back(s1);
    x.push_back(p1 + s1);
    x.push_back(safeDiv(p1, devCap[t]));
    x.push_back(safeDiv(s1, devCap[t]));
    x.push_back(safeDiv(p1 + s1, devCap[t]));
    x.push_back(safeDiv(p1, fnT));
    x.push_back(safeDiv(s1, fnT));
    x.push_back(safeDiv(p1 + s1, fnT));
    const double m1 = maxOver(preds1, succs1);
    x.push_back(m1);
    x.push_back(safeDiv(m1, p1 + s1));

    const double p2 = sumOver(preds2), s2 = sumOver(succs2);
    x.push_back(p2);
    x.push_back(s2);
    x.push_back(p2 + s2);
    x.push_back(safeDiv(p2, devCap[t]));
    x.push_back(safeDiv(s2, devCap[t]));
    x.push_back(safeDiv(p2 + s2, devCap[t]));
    x.push_back(safeDiv(p2, fnT));
    x.push_back(safeDiv(s2, fnT));
    x.push_back(safeDiv(p2 + s2, fnT));
    const double m2 = maxOver(preds2, succs2);
    x.push_back(m2);
    x.push_back(safeDiv(m2, p2 + s2));
  }

  // --- timing -------------------------------------------------------------
  x.push_back(syn.schedule.ops[op].delayNs);
  x.push_back(syn.schedule.ops[op].latency);

  // --- #Resource/dTcs -------------------------------------------------------
  auto deltaT = [&](NodeId n) -> double {
    if (g.node(n).kind == DependencyGraph::NodeKind::Port) return 1.0;
    const double d = std::fabs(static_cast<double>(c.nodeCstep[n]) -
                               static_cast<double>(c.nodeCstep[v]));
    return std::max(1.0, d);
  };
  for (std::size_t t = 0; t < 4; ++t) {
    const double fnT = resOf(fnTotal, t);
    auto sumDt = [&](const std::vector<NodeId>& nodes, double denom) {
      double s = 0.0;
      for (NodeId n : nodes) s += resOf(c.nodeRes[n], t) / deltaT(n) / denom;
      return s;
    };
    // 1-hop then 2-hop, each: usage preds/succs, utilDev preds/succs,
    // utilFn preds/succs.
    const std::pair<const std::vector<NodeId>*, const std::vector<NodeId>*>
        scopes[2] = {{&preds1, &succs1}, {&preds2, &succs2}};
    for (const auto& [ps, ss] : scopes) {
      x.push_back(sumDt(*ps, 1.0));
      x.push_back(sumDt(*ss, 1.0));
      x.push_back(devCap[t] != 0 ? sumDt(*ps, devCap[t]) : 0.0);
      x.push_back(devCap[t] != 0 ? sumDt(*ss, devCap[t]) : 0.0);
      x.push_back(fnT != 0 ? sumDt(*ps, fnT) : 0.0);
      x.push_back(fnT != 0 ? sumDt(*ss, fnT) : 0.0);
    }
  }

  // --- operator type ---------------------------------------------------
  const auto selfKind = static_cast<std::size_t>(fn.op(op).opcode);
  for (std::size_t i = 0; i < ir::kNumOpcodes; ++i)
    x.push_back(i == selfKind ? 1.0 : 0.0);
  std::array<double, ir::kNumOpcodes> nbrCounts{};
  auto kindOfNode = [&](NodeId n) -> std::size_t {
    const auto& node = g.node(n);
    if (node.kind == DependencyGraph::NodeKind::Port)
      return static_cast<std::size_t>(Opcode::Port);
    return static_cast<std::size_t>(fn.op(node.op).opcode);
  };
  std::set<std::size_t> distinctKinds;
  for (NodeId n : preds1) {
    ++nbrCounts[kindOfNode(n)];
    distinctKinds.insert(kindOfNode(n));
  }
  for (NodeId n : succs1) {
    ++nbrCounts[kindOfNode(n)];
    distinctKinds.insert(kindOfNode(n));
  }
  for (double count : nbrCounts) x.push_back(count);
  x.push_back(static_cast<double>(distinctKinds.size()));

  // --- global information -----------------------------------------------
  const hls::FunctionReport& topReport =
      design_.functions[design_.module->topIndex()].report;
  const hls::FunctionReport& fopReport = syn.report;
  for (std::size_t t = 0; t < 4; ++t)
    x.push_back(resOf(topReport.totalRes, t));
  for (std::size_t t = 0; t < 4; ++t)
    x.push_back(resOf(fopReport.totalRes, t));
  for (std::size_t t = 0; t < 4; ++t)
    x.push_back(safeDiv(resOf(fopReport.totalRes, t),
                        resOf(topReport.totalRes, t)));
  for (const hls::FunctionReport* rep : {&topReport, &fopReport}) {
    x.push_back(rep->targetClockNs);
    x.push_back(rep->estimatedClockNs);
    x.push_back(rep->clockUncertaintyNs);
  }
  x.push_back(static_cast<double>(fopReport.memory.words));
  x.push_back(static_cast<double>(fopReport.memory.banks));
  x.push_back(static_cast<double>(fopReport.memory.bits));
  x.push_back(static_cast<double>(fopReport.memory.primitives));
  x.push_back(static_cast<double>(fopReport.mux.count));
  x.push_back(fopReport.mux.res.lut);
  x.push_back(static_cast<double>(fopReport.mux.totalInputs));
  x.push_back(fopReport.mux.avgWidth);

  HCP_CHECK_MSG(x.size() == kNumFeatures,
                "extractor produced " << x.size() << " features");
  return x;
}

}  // namespace hcp::features
