#include "ir/serialize.hpp"

#include "ir/graph.hpp"
#include "support/textio.hpp"

namespace hcp::ir {

namespace txt = support::txt;

namespace {

void writeOp(std::ostream& os, const Op& op) {
  os << static_cast<unsigned>(op.opcode) << ' ' << op.bitwidth << ' '
     << op.loop << ' ' << op.sourceLine << ' ' << op.operands.size();
  for (const Operand& o : op.operands)
    os << ' ' << o.producer << ' ' << o.bitsUsed;
  os << ' ' << op.constValue << ' ' << op.array << ' ' << op.port << ' '
     << op.callee << ' ' << op.originOp << ' ' << op.replicaIndex << ' ';
  txt::writeStr(os, op.name);
  os << '\n';
}

Op readOp(txt::Reader& in) {
  Op op;
  const auto opcode = in.read<unsigned>("op opcode");
  HCP_CHECK_MSG(opcode < kNumOpcodes, "op opcode out of range: " << opcode);
  op.opcode = static_cast<Opcode>(opcode);
  op.bitwidth = in.read<std::uint16_t>("op bitwidth");
  op.loop = in.read<LoopId>("op loop");
  op.sourceLine = in.read<std::int32_t>("op sourceLine");
  const auto numOperands = in.readCount("op operand count");
  op.operands.reserve(numOperands);
  for (std::size_t i = 0; i < numOperands; ++i) {
    Operand o;
    o.producer = in.read<OpId>("operand producer");
    o.bitsUsed = in.read<std::uint16_t>("operand bitsUsed");
    op.operands.push_back(o);
  }
  op.constValue = in.read<std::int64_t>("op constValue");
  op.array = in.read<ArrayId>("op array");
  op.port = in.read<PortId>("op port");
  op.callee = in.read<std::uint32_t>("op callee");
  op.originOp = in.read<OpId>("op originOp");
  op.replicaIndex = in.read<std::uint32_t>("op replicaIndex");
  op.name = in.readStr("op name");
  return op;
}

void writeFunction(std::ostream& os, const Function& fn) {
  os << "function ";
  txt::writeStr(os, fn.name());
  os << "\nloops " << fn.numLoops() << '\n';
  for (LoopId l = 0; l < fn.numLoops(); ++l) {
    const LoopInfo& info = fn.loop(l);
    txt::writeStr(os, info.name);
    os << ' ' << info.parent << ' ' << info.tripCount << ' '
       << info.unrollFactor << ' ';
    txt::writeBool(os, info.pipelined);
    os << ' ' << info.initiationInterval << ' ' << info.sourceLine << '\n';
  }
  os << "arrays " << fn.numArrays() << '\n';
  for (ArrayId a = 0; a < fn.numArrays(); ++a) {
    const ArrayInfo& info = fn.array(a);
    txt::writeStr(os, info.name);
    os << ' ' << info.words << ' ' << info.bitwidth << ' ' << info.banks
       << ' ' << info.sourceLine << '\n';
  }
  os << "ports " << fn.numPorts() << '\n';
  for (PortId p = 0; p < fn.numPorts(); ++p) {
    const PortInfo& info = fn.portInfo(p);
    txt::writeStr(os, info.name);
    os << ' ' << static_cast<unsigned>(info.direction) << ' '
       << info.bitwidth << '\n';
  }
  os << "ops " << fn.numOps() << '\n';
  for (const Op& op : fn.ops()) writeOp(os, op);
}

std::unique_ptr<Function> readFunction(txt::Reader& in) {
  in.expect("function");
  auto fn = std::make_unique<Function>(in.readStr("function name"));
  in.expect("loops");
  const auto numLoops = in.readCount("loop count");
  HCP_CHECK_MSG(numLoops >= 1, "function must have the implicit body loop");
  for (LoopId l = 0; l < numLoops; ++l) {
    LoopInfo info;
    info.name = in.readStr("loop name");
    info.parent = in.read<LoopId>("loop parent");
    info.tripCount = in.read<std::uint64_t>("loop tripCount");
    info.unrollFactor = in.read<std::uint32_t>("loop unrollFactor");
    info.pipelined = in.readBool("loop pipelined");
    info.initiationInterval = in.read<std::uint32_t>("loop initiationInterval");
    info.sourceLine = in.read<std::int32_t>("loop sourceLine");
    // The Function constructor already created region 0 (the body);
    // overwrite it in place so the stored fields win exactly.
    if (l == 0)
      fn->loop(0) = std::move(info);
    else
      fn->addLoop(std::move(info));
  }
  in.expect("arrays");
  const auto numArrays = in.readCount("array count");
  for (std::size_t a = 0; a < numArrays; ++a) {
    ArrayInfo info;
    info.name = in.readStr("array name");
    info.words = in.read<std::uint64_t>("array words");
    info.bitwidth = in.read<std::uint16_t>("array bitwidth");
    info.banks = in.read<std::uint32_t>("array banks");
    info.sourceLine = in.read<std::int32_t>("array sourceLine");
    fn->addArray(std::move(info));
  }
  in.expect("ports");
  const auto numPorts = in.readCount("port count");
  for (std::size_t p = 0; p < numPorts; ++p) {
    PortInfo info;
    info.name = in.readStr("port name");
    const auto dir = in.read<unsigned>("port direction");
    HCP_CHECK_MSG(dir <= 1, "port direction out of range: " << dir);
    info.direction = static_cast<PortDirection>(dir);
    info.bitwidth = in.read<std::uint16_t>("port bitwidth");
    fn->addPort(std::move(info));
  }
  in.expect("ops");
  const auto numOps = in.readCount("op count");
  // Bypass addOp (which rewrites an unset originOp) and assign the vector
  // directly, preserving every stored byte.
  std::vector<Op> ops;
  ops.reserve(numOps);
  for (std::size_t i = 0; i < numOps; ++i) ops.push_back(readOp(in));
  fn->ops() = std::move(ops);
  return fn;
}

}  // namespace

void writeModule(std::ostream& os, const Module& mod) {
  txt::preparePrecision(os);
  os << "module ";
  txt::writeStr(os, mod.name());
  os << "\ntop ";
  txt::writeStr(os, mod.hasTop() ? mod.top().name() : std::string());
  os << "\nfunctions " << mod.numFunctions() << '\n';
  for (std::uint32_t i = 0; i < mod.numFunctions(); ++i)
    writeFunction(os, mod.function(i));
}

std::unique_ptr<Module> readModule(txt::Reader& in) {
  in.expect("module");
  auto mod = std::make_unique<Module>(in.readStr("module name"));
  in.expect("top");
  const std::string top = in.readStr("top name");
  in.expect("functions");
  const auto numFunctions = in.readCount("function count");
  for (std::size_t i = 0; i < numFunctions; ++i)
    mod->addFunction(readFunction(in));
  if (!top.empty()) mod->setTop(top);
  return mod;
}

// --- DependencyGraph (declared in ir/graph.hpp) -----------------------------

namespace {

void writeNeighbors(std::ostream& os,
                    const std::vector<std::vector<Neighbor>>& adj) {
  for (const auto& list : adj) {
    os << list.size();
    for (const Neighbor& n : list) os << ' ' << n.node << ' ' << n.wires;
    os << '\n';
  }
}

std::vector<std::vector<Neighbor>> readNeighbors(txt::Reader& in,
                                                 std::size_t numNodes) {
  std::vector<std::vector<Neighbor>> adj(numNodes);
  for (auto& list : adj) {
    const auto n = in.readCount("neighbor count");
    list.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      Neighbor nb;
      nb.node = in.read<NodeId>("neighbor node");
      nb.wires = in.read<double>("neighbor wires");
      list.push_back(nb);
    }
  }
  return adj;
}

}  // namespace

void DependencyGraph::write(std::ostream& os) const {
  txt::preparePrecision(os);
  os << "graph " << nodes_.size() << '\n';
  for (const Node& n : nodes_) {
    os << static_cast<unsigned>(n.kind) << ' ' << n.op << ' ' << n.port
       << ' ';
    txt::writeBool(os, n.alive);
    os << ' ';
    txt::writeVec(os, n.members);
    os << '\n';
  }
  os << "preds\n";
  writeNeighbors(os, preds_);
  os << "succs\n";
  writeNeighbors(os, succs_);
  os << "opmap ";
  txt::writeVec(os, opToNode_);
  os << '\n';
}

DependencyGraph DependencyGraph::read(txt::Reader& in, const Function& fn) {
  DependencyGraph g;
  g.fn_ = &fn;
  in.expect("graph");
  const auto numNodes = in.readCount("graph node count");
  g.nodes_.reserve(numNodes);
  for (std::size_t i = 0; i < numNodes; ++i) {
    Node n;
    const auto kind = in.read<unsigned>("node kind");
    HCP_CHECK_MSG(kind <= 2, "graph node kind out of range: " << kind);
    n.kind = static_cast<NodeKind>(kind);
    n.op = in.read<OpId>("node op");
    n.port = in.read<PortId>("node port");
    n.alive = in.readBool("node alive");
    n.members = in.readVec<OpId>("node members");
    g.nodes_.push_back(std::move(n));
  }
  in.expect("preds");
  g.preds_ = readNeighbors(in, numNodes);
  in.expect("succs");
  g.succs_ = readNeighbors(in, numNodes);
  in.expect("opmap");
  g.opToNode_ = in.readVec<NodeId>("opmap");
  HCP_CHECK_MSG(g.opToNode_.size() == fn.numOps(),
                "graph op map does not match its function ("
                    << g.opToNode_.size() << " vs " << fn.numOps()
                    << " ops)");
  return g;
}

}  // namespace hcp::ir
