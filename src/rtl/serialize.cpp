#include "rtl/serialize.hpp"

#include "hls/serialize.hpp"
#include "support/textio.hpp"

namespace hcp::rtl {

namespace txt = support::txt;

void writeGeneratedRtl(std::ostream& os, const GeneratedRtl& rtl) {
  txt::preparePrecision(os);
  const Netlist& nl = rtl.netlist;
  os << "rtl\nnetlist ";
  txt::writeStr(os, nl.name());
  os << "\ninstances " << nl.numInstances() << '\n';
  for (InstanceId i = 0; i < nl.numInstances(); ++i) {
    const Instance& inst = nl.instance(i);
    txt::writeStr(os, inst.name);
    os << ' ' << inst.functionIndex << ' ' << inst.parent << '\n';
  }
  os << "cells " << nl.numCells() << '\n';
  for (const Cell& c : nl.cells()) {
    os << static_cast<unsigned>(c.type) << ' ';
    txt::writeStr(os, c.name);
    os << ' ' << c.width << ' ';
    hls::writeResource(os, c.res);
    os << ' ' << c.delayNs << ' ';
    txt::writeBool(os, c.sequential);
    os << ' ' << c.instance << ' ';
    txt::writeVec(os, c.ops);
    os << ' ' << c.sourceLine << ' ' << c.array << ' ' << c.bankIndex
       << '\n';
  }
  os << "nets " << nl.numNets() << '\n';
  for (const Net& n : nl.nets()) {
    txt::writeStr(os, n.name);
    os << ' ' << n.width << ' ' << n.driver << ' ';
    txt::writeVec(os, n.sinks);
    os << '\n';
  }
  os << "provenance " << rtl.provenance.opCells.size() << '\n';
  for (const auto& [key, cell] : rtl.provenance.opCells)
    os << key << ' ' << cell << '\n';
}

GeneratedRtl readGeneratedRtl(txt::Reader& in) {
  in.expect("rtl");
  in.expect("netlist");
  GeneratedRtl rtl;
  Netlist nl(in.readStr("netlist name"));
  in.expect("instances");
  const auto numInstances = in.readCount("instance count");
  for (std::size_t i = 0; i < numInstances; ++i) {
    Instance inst;
    inst.name = in.readStr("instance name");
    inst.functionIndex = in.read<std::uint32_t>("instance function");
    inst.parent = in.read<InstanceId>("instance parent");
    nl.addInstance(std::move(inst));
  }
  in.expect("cells");
  const auto numCells = in.readCount("cell count");
  for (std::size_t i = 0; i < numCells; ++i) {
    Cell c;
    const auto type = in.read<unsigned>("cell type");
    HCP_CHECK_MSG(type <= static_cast<unsigned>(CellType::Pad),
                  "cell type out of range: " << type);
    c.type = static_cast<CellType>(type);
    c.name = in.readStr("cell name");
    c.width = in.read<std::uint16_t>("cell width");
    c.res = hls::readResource(in);
    c.delayNs = in.read<double>("cell delayNs");
    c.sequential = in.readBool("cell sequential");
    c.instance = in.read<InstanceId>("cell instance");
    c.ops = in.readVec<ir::OpId>("cell ops");
    c.sourceLine = in.read<std::int32_t>("cell sourceLine");
    c.array = in.read<ir::ArrayId>("cell array");
    c.bankIndex = in.read<std::uint32_t>("cell bankIndex");
    nl.addCell(std::move(c));
  }
  in.expect("nets");
  const auto numNets = in.readCount("net count");
  for (std::size_t i = 0; i < numNets; ++i) {
    Net n;
    n.name = in.readStr("net name");
    n.width = in.read<std::uint16_t>("net width");
    n.driver = in.read<CellId>("net driver");
    HCP_CHECK_MSG(n.driver < nl.numCells(),
                  "net '" << n.name << "' drives from unknown cell "
                          << n.driver);
    n.sinks = in.readVec<CellId>("net sinks");
    nl.addNet(std::move(n));
  }
  rtl.netlist = std::move(nl);
  in.expect("provenance");
  const auto numProv = in.readCount("provenance count");
  rtl.provenance.opCells.reserve(numProv);
  for (std::size_t i = 0; i < numProv; ++i) {
    const auto key = in.read<std::uint64_t>("provenance key");
    const auto cell = in.read<CellId>("provenance cell");
    rtl.provenance.opCells.emplace_back(key, cell);
  }
  return rtl;
}

}  // namespace hcp::rtl
