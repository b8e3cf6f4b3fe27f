// Dependency graph over the operations of one function (paper §III-A2).
//
// Nodes are IR operations plus one "port" node per function I/O port (so
// operators connected to the same port are linked, as the paper prescribes).
// Edge weights carry the number of wires of each connection (the bits the
// consumer actually uses). Resource sharing is modelled by merging all the
// operations bound to one RTL module into a single combined node (Fig 4):
// originals are retired and their edges are redirected, with parallel edges
// accumulated.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "ir/function.hpp"

namespace hcp::support::txt {
class Reader;
}  // namespace hcp::support::txt

namespace hcp::ir {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Directed weighted neighbour reference.
struct Neighbor {
  NodeId node = kInvalidNode;
  double wires = 0.0;  ///< total wire count of the connection
};

class DependencyGraph {
 public:
  enum class NodeKind : std::uint8_t { Operation, Port, Merged };

  struct Node {
    NodeKind kind = NodeKind::Operation;
    OpId op = kInvalidOp;          ///< representative op (Operation/Merged)
    PortId port = kInvalidIndex;   ///< for Port nodes
    std::vector<OpId> members;     ///< all ops fused into a Merged node
    bool alive = true;
  };

  /// Builds the graph for `fn`: one node per op, one node per port, edges
  /// weighted by Operand::bitsUsed; ReadPort/WritePort ops are linked to
  /// their port node with the port's bitwidth as weight.
  static DependencyGraph build(const Function& fn);

  /// Merges the nodes of `ops` (≥2 ops sharing one RTL module) into one
  /// combined node; returns its id. Edges among the group vanish; external
  /// edges are redirected and parallel edges accumulate their wire counts.
  NodeId mergeOps(std::span<const OpId> ops);

  /// Node currently representing `op` (follows merges).
  NodeId nodeOf(OpId op) const;

  const Node& node(NodeId id) const {
    HCP_CHECK(id < nodes_.size());
    return nodes_[id];
  }
  std::size_t numNodes() const { return nodes_.size(); }
  std::size_t numAliveNodes() const;

  std::span<const Neighbor> preds(NodeId id) const {
    HCP_CHECK(id < nodes_.size());
    return preds_[id];
  }
  std::span<const Neighbor> succs(NodeId id) const {
    HCP_CHECK(id < nodes_.size());
    return succs_[id];
  }

  /// Fan-in / fan-out: total wires over incoming / outgoing edges.
  double fanIn(NodeId id) const;
  double fanOut(NodeId id) const;

  /// Distinct nodes reachable within two hops backwards/forwards,
  /// excluding `id` itself. Used for the paper's two-hop feature variants.
  std::vector<NodeId> twoHopPreds(NodeId id) const;
  std::vector<NodeId> twoHopSuccs(NodeId id) const;

  const Function& function() const { return *fn_; }

  /// Text serialization (ir/serialize.hpp; flow-cache format). `read`
  /// rebinds the graph to `fn`, which must be the same function the graph
  /// was built from (the flow-cache reader passes the freshly deserialized
  /// module's function). Defined in ir/serialize.cpp.
  void write(std::ostream& os) const;
  static DependencyGraph read(support::txt::Reader& in, const Function& fn);

 private:
  void addEdge(NodeId from, NodeId to, double wires);

  const Function* fn_ = nullptr;
  std::vector<Node> nodes_;
  std::vector<std::vector<Neighbor>> preds_;
  std::vector<std::vector<Neighbor>> succs_;
  std::vector<NodeId> opToNode_;  ///< current node of each op (post-merge)
};

}  // namespace hcp::ir
