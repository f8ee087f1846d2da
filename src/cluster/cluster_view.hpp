// Cluster bookkeeping shared by the QIP engine (§II-B).
//
// The network self-organizes into a two-layer hierarchy: every cluster has
// exactly one *cluster head*, heads are never neighbors (≥ 2 hops apart when
// formed), and every *common node* is configured by — and belongs to — some
// head.  ClusterView tracks role assignments and membership and answers the
// topology-coupled queries the protocol needs ("is there a head within two
// hops?", "which heads are in my 3-hop QDSet neighborhood?").
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/node_id.hpp"
#include "net/topology.hpp"

namespace qip {

enum class Role : std::uint8_t {
  kUnconfigured = 0,
  kCommonNode = 1,
  kClusterHead = 2,
};

const char* to_string(Role role);

class ClusterView {
 public:
  explicit ClusterView(const Topology& topology) : topology_(&topology) {}

  Role role(NodeId id) const;
  bool is_head(NodeId id) const {
    return id < head_flag_.size() && head_flag_[id] != 0;
  }

  /// Declares `id` a cluster head (it becomes its own cluster's head).
  void set_head(NodeId id);

  /// Declares `id` a common node in `head`'s cluster.
  void set_member(NodeId id, NodeId head);

  /// Moves `id` (a common node) into another head's cluster.
  void reassign_member(NodeId id, NodeId new_head);

  /// Removes `id` entirely (departure).  Members of a removed head keep
  /// their role but are flagged orphaned until reassigned.
  void remove(NodeId id);

  /// The head whose cluster `id` belongs to (itself for a head), or nullopt
  /// if unconfigured/orphaned.
  std::optional<NodeId> head_of(NodeId id) const;

  /// Members configured into `head`'s cluster (sorted; excludes the head).
  std::vector<NodeId> members_of(NodeId head) const;

  /// All current cluster heads, sorted (one ascending pass over the flag
  /// vector).
  std::vector<NodeId> heads() const;

  std::size_t head_count() const { return head_count_; }

  /// Cluster heads within `k` hops of `id` on the current topology
  /// (excluding `id` itself), sorted by (hop distance, id).  One
  /// depth-bounded BFS: costs the k-hop ball, not the network.
  std::vector<NodeId> heads_within(NodeId id, std::uint32_t k) const;

  /// Nearest cluster head reachable from `id` (any distance), or nullopt.
  std::optional<NodeId> nearest_head(NodeId id) const;

  /// Invariant from §II-B: no two cluster heads are one-hop neighbors.
  /// (May be transiently violated by mobility; the protocol tolerates it.)
  bool heads_nonadjacent() const;

 private:
  const Topology* topology_;
  std::unordered_map<NodeId, Role> roles_;
  std::unordered_map<NodeId, NodeId> member_head_;       // member -> head
  std::unordered_map<NodeId, std::unordered_set<NodeId>> cluster_;  // head -> members
  /// The head index: head_flag_[id] != 0 iff `id` is a cluster head.
  /// Id-indexed (ids are driver-assigned and dense), grown on set_head;
  /// ids past its end are not heads.
  std::vector<std::uint8_t> head_flag_;
  std::size_t head_count_ = 0;
};

}  // namespace qip
