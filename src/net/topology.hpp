// Wireless connectivity model: unit-disk graph over node positions.
//
// Two nodes are neighbors iff their distance is at most the transmission
// range (the paper's model, §VI-A).  The topology answers the queries the
// protocol and transport need: one-hop neighbors, k-hop neighborhoods, BFS
// hop distances / shortest paths, and connected components (for partition
// experiments).  Positions are indexed in a uniform grid so neighbor lookup
// is O(1) expected.
//
// Graph queries are memoized in an epoch-versioned TopologyCache: mutations
// bump the grid's epoch, derived state (adjacency rows, a flat CSR
// snapshot, components, k-hop sets) is rebuilt lazily, and a move only
// re-queries adjacency near the cells the mover left or entered.  Cached
// and uncached paths return identical results — down to the emplace order
// of the hop-distance map — so the cache is behavior-invariant; set
// QIP_TOPO_CACHE=off (or call set_cache_enabled(false)) to bypass it when
// bisecting (docs/SIMULATOR.md, "Topology cache").
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "geom/grid_index.hpp"
#include "geom/rect.hpp"
#include "net/node_id.hpp"
#include "net/topology_cache.hpp"
#include "util/assert.hpp"

namespace qip {

class Topology {
 public:
  Topology(Rect area, double transmission_range);

  const Rect& area() const { return area_; }
  double range() const { return range_; }

  void add_node(NodeId id, const Point& pos);
  void remove_node(NodeId id);
  void move_node(NodeId id, const Point& pos);
  bool has_node(NodeId id) const { return index_.contains(id); }
  const Point& position(NodeId id) const { return index_.position(id); }
  std::size_t node_count() const { return index_.size(); }
  std::vector<NodeId> all_nodes() const;

  /// Mutation epoch of the underlying grid (bumped by every add/remove/
  /// move).  Two equal epochs guarantee every query answer is unchanged.
  std::uint64_t epoch() const { return index_.epoch(); }

  /// Cache switch, default on (QIP_TOPO_CACHE=off or =0 in the environment
  /// starts it off).  Toggling at any time is safe: validity is epoch-based
  /// and both paths return identical results.
  bool cache_enabled() const { return cache_enabled_; }
  void set_cache_enabled(bool on) { cache_enabled_ = on; }

  /// Incremental CSR/components maintenance switch, default on
  /// (QIP_TOPO_INCR=off forces full rebuilds — the escape hatch for
  /// bisecting a suspected patch bug; malformed values exit(2),
  /// docs/SCALE.md).  Toggling at any time is safe: both paths produce
  /// identical snapshots.
  bool incremental_enabled() const { return cache_.incremental_enabled(); }
  void set_incremental_enabled(bool on) {
    cache_.set_incremental_enabled(on);
  }

  /// Maintenance counters for the differential tests and fig_metro phase
  /// reports: how often the snapshot was patched vs rebuilt, and how often
  /// a components repair ran vs bailed to a rebuild.
  std::uint64_t csr_full_rebuilds() const { return cache_.full_rebuilds(); }
  std::uint64_t csr_incremental_patches() const {
    return cache_.incremental_patches();
  }
  std::uint64_t component_repairs() const {
    return cache_.component_repairs();
  }
  std::uint64_t component_repair_bailouts() const {
    return cache_.repair_bailouts();
  }

  /// Binds the cache's rebuild ProfileScopes to `ctx` (null: the process
  /// context).  Called by World; behavior-invariant either way.
  void set_context(SimContext* ctx) { cache_.set_context(ctx); }

  /// One-hop neighbors of `id` (distance <= range, excluding `id`), sorted.
  std::vector<NodeId> neighbors(NodeId id) const;

  /// Same, without the copy.  The reference (like every *_view below) is
  /// valid until the next topology mutation; protocol handlers never mutate
  /// the topology, so holding one across a send is fine.
  const std::vector<NodeId>& neighbors_view(NodeId id) const;

  /// True iff at least one node lies within transmission range of `p`.
  bool covered(const Point& p) const;

  /// All nodes within `k` hops of `id`, excluding `id`, paired with their hop
  /// distance (sorted by id for determinism).
  std::vector<std::pair<NodeId, std::uint32_t>> k_hop_neighbors(
      NodeId id, std::uint32_t k) const;

  /// Same, without the copy (memoized per epoch).
  const std::vector<std::pair<NodeId, std::uint32_t>>& k_hop_view(
      NodeId id, std::uint32_t k) const;

  /// BFS hop distance, or nullopt if unreachable.  A pair in different
  /// components of the cached partition answers nullopt without a BFS; a
  /// connected pair costs an early-exit BFS over the nodes it visits.
  std::optional<std::uint32_t> hop_distance(NodeId from, NodeId to) const;

  /// Hop distances from `from` to every reachable node (including itself at
  /// hop 0).
  std::unordered_map<NodeId, std::uint32_t> hop_distances_from(
      NodeId from) const;

  /// Calls `fn(node, hops)` for every node reachable from `from` (including
  /// `from` itself at hop 0) in BFS discovery order, without materializing
  /// a map.  Preferred over hop_distances_from when the caller only folds
  /// over the distances.
  template <typename Fn>
  void for_each_reachable(NodeId from, Fn&& fn) const {
    QIP_ASSERT(has_node(from));
    if (!cache_enabled_) {
      bfs_uncached(from, TopologyCache::kUnreached,
                   [&](NodeId n, std::uint32_t d) { fn(n, d); });
      return;
    }
    const auto& graph = cache_.csr(index_);
    const auto src = graph.rank_of(from);
    QIP_ASSERT(src.has_value());
    cache_.bfs(graph, *src, TopologyCache::kUnreached,
               [&](std::uint32_t r, std::uint32_t d) { fn(graph.ids[r], d); });
  }

  /// Depth-bounded for_each_reachable: visits every node within `max_depth`
  /// hops of `from` (including `from` at hop 0) in BFS discovery order.
  /// The workhorse of expanding-ring searches (ClusterView::nearest_head):
  /// a bounded BFS costs the ring, not the component.
  template <typename Fn>
  void for_each_within(NodeId from, std::uint32_t max_depth, Fn&& fn) const {
    QIP_ASSERT(has_node(from));
    if (!cache_enabled_) {
      bfs_uncached(from, max_depth,
                   [&](NodeId n, std::uint32_t d) { fn(n, d); });
      return;
    }
    const auto& graph = cache_.csr(index_);
    const auto src = graph.rank_of(from);
    QIP_ASSERT(src.has_value());
    cache_.bfs(graph, *src, max_depth,
               [&](std::uint32_t r, std::uint32_t d) { fn(graph.ids[r], d); });
  }

  /// True iff a path joins `from` and `to` (both present).  With the cache
  /// on this is one comparison on the cached components partition: O(1)
  /// once the partition is current for this epoch, no BFS.
  bool reachable(NodeId from, NodeId to) const;

  /// Members of the connected component containing `id` (includes `id`),
  /// sorted by id.
  std::vector<NodeId> component_of(NodeId id) const;

  /// Same, without the copy (the cached partition's group).
  const std::vector<NodeId>& component_view(NodeId id) const;

  /// All connected components, each sorted, ordered by smallest member.
  std::vector<std::vector<NodeId>> components() const;

  /// Same, without the copy (memoized per epoch).
  const std::vector<std::vector<NodeId>>& components_view() const;

  /// Greatest hop distance from `id` to any node in its component.
  std::uint32_t eccentricity(NodeId id) const;

 private:
  /// Uncached reference implementation of the BFS queries: grid query +
  /// sort per visited node.  `fn(node, hops)` runs in discovery order.
  template <typename Fn>
  void bfs_uncached(NodeId from, std::uint32_t max_depth, Fn&& fn) const;

  std::vector<NodeId> neighbors_uncached(NodeId id) const;
  std::optional<std::uint32_t> hop_distance_uncached(NodeId from,
                                                     NodeId to) const;

  Rect area_;
  double range_;
  GridIndex index_;
  bool cache_enabled_;
  // The cache holds no back-reference (methods take the index), keeping
  // Topology movable; mutable because queries are logically const.
  mutable TopologyCache cache_;
  // Return slots for the *_view accessors when the cache is off.
  mutable std::vector<NodeId> scratch_nbrs_;
  mutable std::vector<std::pair<NodeId, std::uint32_t>> scratch_khop_;
  mutable std::vector<NodeId> scratch_comp_;
  mutable std::vector<std::vector<NodeId>> scratch_comps_;
};

template <typename Fn>
void Topology::bfs_uncached(NodeId from, std::uint32_t max_depth,
                            Fn&& fn) const {
  // Discovery distances double as the visited set; the frontier carries
  // each node's distance so the loop never re-reads the map (a plain
  // `dist[u]` would default-insert on a logic slip and mask missing-key
  // bugs).
  std::unordered_map<NodeId, std::uint32_t> dist;
  dist.emplace(from, 0);
  fn(from, 0);
  std::vector<std::pair<NodeId, std::uint32_t>> frontier{{from, 0}};
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const auto [u, d] = frontier[head];
    if (d == max_depth) continue;
    for (NodeId v : neighbors_uncached(u)) {
      QIP_ASSERT_MSG(v != u, "self-loop in adjacency of node " << u);
      if (!dist.emplace(v, d + 1).second) continue;
      fn(v, d + 1);
      frontier.emplace_back(v, d + 1);
    }
  }
}

}  // namespace qip
