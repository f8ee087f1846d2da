#include "net/topology.hpp"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "harness/env.hpp"

namespace qip {

namespace {

bool cache_enabled_from_env() {
  // QIP_TOPO_CACHE=off|0|false bypasses the cache — the escape hatch for
  // bisecting a suspected cache bug without a rebuild.
  const char* env = std::getenv("QIP_TOPO_CACHE");
  if (!env) return true;
  const std::string_view v(env);
  return !(v == "off" || v == "0" || v == "false");
}

}  // namespace

Topology::Topology(Rect area, double transmission_range)
    : area_(area),
      range_(transmission_range),
      index_(transmission_range),
      cache_enabled_(cache_enabled_from_env()),
      cache_(transmission_range) {
  QIP_ASSERT(transmission_range > 0.0);
  // Strict parse (exit 2 on a typo): a misspelled escape hatch silently
  // running the wrong code path is exactly what strictness prevents.
  cache_.set_incremental_enabled(env_bool("QIP_TOPO_INCR", true));
}

void Topology::add_node(NodeId id, const Point& pos) {
  QIP_ASSERT_MSG(area_.contains(pos), "position outside simulation area");
  index_.insert(id, pos);
  cache_.note_add(id, pos);
}

void Topology::remove_node(NodeId id) {
  index_.remove(id);
  cache_.note_remove(id);
}

void Topology::move_node(NodeId id, const Point& pos) {
  QIP_ASSERT_MSG(area_.contains(pos), "position outside simulation area");
  index_.move(id, pos);
  cache_.note_move(id, pos);
}

std::vector<NodeId> Topology::all_nodes() const {
  std::vector<NodeId> out;
  out.reserve(index_.size());
  index_.for_each([&](NodeId id, const Point&) { out.push_back(id); });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> Topology::neighbors_uncached(NodeId id) const {
  auto out = index_.query(index_.position(id), range_,
                          static_cast<std::int64_t>(id));
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> Topology::neighbors(NodeId id) const {
  if (cache_enabled_) return cache_.neighbors(index_, id);
  return neighbors_uncached(id);
}

const std::vector<NodeId>& Topology::neighbors_view(NodeId id) const {
  if (cache_enabled_) return cache_.neighbors(index_, id);
  scratch_nbrs_ = neighbors_uncached(id);
  return scratch_nbrs_;
}

bool Topology::covered(const Point& p) const {
  return !index_.query(p, range_).empty();
}

std::vector<std::pair<NodeId, std::uint32_t>> Topology::k_hop_neighbors(
    NodeId id, std::uint32_t k) const {
  return k_hop_view(id, k);
}

const std::vector<std::pair<NodeId, std::uint32_t>>& Topology::k_hop_view(
    NodeId id, std::uint32_t k) const {
  if (cache_enabled_) return cache_.k_hop(index_, id, k);
  scratch_khop_.clear();
  bfs_uncached(id, k, [&](NodeId n, std::uint32_t d) {
    if (d > 0) scratch_khop_.emplace_back(n, d);
  });
  std::sort(scratch_khop_.begin(), scratch_khop_.end());
  return scratch_khop_;
}

std::unordered_map<NodeId, std::uint32_t> Topology::hop_distances_from(
    NodeId from) const {
  QIP_ASSERT(has_node(from));
  std::unordered_map<NodeId, std::uint32_t> dist;
  // Both paths emplace in the same BFS discovery order (the cache's CSR
  // rows are rank-ascending, matching sorted neighbors), so even the
  // returned map's iteration order — observable through protocol
  // tie-breaks like Boleng's informant choice — is identical cached and
  // uncached.
  for_each_reachable(
      from, [&](NodeId n, std::uint32_t d) { dist.emplace(n, d); });
  return dist;
}

std::optional<std::uint32_t> Topology::hop_distance_uncached(NodeId from,
                                                             NodeId to) const {
  if (from == to) return 0;
  // Early-exit BFS.  The target test runs only on freshly discovered nodes:
  // a self-loop or duplicated id from a faulty index can therefore never
  // resurface `to` with an inflated distance (and the adjacency invariant
  // is asserted outright).
  std::unordered_map<NodeId, std::uint32_t> dist;
  dist.emplace(from, 0);
  std::vector<std::pair<NodeId, std::uint32_t>> frontier{{from, 0}};
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const auto [u, d] = frontier[head];
    for (NodeId v : neighbors_uncached(u)) {
      QIP_ASSERT_MSG(v != u, "self-loop in adjacency of node " << u);
      if (!dist.emplace(v, d + 1).second) continue;
      if (v == to) return d + 1;
      frontier.emplace_back(v, d + 1);
    }
  }
  return std::nullopt;
}

std::optional<std::uint32_t> Topology::hop_distance(NodeId from,
                                                    NodeId to) const {
  QIP_ASSERT(has_node(from) && has_node(to));
  if (!cache_enabled_) return hop_distance_uncached(from, to);
  if (from == to) return 0;
  if (!cache_.connected(index_, from, to)) return std::nullopt;
  const auto& graph = cache_.csr(index_);
  const auto src = graph.rank_of(from);
  const auto dst = graph.rank_of(to);
  QIP_ASSERT(src.has_value() && dst.has_value());
  return cache_.hop_distance(graph, *src, *dst);
}

bool Topology::reachable(NodeId from, NodeId to) const {
  QIP_ASSERT(has_node(from) && has_node(to));
  if (!cache_enabled_) return hop_distance_uncached(from, to).has_value();
  return from == to || cache_.connected(index_, from, to);
}

std::vector<NodeId> Topology::component_of(NodeId id) const {
  return component_view(id);
}

const std::vector<NodeId>& Topology::component_view(NodeId id) const {
  QIP_ASSERT(has_node(id));
  if (cache_enabled_) {
    const auto& comps = cache_.components(index_);
    const auto rank = cache_.csr(index_).rank_of(id);
    QIP_ASSERT(rank.has_value());
    return comps.groups[comps.group_of[*rank]];
  }
  scratch_comp_.clear();
  bfs_uncached(id, TopologyCache::kUnreached,
               [&](NodeId n, std::uint32_t) { scratch_comp_.push_back(n); });
  std::sort(scratch_comp_.begin(), scratch_comp_.end());
  return scratch_comp_;
}

std::vector<std::vector<NodeId>> Topology::components() const {
  return components_view();
}

const std::vector<std::vector<NodeId>>& Topology::components_view() const {
  if (cache_enabled_) return cache_.components(index_).groups;
  scratch_comps_.clear();
  std::unordered_set<NodeId> seen;
  for (NodeId id : all_nodes()) {
    if (seen.count(id)) continue;
    std::vector<NodeId> comp;
    bfs_uncached(id, TopologyCache::kUnreached,
                 [&](NodeId n, std::uint32_t) { comp.push_back(n); });
    std::sort(comp.begin(), comp.end());
    for (NodeId member : comp) seen.insert(member);
    scratch_comps_.push_back(std::move(comp));
  }
  // all_nodes() is sorted, so components are already ordered by smallest
  // member.
  return scratch_comps_;
}

std::uint32_t Topology::eccentricity(NodeId id) const {
  std::uint32_t ecc = 0;
  for_each_reachable(
      id, [&](NodeId, std::uint32_t d) { ecc = std::max(ecc, d); });
  return ecc;
}

}  // namespace qip
