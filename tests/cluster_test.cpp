// Unit tests for the cluster view (§II-B's two-layer hierarchy).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "cluster/cluster_view.hpp"
#include "net/topology.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace qip {
namespace {

struct ClusterFixture : ::testing::Test {
  // Chain 0-1-2-3-4-5-6, 100 m spacing, 120 m range.
  Topology topo{Rect{1000.0, 1000.0}, 120.0};
  ClusterView view{topo};

  void SetUp() override {
    for (std::uint32_t i = 0; i < 7; ++i) {
      topo.add_node(i, {100.0 * i, 0.0});
    }
  }
};

TEST_F(ClusterFixture, RolesStartUnconfigured) {
  EXPECT_EQ(view.role(3), Role::kUnconfigured);
  EXPECT_FALSE(view.head_of(3).has_value());
}

TEST_F(ClusterFixture, HeadAndMembers) {
  view.set_head(0);
  view.set_member(1, 0);
  view.set_member(2, 0);
  EXPECT_TRUE(view.is_head(0));
  EXPECT_EQ(view.role(1), Role::kCommonNode);
  EXPECT_EQ(view.head_of(1), 0u);
  EXPECT_EQ(view.head_of(0), 0u);
  EXPECT_EQ(view.members_of(0), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(view.head_count(), 1u);
}

TEST_F(ClusterFixture, ReassignMember) {
  view.set_head(0);
  view.set_head(4);
  view.set_member(2, 0);
  view.reassign_member(2, 4);
  EXPECT_EQ(view.head_of(2), 4u);
  EXPECT_TRUE(view.members_of(0).empty());
  EXPECT_EQ(view.members_of(4), (std::vector<NodeId>{2}));
}

TEST_F(ClusterFixture, RemoveHeadOrphansMembers) {
  view.set_head(0);
  view.set_member(1, 0);
  view.remove(0);
  EXPECT_EQ(view.role(0), Role::kUnconfigured);
  EXPECT_EQ(view.role(1), Role::kCommonNode);  // still configured...
  EXPECT_FALSE(view.head_of(1).has_value());   // ...but orphaned
  EXPECT_EQ(view.head_count(), 0u);
}

TEST_F(ClusterFixture, MemberPromotedToHeadLeavesCluster) {
  view.set_head(0);
  view.set_member(3, 0);
  view.set_head(3);  // partition recovery promotes a member
  EXPECT_TRUE(view.is_head(3));
  EXPECT_TRUE(view.members_of(0).empty());
}

TEST_F(ClusterFixture, HeadsWithinRadius) {
  view.set_head(0);
  view.set_head(2);
  view.set_head(5);
  // From node 1: head 0 and 2 at one hop, head 5 at 4 hops.
  EXPECT_EQ(view.heads_within(1, 2), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(view.heads_within(1, 4), (std::vector<NodeId>{0, 2, 5}));
  // Sorted by hop distance first.
  EXPECT_EQ(view.heads_within(4, 3).front(), 5u);
}

TEST_F(ClusterFixture, NearestHead) {
  view.set_head(0);
  view.set_head(6);
  EXPECT_EQ(view.nearest_head(2), 0u);
  EXPECT_EQ(view.nearest_head(5), 6u);
  // Unreachable island has no head.
  topo.add_node(42, {900.0, 900.0});
  EXPECT_FALSE(view.nearest_head(42).has_value());
}

TEST_F(ClusterFixture, HeadsNonadjacentInvariant) {
  view.set_head(0);
  view.set_head(2);
  EXPECT_TRUE(view.heads_nonadjacent());
  view.set_head(3);  // neighbor of 2
  EXPECT_FALSE(view.heads_nonadjacent());
}

TEST_F(ClusterFixture, DoubleHeadThrows) {
  view.set_head(0);
  EXPECT_THROW(view.set_head(0), InvariantViolation);
}

TEST_F(ClusterFixture, MemberUnderNonHeadThrows) {
  EXPECT_THROW(view.set_member(1, 0), InvariantViolation);
}

TEST_F(ClusterFixture, HeadCannotBecomeMember) {
  view.set_head(0);
  view.set_head(2);
  EXPECT_THROW(view.set_member(2, 0), InvariantViolation);
}

TEST_F(ClusterFixture, HeadsSorted) {
  view.set_head(4);
  view.set_head(0);
  view.set_head(2);
  EXPECT_EQ(view.heads(), (std::vector<NodeId>{0, 2, 4}));
}

// ---------------------------------------------------------------------------
// Differential: ClusterView's head queries vs. a brute-force oracle built
// from hop_distances_from, under random role churn on a random topology.
// ---------------------------------------------------------------------------

TEST(ClusterViewDifferential, HeadQueriesMatchOracleUnderChurn) {
  const Rect area{1000.0, 1000.0};
  const double range = 160.0;
  Rng rng(0xc1a5);
  Topology topo(area, range);
  ClusterView view(topo);
  // Ids 0..79 take roles; 500..519 are plain topology nodes that never
  // become heads, so their ids lie past the end of the head flag vector.
  std::vector<NodeId> nodes;
  for (NodeId id = 0; id < 80; ++id) nodes.push_back(id);
  for (NodeId id = 500; id < 520; ++id) nodes.push_back(id);
  for (NodeId id : nodes) topo.add_node(id, area.sample(rng));
  std::set<NodeId> heads;  // oracle head set
  const auto pick = [&] { return nodes[rng.index(nodes.size())]; };

  for (int step = 0; step < 400; ++step) {
    // Role churn on ids 0..79.
    const NodeId v = static_cast<NodeId>(rng.index(80));
    const double r = rng.uniform(0.0, 1.0);
    if (r < 0.3) {
      if (!heads.count(v)) {
        view.set_head(v);
        heads.insert(v);
      }
    } else if (r < 0.6) {
      if (!heads.count(v) && !heads.empty()) {
        const NodeId h = *std::next(
            heads.begin(),
            static_cast<std::ptrdiff_t>(rng.index(heads.size())));
        view.set_member(v, h);
      }
    } else if (r < 0.8) {
      view.remove(v);
      heads.erase(v);
    } else {
      topo.move_node(v, area.sample(rng));
    }

    ASSERT_EQ(view.heads(), std::vector<NodeId>(heads.begin(), heads.end()))
        << "step " << step;
    ASSERT_EQ(view.head_count(), heads.size());

    bool nonadjacent = true;
    for (NodeId h : heads) {
      for (NodeId n : topo.neighbors(h)) nonadjacent &= !heads.count(n);
    }
    ASSERT_EQ(view.heads_nonadjacent(), nonadjacent) << "step " << step;

    for (int probe = 0; probe < 4; ++probe) {
      const NodeId id = pick();
      const auto dist = topo.hop_distances_from(id);
      std::vector<std::pair<std::uint32_t, NodeId>> ranked;
      for (const auto& [n, d] : dist) {
        if (n != id && heads.count(n)) ranked.emplace_back(d, n);
      }
      std::sort(ranked.begin(), ranked.end());
      const std::optional<NodeId> want_nearest =
          ranked.empty() ? std::nullopt : std::optional(ranked.front().second);
      ASSERT_EQ(view.nearest_head(id), want_nearest)
          << "step " << step << " node " << id;
      for (std::uint32_t k = 1; k <= 5; ++k) {
        std::vector<NodeId> want;
        for (const auto& [d, n] : ranked) {
          if (d <= k) want.push_back(n);
        }
        ASSERT_EQ(view.heads_within(id, k), want)
            << "step " << step << " node " << id << " k " << k;
      }
      ASSERT_EQ(view.is_head(id), heads.count(id) == 1);
    }
  }
}

}  // namespace
}  // namespace qip
