// One function per table/figure of the paper's evaluation (§VI).
//
// Every function runs the full scenario the figure describes — sequential
// arrivals, random-waypoint movement, graceful/abrupt departures — for each
// x value and a configurable number of rounds, and returns the series the
// paper plots.  Bench binaries print these; EXPERIMENTS.md records them.
//
// The paper averages 1000 rounds; the default here is smaller so a full
// regeneration stays in laptop territory.  Set rounds (or the QIP_ROUNDS
// environment variable read by the benches) higher to tighten the CIs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "quorum/quorum_policy.hpp"
#include "util/table.hpp"

namespace qip {

struct FigureData {
  std::string title;
  std::string x_name;
  std::vector<double> x;
  std::vector<Series> series;

  std::string render(int precision = 2) const {
    return render_figure(title, x_name, x, series, precision);
  }
};

struct ExperimentOptions {
  std::uint32_t rounds = 3;
  std::uint64_t seed = 0x1cdc5'2007ULL;  // ICDCS'07
  /// Worker threads for replication (see docs/PARALLELISM.md).  Every cell
  /// runs on its own SimContext and results merge in deterministic order,
  /// so the output is byte-identical for every value — including 1.
  std::uint32_t jobs = 1;
  /// Quorum rule of every QIP engine the figure builds (the baselines have
  /// no quorums).  The paper's figures use the default.
  QuorumBackend quorum = QuorumBackend::kDynamicLinear;
};

/// Fig. 5 — configuration latency (hops) vs network size, tr = 150 m:
/// QIP vs MANETconf.
FigureData fig5_config_latency(const ExperimentOptions& opt);

/// Fig. 6 — configuration latency vs transmission range, nn = 100:
/// QIP vs MANETconf.
FigureData fig6_latency_vs_range(const ExperimentOptions& opt);

/// Fig. 7 — QIP configuration latency across (tr × nn).
FigureData fig7_latency_grid(const ExperimentOptions& opt);

/// Fig. 8 — configuration message overhead (hops per configured node) vs
/// network size: QIP vs the buddy protocol [2].
FigureData fig8_config_overhead(const ExperimentOptions& opt);

/// Fig. 9 — departure message overhead (hops per departure) vs network
/// size: QIP vs the buddy protocol [2].
FigureData fig9_departure_overhead(const ExperimentOptions& opt);

/// Fig. 10 — maintenance overhead for movement + departure vs network size,
/// 20 m/s: QIP periodic update, QIP upon-leave update, C-tree [3].
FigureData fig10_maintenance(const ExperimentOptions& opt);

/// Fig. 11 — movement message overhead vs node speed, nn = 150:
/// QIP periodic update vs upon-leave update.
FigureData fig11_speed(const ExperimentOptions& opt);

/// Fig. 12 — visible IP space per head (QuorumSpace extension) vs network
/// size and transmission range: QIP vs C-tree, reported as the ratio.
FigureData fig12_quorum_space(const ExperimentOptions& opt);

/// Fig. 13 — percentage of IP state information lost vs abrupt-leave ratio:
/// QIP (replicated QDSets) vs C-tree (root snapshots).
FigureData fig13_info_loss(const ExperimentOptions& opt);

/// Fig. 14 — address reclamation overhead vs network size:
/// QIP (local, quorum-based) vs C-tree (root-driven global flood).
FigureData fig14_reclamation(const ExperimentOptions& opt);

/// Fig. 4 — a randomly generated layout (returns cluster statistics; the
/// bench renders an ASCII map).
struct LayoutStats {
  std::size_t nodes = 0;
  std::size_t heads = 0;
  double mean_cluster_size = 0.0;
  double mean_qdset = 0.0;
  std::string ascii_map;
};
LayoutStats fig4_layout(std::uint64_t seed, std::uint32_t nn = 100,
                        double tr = 150.0);

/// Reads QIP_ROUNDS from the environment (benches honor it), defaulting to
/// `fallback`.  Malformed values are rejected with exit(2) — a typo must
/// not silently demote a long run to the default replication count.
std::uint32_t rounds_from_env(std::uint32_t fallback);

}  // namespace qip
