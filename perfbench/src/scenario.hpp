// Scenario scripts and the cell runner.
//
// A workload is a fixed script of calls into the simulator's public API,
// generated in full from the seed before the clock starts: positions,
// trajectories, departure order and fault plan never depend on what the
// program did.  One *cell* replays one script against one protocol in a fresh
// World; the runner brackets every call in a ledger span and collects the
// simulated outcomes, the host cost and the output digest.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_plan.hpp"
#include "geom/point.hpp"
#include "harness/world.hpp"
#include "net/node_id.hpp"
#include "util/rng.hpp"

#include "ledger.hpp"

namespace perfbench {

using qip::NodeId;
using qip::Point;
using qip::SimTime;

enum class Op : std::uint8_t {
  kJoin,      ///< add_node at `p`, then node_entered
  kDepart,    ///< node_departing (graceful farewell; the node stays put)
  kLeave,     ///< remove_node, then node_left (end of a graceful departure)
  kVanish,    ///< remove_node, then node_vanished (abrupt departure)
  kTick,      ///< move_node for moves[first, last), then on_mobility_tick
  kCheck,     ///< UniquenessAuditor::check_now
  kPhaseEnd,  ///< closes phase number `id` (wall time and VmHWM)
};

struct Step {
  SimTime at = 0.0;
  Op op = Op::kCheck;
  NodeId id = qip::kNoNode;
  Point p{};
  std::uint32_t first = 0;
  std::uint32_t last = 0;
};

struct Script {
  std::vector<Step> steps;
  std::vector<std::pair<NodeId, Point>> moves;
  NodeId nodes = 0;    ///< ids [0, nodes) are used
  SimTime end = 0.0;   ///< the run continues to here after the last step
};

/// Appends time-ordered steps at a moving clock.
class ScriptBuilder {
 public:
  SimTime now() const { return now_; }
  void run(SimTime dt) { now_ += dt; }
  void join(NodeId id, const Point& p);
  void depart(NodeId id) { push(Op::kDepart, id); }
  void leave(NodeId id) { push(Op::kLeave, id); }
  void vanish(NodeId id) { push(Op::kVanish, id); }
  void tick(const std::vector<std::pair<NodeId, Point>>& moves);
  void check() { push(Op::kCheck, qip::kNoNode); }
  void phase_end(std::uint32_t phase) { push(Op::kPhaseEnd, phase); }
  Script finish();

 private:
  void push(Op op, NodeId id, const Point& p = {});

  Script script_;
  SimTime now_ = 0.0;
};

/// The Driver's choreography (harness/driver.cpp) as a script: arrivals 0.5 s
/// apart within radio range of the network, random-waypoint movement (no
/// pause) that starts once a node's arrival interval ends (none, and no
/// mobility ticks, at speed 0), and graceful
/// (farewell, 0.2 s settle, removal) or abrupt departures of uniformly chosen
/// members.  Trajectories are the benchmark's own, so a node starts moving
/// after its arrival interval whether or not it configured in time.
class MobileScript {
 public:
  MobileScript(double side, double range, double speed, std::uint64_t seed);

  NodeId join_one();
  /// `count` departures of random members, abrupt with `abrupt_ratio`, each
  /// followed by `gap` seconds (figures.cpp's depart_mixed).
  void depart_mixed(std::uint32_t count, double abrupt_ratio, SimTime gap);
  void run(SimTime dt);

  SimTime now() const { return b_.now(); }
  Script finish() { return b_.finish(); }

 private:
  struct Node {
    Point pos;
    Point target;
    bool present = false;
    bool moving = false;
  };

  void depart_graceful(NodeId id);
  void depart_abrupt(NodeId id);
  void advance_to(SimTime t);
  Point sample() { return {rng_.uniform(0.0, side_), rng_.uniform(0.0, side_)}; }
  bool covered(const Point& p) const;
  void remove_member(NodeId id);

  ScriptBuilder b_;
  qip::Rng rng_;
  double side_;
  double range_;
  double speed_;
  SimTime next_tick_ = 1.0;
  std::vector<Node> nodes_;
  std::vector<NodeId> members_;
};

enum class Proto : std::uint8_t { kQip, kManetConf, kBuddy, kCTree };
const char* proto_name(Proto p);

struct CellSpec {
  const Script* script = nullptr;
  qip::WorldParams world;
  std::uint64_t world_seed = 0;
  Proto proto = Proto::kQip;
  std::uint64_t pool_size = 1024;
  std::optional<qip::FaultPlan> faults;
  /// Period of the benchmark-owned auditor probe; 0 = only explicit checks.
  SimTime audit_period = 0.0;
};

/// Everything one repetition reports.  Counts and sums pool over cells.
struct RepResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double end_rss_mib = 0.0;
  std::uint64_t allocs = 0;
  std::uint64_t events = 0;
  std::uint64_t joins = 0;
  std::uint64_t joins_failed = 0;
  std::uint64_t present = 0;
  std::uint64_t unaddressed = 0;
  std::uint64_t protocol_hops = 0;
  std::uint64_t latency_sum = 0;
  std::uint64_t latency_n = 0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;  ///< FNV-1a offset basis
  /// Seconds of other layers' work nested inside World::run_for (traced).
  double sim_nested_s = 0.0;
  /// Per-layer metrics, `<module>.<metric>` -> value: the phase entries in
  /// every run, the rest only in traced runs.
  std::map<std::string, double> layers;
  std::vector<std::string> phase_names;
};

/// Runs one cell, adding its outcome to `out`.  Throws qip::InvariantViolation
/// on an auditor violation or an end-of-run duplicate address.
void run_cell(const CellSpec& spec, Ledger& ledger, RepResult& out);

/// Sum of the program's `profile_us{site=...}` histogram, in microseconds
/// (fed only while the process TraceRecorder is on).
double profile_us(const char* site);

/// Generates the workload's inputs from (seed, rep) and runs every cell of
/// it (workloads.cpp).  `smoke` selects tiny sizes for the smoke test.
/// Returns false for an unknown workload name.
bool run_workload(const std::string& workload, std::uint64_t seed,
                  std::uint32_t rep, bool smoke, Ledger& ledger,
                  RepResult& out);

/// Set-up is short, so one timing is noisy: builds `keep` five times with
/// `make` and returns the median build time (destruction untimed).
template <typename T, typename Make>
double timed_setup(T& keep, Make&& make) {
  std::array<double, 5> t{};
  for (std::size_t i = 0; i < t.size(); ++i) {
    const double t0 = wall_now_s();
    T v = make();
    t[i] = wall_now_s() - t0;
    if (i + 1 == t.size()) keep = std::move(v);
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

}  // namespace perfbench
