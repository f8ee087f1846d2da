// The workloads (README.md says why each exists and which ones the benchmark
// runs).  Each one generates its whole script from (seed, rep) before any
// program call; the timed set-up is that generation plus World and protocol
// construction.
#include <cmath>
#include <string>
#include <vector>

#include "scenario.hpp"

namespace perfbench {

namespace {

constexpr double kRange = 150.0;

/// Independent stream for one (seed, rep, purpose) triple.
std::uint64_t derive(std::uint64_t seed, std::uint32_t rep,
                     std::uint64_t purpose) {
  qip::SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ULL * (rep + 1)) ^
                     (0xd1b54a32d192ed03ULL * (purpose + 1)));
  return sm.next();
}

std::uint64_t pool_for(std::uint64_t ids) {
  std::uint64_t pool = 1024;
  while (pool < 2 * ids) pool <<= 1;
  return pool;
}

/// The lossy radio plan: drop 0.1, duplicate 0.02, 10 ms jitter, and 5% of
/// the ids in [0, nodes) crashed for 15 s each, starting at a uniformly drawn
/// moment of [from, to).
qip::FaultPlan lossy_plan(NodeId nodes, SimTime from, SimTime to,
                          std::uint64_t seed) {
  qip::Rng rng(seed);
  qip::FaultPlan plan;
  plan.drop = 0.1;
  plan.duplicate = 0.02;
  plan.max_jitter = 0.01;
  plan.seed = rng.next();
  std::vector<NodeId> ids(nodes);
  for (NodeId id = 0; id < nodes; ++id) ids[id] = id;
  rng.shuffle(ids);
  for (NodeId k = 0; k < nodes / 20; ++k) {
    const SimTime at = rng.uniform(from, to);
    plan.node_outages.push_back(qip::NodeOutage{ids[k], at, at + 15.0});
  }
  return plan;
}

// ---------------------------------------------------------------------------
// city_day / city_blackout: bench/fig_metro's choreography at constant
// density, QIP only.  `graceful_share` of the departing third leaves with a
// farewell (city_day: half; city_blackout: none, the radios just go dark).

Script city_script(std::uint32_t n, double side, double graceful_share,
                   std::uint64_t seed) {
  qip::Rng rng(seed);
  const auto sample = [&] {
    return Point{rng.uniform(0.0, side), rng.uniform(0.0, side)};
  };
  std::vector<Point> pos(n);
  ScriptBuilder b;

  // Flash crowd: a seed node, then waves of ~n/20 arrivals per second.
  pos[0] = sample();
  b.join(0, pos[0]);
  b.run(3.0);
  const std::uint32_t wave = n / 20 + 1;
  for (NodeId id = 1; id < n;) {
    for (std::uint32_t k = 0; k < wave && id < n; ++k, ++id) {
      pos[id] = sample();
      b.join(id, pos[id]);
    }
    b.run(1.0);
  }
  b.run(10.0);
  b.phase_end(0);
  b.check();

  // Gauss-Markov drift: v' = a v + (1-a) mean + s sqrt(1-a^2) g, reflected at
  // the city limits, 20 one-second ticks.
  {
    const double alpha = 0.85, mean_v = 1.5, sigma = 0.6;
    const double noise = sigma * std::sqrt(1.0 - alpha * alpha);
    const auto gauss = [&rng] {
      return (rng.uniform() + rng.uniform() + rng.uniform() + rng.uniform()) *
                 2.0 -
             4.0;
    };
    std::vector<double> vx(n, 0.0), vy(n, 0.0);
    std::vector<std::pair<NodeId, Point>> moves(n);
    for (int tick = 0; tick < 20; ++tick) {
      for (NodeId id = 0; id < n; ++id) {
        vx[id] = alpha * vx[id] + (1.0 - alpha) * mean_v + noise * gauss();
        vy[id] = alpha * vy[id] + noise * gauss();
        Point& p = pos[id];
        p.x += vx[id];
        p.y += vy[id];
        if (p.x < 0.0) { p.x = -p.x; vx[id] = -vx[id]; }
        if (p.y < 0.0) { p.y = -p.y; vy[id] = -vy[id]; }
        if (p.x > side) { p.x = 2.0 * side - p.x; vx[id] = -vx[id]; }
        if (p.y > side) { p.y = 2.0 * side - p.y; vy[id] = -vy[id]; }
        moves[id] = {id, p};
      }
      b.tick(moves);
      b.run(1.0);
    }
  }
  b.phase_end(1);
  b.check();

  // Departure: a random third of the city (never the seed node) leaves in 20
  // batches; graceful and abrupt leavers interleave in the departure order.
  {
    std::vector<NodeId> order;
    for (NodeId id = 1; id < n; ++id) order.push_back(id);
    rng.shuffle(order);
    order.resize(n / 3);
    std::vector<NodeId> graceful, abrupt;
    double owed = 0.0;
    for (NodeId id : order) {
      owed += graceful_share;
      if (owed >= 1.0) {
        graceful.push_back(id);
        owed -= 1.0;
      } else {
        abrupt.push_back(id);
      }
    }
    const std::size_t batches = 20;
    for (std::size_t k = 0; k < batches; ++k) {
      const std::size_t glo = graceful.size() * k / batches;
      const std::size_t ghi = graceful.size() * (k + 1) / batches;
      const std::size_t alo = abrupt.size() * k / batches;
      const std::size_t ahi = abrupt.size() * (k + 1) / batches;
      for (std::size_t i = glo; i < ghi; ++i) b.depart(graceful[i]);
      b.run(0.5);  // farewells propagate before the radios go dark
      for (std::size_t i = glo; i < ghi; ++i) b.leave(graceful[i]);
      for (std::size_t i = alo; i < ahi; ++i) b.vanish(abrupt[i]);
      b.run(0.5);
    }
    b.run(10.0);
  }
  b.phase_end(2);
  b.check();

  // Quiescent plateau: hello beacons and nothing else.
  b.run(20.0);
  b.phase_end(3);
  return b.finish();
}

void city(double graceful_share, std::uint64_t seed, std::uint32_t rep,
          bool smoke, Ledger& ledger, RepResult& out) {
  const std::uint32_t n = smoke ? 300 : 5000;
  // Constant density: ~9 expected neighbours at any n, the paper's regime.
  const double side = std::sqrt(static_cast<double>(n) * 3.14159265358979 *
                                kRange * kRange / 9.0);
  Script script;
  out.setup_s += timed_setup(script, [&] {
    return city_script(n, side, graceful_share, derive(seed, rep, 1));
  });
  out.phase_names = {"flash_crowd", "drift", "departure", "plateau"};

  CellSpec spec;
  spec.script = &script;
  spec.world.area_side = side;
  spec.world.transmission_range = kRange;
  spec.world_seed = derive(seed, rep, 2);
  spec.proto = Proto::kQip;
  spec.pool_size = pool_for(n);
  run_cell(spec, ledger, out);
}

// ---------------------------------------------------------------------------
// paper_faceoff: the paper's figure cells, four protocols on one script per n,
// then QIP once more on the same script under lossy_plan (the benchmarked
// workload that reaches the reliable channel and the fault layer).

Script faceoff_script(std::uint32_t n, std::uint64_t seed) {
  MobileScript m(1000.0, kRange, 20.0, seed);
  for (std::uint32_t i = 0; i < n; ++i) m.join_one();
  m.run(2.0);
  m.depart_mixed(n * 3 / 10, 0.5, 0.3);
  m.run(2.0);
  return m.finish();
}

void paper_faceoff(std::uint64_t seed, std::uint32_t rep, bool smoke,
                   Ledger& ledger, RepResult& out) {
  const std::vector<std::uint32_t> sizes =
      smoke ? std::vector<std::uint32_t>{20, 40}
            : std::vector<std::uint32_t>{50, 100, 150, 200};
  struct Inputs {
    std::vector<Script> scripts;
    std::vector<qip::FaultPlan> plans;
  };
  Inputs in;
  out.setup_s += timed_setup(in, [&] {
    Inputs v;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      v.scripts.push_back(faceoff_script(sizes[i], derive(seed, rep, 10 + i)));
      v.plans.push_back(lossy_plan(v.scripts[i].nodes, 0.0, v.scripts[i].end,
                                   derive(seed, rep, 40 + i)));
    }
    return v;
  });
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    CellSpec spec;
    spec.script = &in.scripts[i];
    spec.world_seed = derive(seed, rep, 20 + i);
    spec.audit_period = 0.5;  // the Driver's always-on auditor period
    for (Proto p : {Proto::kQip, Proto::kManetConf, Proto::kBuddy,
                    Proto::kCTree}) {
      spec.proto = p;
      run_cell(spec, ledger, out);
    }
    spec.proto = Proto::kQip;
    spec.faults = in.plans[i];
    run_cell(spec, ledger, out);
  }
}

// ---------------------------------------------------------------------------
// lossy_churn: QIP at paper density under a fault plan, with churn waves.
// The nodes stand still (the Driver without mobility); README.md gives the
// measured alternatives.

void lossy_churn(std::uint64_t seed, std::uint32_t rep, bool smoke,
                 Ledger& ledger, RepResult& out) {
  const std::uint32_t n = smoke ? 60 : 600;
  const double side = 1000.0 * std::sqrt(n / 200.0);  // 200 nodes per km^2
  constexpr int kWaves = 10;
  const std::uint32_t per_wave = n / 20;

  struct Inputs {
    Script script;
    qip::FaultPlan plan;
  };
  Inputs in;
  out.setup_s += timed_setup(in, [&] {
    Inputs v;
    MobileScript m(side, kRange, 0.0, derive(seed, rep, 30));
    for (std::uint32_t i = 0; i < n; ++i) m.join_one();
    m.run(2.0);
    const SimTime churn_begin = m.now();
    for (int wave = 0; wave < kWaves; ++wave) {
      m.depart_mixed(per_wave, 0.5, 0.3);
      for (std::uint32_t i = 0; i < per_wave; ++i) m.join_one();
      m.run(5.0);
    }
    const SimTime churn_end = m.now();
    m.run(20.0);
    v.script = m.finish();
    // 5% of the first n radios crash at a moment of the churn.
    v.plan = lossy_plan(n, churn_begin, churn_end, derive(seed, rep, 31));
    return v;
  });

  CellSpec spec;
  spec.script = &in.script;
  spec.world.area_side = side;
  spec.world.transmission_range = kRange;
  spec.world_seed = derive(seed, rep, 32);
  spec.proto = Proto::kQip;
  spec.pool_size = pool_for(in.script.nodes);
  spec.faults = in.plan;
  spec.audit_period = 0.5;
  run_cell(spec, ledger, out);
}

}  // namespace

bool run_workload(const std::string& workload, std::uint64_t seed,
                  std::uint32_t rep, bool smoke, Ledger& ledger,
                  RepResult& out) {
  if (workload == "paper_faceoff") {
    paper_faceoff(seed, rep, smoke, ledger, out);
  } else if (workload == "city_blackout") {
    city(0.0, seed, rep, smoke, ledger, out);
  } else if (workload == "city_day") {
    city(0.5, seed, rep, smoke, ledger, out);
  } else if (workload == "lossy_churn") {
    lossy_churn(seed, rep, smoke, ledger, out);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
