#include "scenario.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "baselines/buddy.hpp"
#include "baselines/ctree.hpp"
#include "baselines/manetconf.hpp"
#include "core/qip_engine.hpp"
#include "harness/auditor.hpp"
#include "obs/metrics.hpp"
#include "sim/arena.hpp"
#include "util/assert.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Script generation

void ScriptBuilder::push(Op op, NodeId id, const Point& p) {
  Step s;
  s.at = now_;
  s.op = op;
  s.id = id;
  s.p = p;
  script_.steps.push_back(s);
}

void ScriptBuilder::join(NodeId id, const Point& p) {
  push(Op::kJoin, id, p);
  if (id + 1 > script_.nodes) script_.nodes = id + 1;
}

void ScriptBuilder::tick(const std::vector<std::pair<NodeId, Point>>& moves) {
  Step s;
  s.at = now_;
  s.op = Op::kTick;
  s.first = static_cast<std::uint32_t>(script_.moves.size());
  script_.moves.insert(script_.moves.end(), moves.begin(), moves.end());
  s.last = static_cast<std::uint32_t>(script_.moves.size());
  script_.steps.push_back(s);
}

Script ScriptBuilder::finish() {
  script_.end = now_;
  return std::move(script_);
}

MobileScript::MobileScript(double side, double range, double speed,
                           std::uint64_t seed)
    : rng_(seed), side_(side), range_(range), speed_(speed) {}

bool MobileScript::covered(const Point& p) const {
  for (const Node& n : nodes_) {
    if (n.present && qip::distance(n.pos, p) <= range_) return true;
  }
  return false;
}

void MobileScript::advance_to(SimTime t) {
  // Mobility ticks fall on whole seconds and run before any call scheduled
  // at the same instant (the MobilityManager's tick is a simulator event).
  std::vector<std::pair<NodeId, Point>> moves;
  while (next_tick_ <= t) {
    b_.run(next_tick_ - b_.now());
    moves.clear();
    for (NodeId id = 0; id < nodes_.size(); ++id) {
      Node& n = nodes_[id];
      if (!n.moving) continue;
      const Point next = qip::advance(n.pos, n.target, speed_);
      if (next == n.target) n.target = sample();
      n.pos = {std::clamp(next.x, 0.0, side_), std::clamp(next.y, 0.0, side_)};
      moves.emplace_back(id, n.pos);
    }
    if (!moves.empty()) b_.tick(moves);
    next_tick_ += 1.0;
  }
  b_.run(t - b_.now());
}

void MobileScript::run(SimTime dt) { advance_to(b_.now() + dt); }

NodeId MobileScript::join_one() {
  const auto id = static_cast<NodeId>(nodes_.size());
  Point p = sample();
  if (!members_.empty()) {
    // Rejection-sample until the newcomer hears the network, giving up after
    // the Driver's bound of 200 tries.
    for (int tries = 1; tries < 200 && !covered(p); ++tries) p = sample();
  }
  nodes_.push_back(Node{p, p, true, false});
  b_.join(id, p);
  run(0.5);
  nodes_[id].moving = speed_ > 0.0;
  nodes_[id].target = sample();
  members_.push_back(id);
  return id;
}

void MobileScript::remove_member(NodeId id) {
  members_.erase(std::find(members_.begin(), members_.end(), id));
}

void MobileScript::depart_graceful(NodeId id) {
  remove_member(id);
  b_.depart(id);
  run(0.2);  // the Driver's departure_settle; the node keeps moving meanwhile
  nodes_[id].moving = false;
  nodes_[id].present = false;
  b_.leave(id);
}

void MobileScript::depart_abrupt(NodeId id) {
  remove_member(id);
  nodes_[id].moving = false;
  nodes_[id].present = false;
  b_.vanish(id);
}

void MobileScript::depart_mixed(std::uint32_t count, double abrupt_ratio,
                                SimTime gap) {
  for (std::uint32_t i = 0; i < count && !members_.empty(); ++i) {
    const NodeId victim = members_[rng_.index(members_.size())];
    if (rng_.chance(abrupt_ratio)) {
      depart_abrupt(victim);
    } else {
      depart_graceful(victim);
    }
    run(gap);
  }
}

// ---------------------------------------------------------------------------
// Cell runner

const char* proto_name(Proto p) {
  switch (p) {
    case Proto::kQip: return "qip";
    case Proto::kManetConf: return "manetconf";
    case Proto::kBuddy: return "buddy";
    case Proto::kCTree: return "ctree";
  }
  return "?";
}

namespace {

struct Instance {
  std::unique_ptr<qip::World> world;
  std::unique_ptr<qip::AutoconfProtocol> proto;
  qip::QipEngine* qip = nullptr;
  std::unique_ptr<qip::UniquenessAuditor> auditor;
};

/// World, fault plan, protocol (the figures.cpp factories) and an auditor
/// whose own probe never fires: the benchmark calls check_now itself.
Instance construct(const CellSpec& spec) {
  Instance in;
  in.world = std::make_unique<qip::World>(spec.world, spec.world_seed);
  qip::World& w = *in.world;
  if (spec.faults) w.enable_faults(*spec.faults);
  switch (spec.proto) {
    case Proto::kQip: {
      qip::QipParams p;
      p.pool_size = spec.pool_size;
      auto e = std::make_unique<qip::QipEngine>(w.transport(), w.rng(), p);
      e->start_hello();
      in.qip = e.get();
      in.proto = std::move(e);
      break;
    }
    case Proto::kManetConf: {
      qip::ManetConfParams p;
      p.pool_size = spec.pool_size;
      in.proto = std::make_unique<qip::ManetConf>(w.transport(), w.rng(), p);
      break;
    }
    case Proto::kBuddy: {
      qip::BuddyParams p;
      p.pool_size = spec.pool_size;
      auto b = std::make_unique<qip::BuddyProtocol>(w.transport(), w.rng(), p);
      b->start_sync();
      in.proto = std::move(b);
      break;
    }
    case Proto::kCTree: {
      qip::CTreeParams p;
      p.pool_size = spec.pool_size;
      auto c = std::make_unique<qip::CTreeProtocol>(w.transport(), w.rng(), p);
      c->start_updates();
      in.proto = std::move(c);
      break;
    }
  }
  in.auditor = std::make_unique<qip::UniquenessAuditor>(
      w.sim(), w.topology(), *in.proto,
      std::numeric_limits<SimTime>::infinity());
  return in;
}

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
}

/// The strict end-of-workload gate: no two nodes in one connected component
/// and one audit domain hold the same address (no grace window).
void check_unique_at_end(qip::World& w, const qip::AutoconfProtocol& proto) {
  if (!proto.audit_uniqueness()) return;
  for (const auto& component : w.topology().components_view()) {
    std::map<std::pair<std::uint64_t, std::uint32_t>, NodeId> holder;
    for (NodeId id : component) {
      const auto addr = proto.address_of(id);
      if (!addr) continue;
      const auto [it, fresh] =
          holder.emplace(std::make_pair(proto.audit_domain(id), addr->value()),
                         id);
      QIP_ASSERT_MSG(fresh, "end of run: duplicate address " << *addr
                                           << " held by nodes "
                                           << it->second << " and " << id
                                           << " in one component ("
                                           << proto.name() << ")");
    }
  }
}

// ProfileScope sites inside the program, read back by name.
constexpr const char* kTopoSites[] = {"topo_csr_patch", "topo_csr_rebuild",
                                      "topo_components_repair",
                                      "topo_components_rebuild"};
}  // namespace

double profile_us(const char* site) {
  return qip::obs::process_metrics().profile_histogram(site).sum();
}

namespace {

/// Wall time nested inside World::run_for that belongs to other layers.
double nested_profile_us() {
  double us = profile_us("transport_flood");
  for (const char* s : kTopoSites) us += profile_us(s);
  return us;
}

struct TracedMsg {
  qip::QipMsg msg;
  const char* metric;
};
constexpr TracedMsg kTracedMsgs[] = {
    {qip::QipMsg::kQuorumClt, "core.msg.quorum_clt"},
    {qip::QipMsg::kQuorumCfm, "core.msg.quorum_cfm"},
    {qip::QipMsg::kQuorumUpd, "core.msg.quorum_upd"},
    {qip::QipMsg::kQuorumRel, "core.msg.quorum_rel"},
    {qip::QipMsg::kQdJoin, "core.msg.qd_join"},
    {qip::QipMsg::kUpdateLoc, "core.msg.update_loc"},
    {qip::QipMsg::kAddrRec, "core.msg.addr_rec"},
    {qip::QipMsg::kRepReq, "core.msg.rep_req"},
    {qip::QipMsg::kMergePoll, "core.msg.merge_poll"},
};

}  // namespace

void run_cell(const CellSpec& spec, Ledger& ledger, RepResult& out) {
  const Script& script = *spec.script;

  // Read-only instruments of the traced run (declared before the instance
  // whose probes and trace sink refer to them).
  std::array<std::uint64_t, 256> msg_counts{};
  std::size_t peak_live = 0;

  // Set-up: World and protocol construction.
  Instance in;
  out.setup_s += timed_setup(in, [&] { return construct(spec); });
  qip::World& w = *in.world;
  qip::Simulator& sim = w.sim();
  qip::Topology& topo = w.topology();
  qip::AutoconfProtocol& proto = *in.proto;
  const bool is_qip = in.qip != nullptr;
  const char* engine_span = is_qip ? "core.entry" : "baselines.entry";
  auto& L = out.layers;

  if (ledger.on()) {
    if (is_qip) {
      in.qip->set_trace([&msg_counts](const qip::TraceEvent& e) {
        ++msg_counts[static_cast<std::uint8_t>(e.msg)];
      });
    }
    sim.add_probe(0.05, [&] {
      if (sim.live_events() > peak_live) peak_live = sim.live_events();
    });
  }
  if (spec.audit_period > 0.0) {
    sim.add_probe(spec.audit_period, [&] {
      ledger.span("harness.auditor", [&] { in.auditor->check_now(); });
    });
  }

  const auto& arena = qip::CaptureArena::instance();
  const std::uint64_t arena_fresh0 = arena.fresh();
  const std::uint64_t arena_reused0 = arena.reused();
  double sim_nested_s = 0.0;
  std::uint64_t sim_allocs = 0;

  const auto run_to = [&](SimTime t) {
    if (!ledger.on()) {
      w.run_for(t - sim.now());
      return;
    }
    const double nested0 =
        nested_profile_us() * 1e-6 + ledger.seconds("harness.auditor");
    const std::uint64_t allocs0 = allocs_now();
    ledger.span("sim.run", [&] { w.run_for(t - sim.now()); });
    sim_allocs += allocs_now() - allocs0;
    sim_nested_s += nested_profile_us() * 1e-6 +
                    ledger.seconds("harness.auditor") - nested0;
  };
  const auto mutate = [&](auto&& fn) {
    ledger.span("net.topology.mutate", fn);
    // Force the connectivity refresh here, so its cost is not charged to
    // whichever engine call happens to query the topology first.
    ledger.span("net.topology.refresh", [&] { (void)topo.components_view(); });
  };
  const auto engine = [&](auto&& fn) { ledger.span(engine_span, fn); };

  std::vector<std::pair<double, double>> phase_marks;  // (wall s, VmHWM MiB)
  std::uint64_t joins = 0;

  const double t0 = wall_now_s();
  const std::uint64_t allocs0 = allocs_now();
  double phase_t0 = t0;
  for (const Step& s : script.steps) {
    if (s.at > sim.now()) run_to(s.at);
    switch (s.op) {
      case Op::kJoin:
        mutate([&] { topo.add_node(s.id, s.p); });
        engine([&] { proto.node_entered(s.id); });
        ++joins;
        break;
      case Op::kDepart:
        engine([&] { proto.node_departing(s.id); });
        break;
      case Op::kLeave:
        mutate([&] { topo.remove_node(s.id); });
        engine([&] { proto.node_left(s.id); });
        break;
      case Op::kVanish:
        mutate([&] { topo.remove_node(s.id); });
        engine([&] { proto.node_vanished(s.id); });
        break;
      case Op::kTick:
        mutate([&] {
          for (std::uint32_t i = s.first; i < s.last; ++i)
            topo.move_node(script.moves[i].first, script.moves[i].second);
        });
        engine([&] { proto.on_mobility_tick(); });
        break;
      case Op::kCheck:
        ledger.span("harness.auditor", [&] { in.auditor->check_now(); });
        break;
      case Op::kPhaseEnd: {
        const double now = wall_now_s();
        phase_marks.emplace_back(now - phase_t0, peak_rss_mib());
        phase_t0 = now;
        break;
      }
    }
  }
  if (script.end > sim.now()) run_to(script.end);
  const double run_s = wall_now_s() - t0;
  const std::uint64_t allocs = allocs_now() - allocs0;

  // Correctness gate: one more audit, then the strict end-of-run check.
  ledger.span("harness.auditor", [&] { in.auditor->check_now(); });
  check_unique_at_end(w, proto);

  // Simulated outcomes and the output digest.
  const qip::MessageStats& stats = w.stats();
  std::uint64_t& h = out.digest;
  fnv(h, sim.events_executed());
  for (std::size_t t = 0; t < static_cast<std::size_t>(qip::Traffic::kCount);
       ++t) {
    const auto& c = stats.of(static_cast<qip::Traffic>(t));
    fnv(h, c.messages);
    fnv(h, c.hops);
  }
  for (NodeId id = 0; id < script.nodes; ++id) {
    const auto addr = proto.address_of(id);
    fnv(h, addr ? addr->value() : 0x1'0000'0000ULL);
    const qip::ConfigRecord* rec = proto.config_record(id);
    if (rec == nullptr || !rec->success) {
      ++out.joins_failed;
    } else {
      out.latency_sum += rec->latency_hops;
      ++out.latency_n;
    }
    if (topo.has_node(id)) {
      ++out.present;
      if (!addr) ++out.unaddressed;
    }
  }
  // Ids that never joined would count as failed above; the scripts use every
  // id in [0, nodes), so this only guards a script bug.
  QIP_ASSERT_MSG(joins == script.nodes, "script joined " << joins << " of "
                                                         << script.nodes
                                                         << " ids");
  out.joins += joins;
  out.protocol_hops += stats.protocol_hops();
  out.events += sim.events_executed();
  out.allocs += allocs;
  out.wall_s += run_s;
  out.end_rss_mib = current_rss_mib();

  // Phase figures come from every run: memory is read untraced.
  for (std::size_t i = 0; i < phase_marks.size(); ++i) {
    const std::string name = i < out.phase_names.size()
                                 ? out.phase_names[i]
                                 : "phase" + std::to_string(i);
    L["phase." + name + ".run_s"] += phase_marks[i].first;
    L["phase." + name + ".peak_rss_mib"] = phase_marks[i].second;
  }
  if (!ledger.on()) return;

  // -- Per-layer ledger ------------------------------------------------------
  out.sim_nested_s += sim_nested_s;
  L["sim.events"] += static_cast<double>(sim.events_executed());
  L["sim.allocs"] += static_cast<double>(sim_allocs);
  L["sim.arena_fresh"] += static_cast<double>(arena.fresh() - arena_fresh0);
  L["sim.arena_reused"] += static_cast<double>(arena.reused() - arena_reused0);
  if (static_cast<double>(peak_live) > L["sim.peak_live_events"])
    L["sim.peak_live_events"] = static_cast<double>(peak_live);

  L["net.topology.csr_patches"] +=
      static_cast<double>(topo.csr_incremental_patches());
  L["net.topology.csr_rebuilds"] +=
      static_cast<double>(topo.csr_full_rebuilds());
  L["net.topology.component_repairs"] +=
      static_cast<double>(topo.component_repairs());
  L["net.topology.repair_bailouts"] +=
      static_cast<double>(topo.component_repair_bailouts());

  std::uint64_t messages = 0;
  for (std::size_t t = 0; t < static_cast<std::size_t>(qip::Traffic::kCount);
       ++t) {
    const auto tr = static_cast<qip::Traffic>(t);
    messages += stats.of(tr).messages;
    L[std::string("net.transport.hops.") + qip::to_string(tr)] +=
        static_cast<double>(stats.of(tr).hops);
  }
  L["net.transport.messages"] += static_cast<double>(messages);
  L["net.transport.dropped_in_flight"] +=
      static_cast<double>(stats.dropped_in_flight());
  L["harness.auditor.checks"] += static_cast<double>(in.auditor->checks());

  if (const qip::FaultInjector* f = w.faults()) {
    L["fault.dropped"] += static_cast<double>(f->stats().dropped);
    L["fault.duplicated"] += static_cast<double>(f->stats().duplicated);
    L["fault.blackouts"] += static_cast<double>(f->stats().blackouts);
    L["fault.sends_blocked"] += static_cast<double>(f->stats().sends_blocked);
  }

  if (is_qip) {
    const qip::QipEngine& e = *in.qip;
    const qip::ReliableChannel& ch = e.channel();
    L["net.reliable_channel.retransmissions"] +=
        static_cast<double>(ch.retransmissions());
    L["net.reliable_channel.acks"] += static_cast<double>(ch.acks_received());
    L["net.reliable_channel.gave_up"] += static_cast<double>(ch.gave_up());
    L["net.reliable_channel.duplicates_suppressed"] +=
        static_cast<double>(ch.duplicates_suppressed());
    L["core.config_successes"] += static_cast<double>(e.config_successes());
    L["core.config_failures"] += static_cast<double>(e.config_failures());
    L["core.reclaims_started"] += static_cast<double>(e.reclaims_started());
    L["core.reclaims_completed"] +=
        static_cast<double>(e.reclaims_completed());
    L["core.merges_handled"] += static_cast<double>(e.merges_handled());
    L["quorum.avg_qdset"] = e.average_qdset_size();
    L["cluster.heads"] = static_cast<double>(e.clusters().head_count());
    for (const TracedMsg& m : kTracedMsgs) {
      L[m.metric] += static_cast<double>(
          msg_counts[static_cast<std::uint8_t>(m.msg)]);
    }
    L["core.cell_s"] += run_s;
  } else {
    L[std::string("baselines.") + proto_name(spec.proto) + ".cell_s"] +=
        run_s;
  }
}

}  // namespace perfbench
