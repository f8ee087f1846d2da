// qip-perfbench: runs one repetition of one workload and prints its raw
// figures as a single JSON line.  perfbench/run.py drives it (one process per
// repetition, so VmHWM and VmRSS belong to that repetition alone) and turns
// the lines into the benchmark's metrics.
//
//   qip-perfbench --workload <name> --seed <n> --rep <k> --trace <0|1>
//                 [--smoke] [--spans <path>]
//
// --trace 1 switches on the ledger's spans, the process TraceRecorder (so the
// program's ProfileScope sites fill their histograms) and a counting QIP
// trace sink; the simulated outputs, and so the digest, must not change.
// The `layers` object holds only the metrics this run computed.
// Exit status 3 means the repetition tripped the correctness gate (a
// duplicate address), 2 a usage error, 1 any other failure.
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <new>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"
#include "scenario.hpp"
#include "util/assert.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter (the bench/fig_metro idiom).
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return ::operator new(n, std::nothrow);
}
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t allocs_now() { return g_allocs.load(std::memory_order_relaxed); }

namespace {

double status_mib(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  const std::size_t len = std::strlen(key);
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, len) == 0) {
      kib = std::strtod(line + len, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

}  // namespace

double peak_rss_mib() { return status_mib("VmHWM:"); }
double current_rss_mib() { return status_mib("VmRSS:"); }

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "qip-perfbench: %s\nusage: qip-perfbench --workload "
               "<paper_faceoff|city_blackout|city_day|lossy_churn> --seed <n> "
               "--rep <k> "
               "--trace <0|1> [--smoke] [--spans <path>]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    usage((std::string("invalid ") + flag + " value '" + text + "'").c_str());
  }
  return v;
}

/// Exit status of a repetition that tripped the correctness gate.
constexpr int kGateFailed = 3;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Folds the ledger's span totals and the program's profile histograms into
/// the per-cell sums `run_cell` collected.
void finish_layers(const Ledger& ledger, RepResult& r) {
  auto& L = r.layers;
  L["sim.run_s"] = ledger.seconds("sim.run");
  L["sim.self_s"] = L["sim.run_s"] - r.sim_nested_s;
  L["sim.ns_per_event"] = ratio(L["sim.run_s"] * 1e9, L["sim.events"]);
  L["net.topology.mutate_s"] = ledger.seconds("net.topology.mutate");
  L["net.topology.refresh_s"] = ledger.seconds("net.topology.refresh");
  L["net.topology.csr_patch_us"] = profile_us("topo_csr_patch");
  L["net.topology.csr_rebuild_us"] = profile_us("topo_csr_rebuild");
  L["net.topology.components_repair_us"] = profile_us("topo_components_repair");
  L["net.topology.components_rebuild_us"] =
      profile_us("topo_components_rebuild");
  const auto& flood =
      qip::obs::process_metrics().profile_histogram("transport_flood");
  L["net.transport.floods"] = static_cast<double>(flood.count());
  L["net.transport.flood_us"] = flood.sum();
  L["net.reliable_channel.delivered_share"] =
      ratio(L["net.reliable_channel.acks"],
            L["net.reliable_channel.acks"] + L["net.reliable_channel.gave_up"]);
  L["core.entry_s"] = ledger.seconds("core.entry");
  L["core.entry_calls"] = static_cast<double>(ledger.calls("core.entry"));
  L["core.config_success_ratio"] =
      ratio(L["core.config_successes"],
            L["core.config_successes"] + L["core.config_failures"]);
  L["harness.auditor.check_s"] = ledger.seconds("harness.auditor");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, spans;
  std::uint64_t seed = 0;
  std::uint64_t rep = 0;
  int trace = -1;
  bool smoke = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      seed = parse_u64("--seed", value());
      have_seed = true;
    } else if (a == "--rep") {
      rep = parse_u64("--rep", value());
    } else if (a == "--trace") {
      const std::uint64_t t = parse_u64("--trace", value());
      if (t > 1) usage("--trace must be 0 or 1");
      trace = static_cast<int>(t);
    } else if (a == "--smoke") {
      smoke = true;
    } else if (a == "--spans") {
      spans = value();
    } else {
      usage(("unknown argument '" + a + "'").c_str());
    }
  }
  if (workload.empty() || !have_seed || trace < 0) {
    usage("--workload, --seed and --trace are required");
  }
  if (rep > 1'000'000) usage("--rep out of range");

  Ledger ledger(trace == 1);
  RepResult r;
  if (trace == 1) qip::obs::process_recorder().enable();
  try {
    if (!run_workload(workload, seed, static_cast<std::uint32_t>(rep), smoke,
                      ledger, r)) {
      usage(("unknown workload '" + workload + "'").c_str());
    }
  } catch (const qip::InvariantViolation& e) {
    // The correctness gate: an auditor violation or an end-of-run duplicate.
    std::fprintf(stderr, "qip-perfbench: %s (seed %" PRIu64 ", rep %" PRIu64
                 "): %s\n",
                 workload.c_str(), seed, rep, e.what());
    return kGateFailed;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qip-perfbench: %s (seed %" PRIu64 ", rep %" PRIu64
                 "): %s\n",
                 workload.c_str(), seed, rep, e.what());
    return 1;
  }
  const double peak = peak_rss_mib();
  if (trace == 1) {
    finish_layers(ledger, r);
    if (!spans.empty() && !ledger.write_jsonl(spans)) {
      std::fprintf(stderr, "qip-perfbench: cannot write %s\n", spans.c_str());
      return 1;
    }
  }

  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"rep\":%" PRIu64
              ",\"trace\":%d,\"digest\":\"%016" PRIx64 "\"",
              workload.c_str(), seed, rep, trace, r.digest);
  const auto num = [](const char* key, double v) {
    std::printf(",\"%s\":%.17g", key, v);
  };
  const auto count = [](const char* key, std::uint64_t v) {
    std::printf(",\"%s\":%" PRIu64, key, v);
  };
  num("setup_s", r.setup_s);
  num("wall_s", r.wall_s);
  num("peak_rss_mib", peak);
  num("end_rss_mib", r.end_rss_mib);
  count("allocs", r.allocs);
  count("events", r.events);
  count("joins", r.joins);
  count("joins_failed", r.joins_failed);
  count("present", r.present);
  count("unaddressed", r.unaddressed);
  count("protocol_hops", r.protocol_hops);
  count("latency_sum", r.latency_sum);
  count("latency_n", r.latency_n);
  std::printf(",\"layers\":{");
  bool first = true;
  for (const auto& [name, v] : r.layers) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(), v);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
