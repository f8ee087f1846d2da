// Shared main() skeleton for the figure-reproduction benches.
//
// Each bench binary regenerates one figure of the paper and prints the same
// series the paper plots, as an aligned table.  QIP_ROUNDS in the
// environment raises the number of rounds per data point (default is small
// so the whole suite finishes in minutes; the paper used 1000).
//
// Replication parallelism: --jobs N (or QIP_JOBS) fans the (x, round) cells
// across N worker threads.  The output is byte-identical for every value —
// the point of the deterministic runner — so the table deliberately never
// mentions which jobs count produced it.
//
// Any other argument, or a --jobs without a value, is a usage error
// (stderr + exit 2) before any cell runs.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "harness/figures.hpp"
#include "harness/parallel.hpp"
#include "util/env.hpp"

namespace qip::benchmain {

/// Parses --jobs N / --jobs=N, falling back to QIP_JOBS, then `fallback`.
/// --jobs is the only argument a figure bench takes.
inline std::uint32_t jobs_from_args(int argc, const char* const* argv,
                                    std::uint32_t fallback = 1) {
  std::uint32_t jobs = jobs_from_env(fallback);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--jobs") == 0) {
      jobs = parse_positive_u32("--jobs", i + 1 < argc ? argv[++i] : "");
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      jobs = parse_positive_u32("--jobs", arg + 7);
    } else {
      std::fprintf(stderr, "qip: unknown argument '%s' (expected --jobs N)\n",
                   arg);
      std::exit(2);
    }
  }
  return jobs;
}

inline int run(FigureData (*figure)(const ExperimentOptions&), int argc = 0,
               const char* const* argv = nullptr,
               std::uint32_t default_rounds = 3) {
  ExperimentOptions opt;
  opt.rounds = rounds_from_env(default_rounds);
  opt.jobs = jobs_from_args(argc, argv);
  const FigureData fig = figure(opt);
  std::printf("%s", fig.render().c_str());
  std::printf("(rounds per point: %u; set QIP_ROUNDS to raise)\n\n",
              opt.rounds);
  return 0;
}

}  // namespace qip::benchmain
