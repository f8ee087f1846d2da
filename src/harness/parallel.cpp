#include "harness/parallel.hpp"

#include <cinttypes>
#include <cstdio>

#include "util/env.hpp"
#include "util/rng.hpp"

namespace qip {

namespace {

std::string cell_failure_message(std::size_t index, std::uint64_t seed,
                                 const std::string& what) {
  char head[64];
  std::snprintf(head, sizeof(head), "cell %zu (seed 0x%016" PRIx64 "): ",
                index, seed);
  return head + what;
}

}  // namespace

CellFailure::CellFailure(std::size_t index, std::uint64_t seed,
                         const std::string& what)
    : std::runtime_error(cell_failure_message(index, seed, what)),
      index_(index),
      seed_(seed) {}

std::uint32_t jobs_from_env(std::uint32_t fallback) {
  return env_positive_u32("QIP_JOBS", fallback);
}

std::uint64_t derive_cell_seed(std::uint64_t base, std::uint64_t xi,
                               std::uint64_t round) {
  SplitMix64 sm(base ^ (0x9e3779b97f4a7c15ULL * (xi + 1)) ^
                (0xd1342543de82ef95ULL * (round + 1)));
  return sm.next();
}

}  // namespace qip
