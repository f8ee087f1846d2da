// Per-layer ledger, measured from outside the program.
//
// The benchmark wraps each of its own calls into a simulator module in a
// span (name, start, duration, parent).  Spans stay in memory and are written
// out once the run ends; per-name sums feed the `<module>.<metric>` figures.
// With the ledger off (the untraced run that gives every end-to-end number)
// a span is one predictable branch and no clock read.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

/// Process-wide operator-new count (main.cpp replaces the global operator).
std::uint64_t allocs_now();

/// VmHWM / VmRSS of this process in MiB, from /proc/self/status.
double peak_rss_mib();
double current_rss_mib();

inline double wall_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Ledger {
 public:
  explicit Ledger(bool on) : on_(on), origin_s_(wall_now_s()) {
    if (on_) spans_.reserve(1u << 17);
  }

  bool on() const { return on_; }

  /// Runs `fn` inside a span named `name` (a string literal).
  template <typename Fn>
  decltype(auto) span(const char* name, Fn&& fn) {
    if (!on_) return fn();
    struct Closer {
      Ledger& l;
      std::size_t idx;
      std::int32_t parent;
      ~Closer() {
        Span& s = l.spans_[idx];
        s.dur_s = wall_now_s() - l.origin_s_ - s.start_s;
        Total& t = l.total(s.name);
        t.seconds += s.dur_s;
        ++t.calls;
        l.open_ = parent;
      }
    };
    const std::size_t idx = spans_.size();
    spans_.push_back(Span{name, wall_now_s() - origin_s_, 0.0, open_});
    Closer closer{*this, idx, open_};
    open_ = static_cast<std::int32_t>(idx);
    return fn();
  }

  /// Seconds spent inside spans named `name` (0 when never entered).
  double seconds(const char* name) const {
    const Total* t = find(name);
    return t == nullptr ? 0.0 : t->seconds;
  }
  std::uint64_t calls(const char* name) const {
    const Total* t = find(name);
    return t == nullptr ? 0 : t->calls;
  }

  /// Writes every span as one JSON object per line; false on I/O failure.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\","
                   "\"start_us\":%.3f,\"dur_us\":%.3f}\n",
                   i, s.parent, s.name, s.start_s * 1e6, s.dur_s * 1e6);
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    double start_s;
    double dur_s;
    std::int32_t parent;
  };
  struct Total {
    const char* name;
    double seconds = 0.0;
    std::uint64_t calls = 0;
  };

  // A handful of span names: a linear scan by literal address first (no
  // allocation on the span-close path), by content for lookups by name.
  Total& total(const char* name) {
    for (Total& t : totals_)
      if (t.name == name) return t;
    for (Total& t : totals_)
      if (std::strcmp(t.name, name) == 0) return t;
    return totals_.emplace_back(Total{name});
  }
  const Total* find(const char* name) const {
    for (const Total& t : totals_)
      if (std::strcmp(t.name, name) == 0) return &t;
    return nullptr;
  }

  bool on_;
  double origin_s_;
  std::int32_t open_ = -1;
  std::vector<Span> spans_;
  std::vector<Total> totals_;
};

}  // namespace perfbench
