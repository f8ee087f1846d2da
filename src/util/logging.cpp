#include "util/logging.hpp"

#include <cstdio>

#include "util/env.hpp"

namespace qip {

namespace {

// QIP_LOG_SIMTIME=1 (or on/true) opts log lines into sim-time timestamps.
// Read once: the switch is a run-level decision, like QIP_TRACE_FILE.
bool simtime_requested() {
  static const bool on = env_bool("QIP_LOG_SIMTIME", false);
  return on;
}

}  // namespace

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

Logger& process_logger() {
  static Logger logger;
  return logger;
}

void Logger::write(LogLevel level, const std::string& message) {
  if (level >= LogLevel::kWarn && level < LogLevel::kOff) ++warnings_;
  if (!enabled(level)) return;
  std::ostream& out = sink_ ? *sink_ : std::cerr;
  out << '[' << to_string(level);
  if (time_fn_ != nullptr && simtime_requested()) {
    char ts[32];
    std::snprintf(ts, sizeof ts, " t=%.3f", time_fn_(time_owner_));
    out << ts;
  }
  out << "] " << message << '\n';
}

void Logger::write_raw(const std::string& text) {
  if (text.empty()) return;
  std::ostream& out = sink_ ? *sink_ : std::cerr;
  out << text;
}

}  // namespace qip
