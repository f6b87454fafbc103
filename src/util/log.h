// Minimal leveled logger.
//
// The simulator is chatty at kTrace (per-tick scheduler decisions) which is
// priceless when debugging model behaviour but must cost nothing when off, so
// level checks happen before message formatting.
#pragma once

#include <string>
#include <string_view>

#include "src/util/str.h"

namespace arv {

enum class LogLevel { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4, kOff = 5 };

class Logger {
 public:
  /// Process-wide logger used by all subsystems.
  static Logger& global();

  void set_level(LogLevel level) { level_ = level; }
  LogLevel level() const { return level_; }
  bool enabled(LogLevel level) const { return level >= level_; }

  /// Redirect output to an in-memory buffer (for tests); nullptr restores
  /// stderr output.
  void capture_to(std::string* sink) { sink_ = sink; }

  void log(LogLevel level, std::string_view subsystem, std::string_view message);

 private:
  LogLevel level_ = LogLevel::kWarn;
  std::string* sink_ = nullptr;
};

/// Printf-style logging; the level check precedes formatting.
#define ARV_LOG(level, subsystem, ...)                                        \
  do {                                                                        \
    if (::arv::Logger::global().enabled(::arv::LogLevel::level)) {            \
      ::arv::Logger::global().log(::arv::LogLevel::level, subsystem,          \
                                  ::arv::strf(__VA_ARGS__));                  \
    }                                                                         \
  } while (false)

}  // namespace arv
