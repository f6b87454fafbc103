#include "src/util/log.h"

#include <cstdio>

namespace arv {
namespace {

const char* level_name(LogLevel level) {
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

}  // namespace

Logger& Logger::global() {
  static Logger instance;
  return instance;
}

void Logger::log(LogLevel level, std::string_view subsystem, std::string_view message) {
  if (!enabled(level)) {
    return;
  }
  std::string line = strf("[%s] %.*s: %.*s\n", level_name(level),
                          static_cast<int>(subsystem.size()), subsystem.data(),
                          static_cast<int>(message.size()), message.data());
  if (sink_ != nullptr) {
    sink_->append(line);
  } else {
    std::fputs(line.c_str(), stderr);
  }
}

}  // namespace arv
