#include "src/util/str.h"

#include <cstdarg>
#include <cstdio>

#include "src/util/assert.h"

namespace arv {

std::string strf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  ARV_ASSERT_MSG(needed >= 0, "invalid format string");
  std::string out(static_cast<std::size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::string_view trim(std::string_view text) {
  const auto is_space = [](char ch) {
    return ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r';
  };
  while (!text.empty() && is_space(text.front())) {
    text.remove_prefix(1);
  }
  while (!text.empty() && is_space(text.back())) {
    text.remove_suffix(1);
  }
  return text;
}

}  // namespace arv
