// String formatting and small string helpers.
//
// libstdc++ 12 does not ship <format>, so arv uses a checked printf-style
// formatter. The gnu_printf attribute makes the compiler verify argument
// types against the format string at every call site.
#pragma once

#include <string>
#include <string_view>

namespace arv {

/// printf into a std::string.
[[gnu::format(gnu_printf, 1, 2)]] std::string strf(const char* fmt, ...);

/// Strip leading/trailing whitespace (space, tab, newline).
std::string_view trim(std::string_view text);

}  // namespace arv
