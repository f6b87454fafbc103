#include "src/util/cpuset.h"

#include <charconv>

#include "src/util/assert.h"

namespace arv {

CpuSet CpuSet::first_n(int n) {
  ARV_ASSERT(n >= 0 && n <= kMaxCpus);
  CpuSet s;
  // Word-wide fill: all ones, shifted down to the low n bits (a shift by
  // kMaxCpus, for n == 0, clears every bit).
  s.bits_.set();
  s.bits_ >>= static_cast<std::size_t>(kMaxCpus - n);
  return s;
}

namespace {

// Parses a decimal integer prefix of `text`, advancing it. Returns nullopt on
// no digits or overflow.
std::optional<int> parse_int(std::string_view& text) {
  int value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr == text.data()) {
    return std::nullopt;
  }
  text.remove_prefix(static_cast<std::size_t>(ptr - text.data()));
  return value;
}

}  // namespace

std::optional<CpuSet> CpuSet::parse(std::string_view text) {
  CpuSet result;
  // Trim surrounding whitespace/newline (sysfs files end in '\n').
  while (!text.empty() && (text.back() == '\n' || text.back() == ' ')) {
    text.remove_suffix(1);
  }
  while (!text.empty() && text.front() == ' ') {
    text.remove_prefix(1);
  }
  if (text.empty()) {
    return result;
  }
  while (true) {
    const auto lo = parse_int(text);
    if (!lo || *lo < 0 || *lo >= kMaxCpus) {
      return std::nullopt;
    }
    int hi = *lo;
    if (!text.empty() && text.front() == '-') {
      text.remove_prefix(1);
      const auto parsed_hi = parse_int(text);
      if (!parsed_hi || *parsed_hi < *lo || *parsed_hi >= kMaxCpus) {
        return std::nullopt;
      }
      hi = *parsed_hi;
    }
    for (int cpu = *lo; cpu <= hi; ++cpu) {
      result.set(cpu);
    }
    if (text.empty()) {
      return result;
    }
    if (text.front() != ',') {
      return std::nullopt;
    }
    text.remove_prefix(1);
  }
}

void CpuSet::set(int cpu) {
  ARV_ASSERT(cpu >= 0 && cpu < kMaxCpus);
  bits_.set(static_cast<std::size_t>(cpu));
}

void CpuSet::clear(int cpu) {
  ARV_ASSERT(cpu >= 0 && cpu < kMaxCpus);
  bits_.reset(static_cast<std::size_t>(cpu));
}

int CpuSet::span() const {
  for (int i = kMaxCpus - 1; i >= 0; --i) {
    if (bits_.test(static_cast<std::size_t>(i))) {
      return i + 1;
    }
  }
  return 0;
}

CpuSet CpuSet::operator&(const CpuSet& other) const {
  CpuSet s;
  s.bits_ = bits_ & other.bits_;
  return s;
}

CpuSet CpuSet::operator|(const CpuSet& other) const {
  CpuSet s;
  s.bits_ = bits_ | other.bits_;
  return s;
}

std::string CpuSet::to_string() const {
  std::string out;
  int run_start = -1;
  for (int cpu = 0; cpu <= kMaxCpus; ++cpu) {
    const bool present = cpu < kMaxCpus && contains(cpu);
    if (present && run_start < 0) {
      run_start = cpu;
    } else if (!present && run_start >= 0) {
      if (!out.empty()) {
        out += ',';
      }
      out += std::to_string(run_start);
      if (cpu - 1 > run_start) {
        out += '-';
        out += std::to_string(cpu - 1);
      }
      run_start = -1;
    }
  }
  return out;
}

}  // namespace arv
