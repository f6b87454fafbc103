// CpuSet — a fixed-capacity CPU affinity mask with the kernel's list syntax.
//
// Mirrors Linux's cpumask plus the "0-3,8,10-11" textual format used by
// cpuset.cpus and /sys/devices/system/cpu/online.
#pragma once

#include <bitset>
#include <optional>
#include <string>
#include <string_view>

namespace arv {

class CpuSet {
 public:
  /// Maximum number of simulated CPUs per host.
  static constexpr int kMaxCpus = 256;

  CpuSet() = default;

  /// Mask with CPUs [0, n) set — the usual "first n CPUs online" shape.
  static CpuSet first_n(int n);

  /// Full mask of `total` CPUs.
  static CpuSet all(int total) { return first_n(total); }

  /// Parse the kernel list format ("0-3,8"). Empty string => empty mask.
  /// Returns nullopt on malformed input or CPUs >= kMaxCpus.
  static std::optional<CpuSet> parse(std::string_view text);

  void set(int cpu);
  void clear(int cpu);
  bool contains(int cpu) const {
    return cpu >= 0 && cpu < kMaxCpus && bits_[static_cast<std::size_t>(cpu)];
  }
  int count() const { return static_cast<int>(bits_.count()); }
  bool empty() const { return bits_.none(); }

  /// Highest set CPU index + 1, or 0 when empty.
  int span() const;

  CpuSet operator&(const CpuSet& other) const;
  CpuSet operator|(const CpuSet& other) const;
  bool operator==(const CpuSet& other) const = default;

  /// Render in kernel list format ("0-3,8"); empty mask renders as "".
  std::string to_string() const;

 private:
  std::bitset<kMaxCpus> bits_;
};

}  // namespace arv
