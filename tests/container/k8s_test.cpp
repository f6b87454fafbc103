#include "src/container/k8s.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "src/util/rng.h"

namespace arv::container {
namespace {

using namespace arv::units;

TEST(K8sMapping, SharesFromCpuRequest) {
  K8sResources r;
  r.request_millicpu = 500;  // "500m"
  const auto config = pod_container("web", r);
  EXPECT_EQ(config.cpu_shares, 512);  // 500 * 1024 / 1000
  EXPECT_EQ(config.cfs_quota_us, kUnlimited);
}

TEST(K8sMapping, TinyRequestClampsToKernelMinimum) {
  K8sResources r;
  r.request_millicpu = 1;
  EXPECT_EQ(pod_container("x", r).cpu_shares, 2);
}

TEST(K8sMapping, QuotaFromCpuLimit) {
  K8sResources r;
  r.limit_millicpu = 2500;  // "2.5" cores
  const auto config = pod_container("x", r);
  EXPECT_EQ(config.cfs_period_us, 100000);
  EXPECT_EQ(config.cfs_quota_us, 250000);
}

TEST(K8sMapping, MemoryLimitsMapToHardAndSoft) {
  K8sResources r;
  r.request_memory = 1 * GiB;
  r.limit_memory = 2 * GiB;
  const auto config = pod_container("x", r);
  EXPECT_EQ(config.mem_limit, 2 * GiB);
  EXPECT_EQ(config.mem_soft_limit, 1 * GiB);
}

TEST(K8sMapping, UnsetFieldsLeaveDefaults) {
  const auto config = pod_container("x", {});
  EXPECT_EQ(config.cpu_shares, 1024);
  EXPECT_EQ(config.cfs_quota_us, kUnlimited);
  EXPECT_EQ(config.mem_limit, kUnlimited);
}

TEST(K8sMapping, ViewToggle) {
  EXPECT_TRUE(pod_container("x", {}).enable_resource_view);
  EXPECT_FALSE(pod_container("x", {}, false).enable_resource_view);
}

TEST(K8sMapping, EndToEndPodOnHost) {
  Host host;
  ContainerRuntime runtime(host);
  K8sResources r;
  r.request_millicpu = 2000;
  r.limit_millicpu = 4000;
  r.request_memory = 2 * GiB;
  r.limit_memory = 4 * GiB;
  auto& c = runtime.run(pod_container("pod-a", r));
  // The view sees the quota (4 CPUs) as upper bound and the request as the
  // soft baseline for effective memory.
  EXPECT_EQ(c.resource_view()->cpu_bounds().upper, 4);
  EXPECT_EQ(c.resource_view()->effective_memory(), static_cast<Bytes>(2) * GiB);
}

TEST(K8sQos, Classes) {
  EXPECT_EQ(qos_class({}), QosClass::kBestEffort);
  K8sResources guaranteed;
  guaranteed.limit_millicpu = 1000;
  guaranteed.request_millicpu = 1000;
  guaranteed.limit_memory = 1 * GiB;
  EXPECT_EQ(qos_class(guaranteed), QosClass::kGuaranteed);
  K8sResources burstable;
  burstable.request_millicpu = 500;
  burstable.limit_millicpu = 1000;
  burstable.limit_memory = 1 * GiB;
  EXPECT_EQ(qos_class(burstable), QosClass::kBurstable);
  K8sResources requests_only;
  requests_only.request_millicpu = 500;
  EXPECT_EQ(qos_class(requests_only), QosClass::kBurstable);
}

TEST(K8sQos, GuaranteedRequiresLimitsOnBothResources) {
  // CPU-only limits cannot be Guaranteed: the memory limit is missing.
  K8sResources cpu_only;
  cpu_only.limit_millicpu = 1000;
  cpu_only.request_millicpu = 1000;
  EXPECT_EQ(qos_class(cpu_only), QosClass::kBurstable);
  K8sResources mem_only;
  mem_only.limit_memory = 1 * GiB;
  EXPECT_EQ(qos_class(mem_only), QosClass::kBurstable);
}

TEST(K8sQos, GuaranteedWithRequestsDefaultedFromLimits) {
  // Kubernetes defaults unset requests to the limits, so limits-only pods
  // are Guaranteed even though no request was written.
  K8sResources limits_only;
  limits_only.limit_millicpu = 2000;
  limits_only.limit_memory = 4 * GiB;
  EXPECT_EQ(qos_class(limits_only), QosClass::kGuaranteed);
}

TEST(K8sQos, RequestBelowLimitOnEitherResourceIsBurstable) {
  K8sResources cpu_gap;
  cpu_gap.request_millicpu = 500;
  cpu_gap.limit_millicpu = 1000;
  cpu_gap.request_memory = 1 * GiB;
  cpu_gap.limit_memory = 1 * GiB;
  EXPECT_EQ(qos_class(cpu_gap), QosClass::kBurstable);
  K8sResources mem_gap;
  mem_gap.request_millicpu = 1000;
  mem_gap.limit_millicpu = 1000;
  mem_gap.request_memory = 1 * GiB;
  mem_gap.limit_memory = 2 * GiB;
  EXPECT_EQ(qos_class(mem_gap), QosClass::kBurstable);
}

struct QuantityCase {
  const char* text;
  std::int64_t expect;
};

TEST(K8sQuantities, CpuParsing) {
  const QuantityCase kCases[] = {
      // Milli form and plain/fractional cores.
      {"500m", 500},
      {"250m", 250},
      {"0m", 0},
      {"2", 2000},
      {"0.5", 500},
      {"1.25", 1250},
      {"0.1", 100},
      // Decimal-exponent forms (valid Kubernetes quantities).
      {"1e2", 100000},
      {"2E1", 20000},
      {"5e-1", 500},
      // Malformed.
      {"", -1},
      {"abc", -1},
      {"-1", -1},
      {"-500m", -1},
      {"1..5", -1},
      {".", -1},
      {"1 ", -1},
      {" 1", -1},
      {"+1", -1},
      {"0x10", -1},
      {"inf", -1},
      {"nan", -1},
      {"2u", -1},
      {"1e", -1},
      // Overflow: must reject, never wrap negative.
      {"9223372036854775808", -1},
      {"1e300", -1},
  };
  for (const QuantityCase& c : kCases) {
    EXPECT_EQ(parse_cpu_quantity(c.text), c.expect) << "input: \"" << c.text
                                                    << "\"";
  }
}

TEST(K8sQuantities, MemoryParsing) {
  const QuantityCase kCases[] = {
      // Binary suffixes — the full Kubernetes set.
      {"1Ki", 1024},
      {"512Mi", 512 * MiB},
      {"4Gi", 4 * GiB},
      {"1.5Gi", 1536 * MiB},
      {"2Ti", 2LL * 1024 * GiB},
      {"1Pi", 1LL << 50},
      {"1Ei", 1LL << 60},
      // Decimal suffixes.
      {"1k", 1000},
      {"1K", 1000},
      {"5M", 5000000},
      {"1G", 1000000000},
      {"2T", 2000000000000LL},
      {"3P", 3000000000000000LL},
      {"1E", 1000000000000000000LL},
      // Plain bytes and exponent forms.
      {"128", 128},
      {"128974848e0", 128974848},
      {"1e9", 1000000000},
      {"1.5e3", 1500},
      {"12E6", 12000000},
      // Malformed.
      {"", -1},
      {"Mi", -1},
      {"5Xi", -1},
      {"1..5Gi", -1},
      {"-1Gi", -1},
      {"1e3Gi", -1},  // exponent and suffix cannot combine
      {"1 Gi", -1},
      {"1Gi ", -1},
      {"inf", -1},
      {"1e", -1},  // no exponent digits, and "e" is not a suffix
      // Overflow: must reject, never wrap negative.
      {"8Ei", -1},    // exactly 2^63
      {"16E", -1},
      {"9223372036854775808", -1},
      {"1e300", -1},
      {"10000000P", -1},
  };
  for (const QuantityCase& c : kCases) {
    EXPECT_EQ(parse_memory_quantity(c.text), c.expect) << "input: \"" << c.text
                                                       << "\"";
  }
}

/// Seeds of the adversarial quantity property; scales with ARV_CHAOS_ITERS
/// like the chaos suites (CI soaks hundreds, the default keeps runs fast).
int quantity_seeds() {
  const char* env = std::getenv("ARV_CHAOS_ITERS");
  const int iters = env == nullptr ? 0 : std::atoi(env);
  return iters > 0 ? iters : 3;
}

TEST(K8sQuantities, SeededAdversarialInput) {
  // Every memory suffix with its scale; the empty suffix is plain bytes.
  struct Suffix {
    const char* text;
    std::int64_t scale;
  };
  const Suffix kSuffixes[] = {
      {"", 1},
      {"Ki", 1LL << 10},
      {"Mi", 1LL << 20},
      {"Gi", 1LL << 30},
      {"Ti", 1LL << 40},
      {"Pi", 1LL << 50},
      {"Ei", 1LL << 60},
      {"k", 1000},
      {"K", 1000},
      {"M", 1000000},
      {"G", 1000000000},
      {"T", 1000000000000LL},
      {"P", 1000000000000000LL},
      {"E", 1000000000000000000LL},
  };
  // The alphabet random strings are drawn from: digits, '.', exponent
  // markers, signs, whitespace, the milli suffix and every memory suffix.
  std::vector<std::string> tokens = {"0", "1", "2", "3", "4", "5", "6", "7",
                                     "8", "9", ".", "e", "E", "+", "-", " ",
                                     "\t", "\n", "m"};
  for (const Suffix& suffix : kSuffixes) {
    if (suffix.text[0] != '\0') {
      tokens.emplace_back(suffix.text);
    }
  }
  const auto pick = [](Rng& rng, std::int64_t hi) {
    return static_cast<std::size_t>(rng.uniform_int(0, hi));
  };
  for (int seed = 1; seed <= quantity_seeds(); ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    // Property 1: any string parses to -1 or a non-negative value, and no
    // input aborts (the test would die instead of failing).
    for (int i = 0; i < 2000; ++i) {
      std::string text;
      const std::int64_t length = rng.uniform_int(0, 12);
      for (std::int64_t t = 0; t < length; ++t) {
        text += tokens[pick(rng, static_cast<std::int64_t>(tokens.size()) - 1)];
      }
      const std::int64_t cpu = parse_cpu_quantity(text);
      const Bytes memory = parse_memory_quantity(text);
      EXPECT_TRUE(cpu == -1 || cpu >= 0) << "cpu input: \"" << text << "\"";
      EXPECT_TRUE(memory == -1 || memory >= 0)
          << "memory input: \"" << text << "\"";
    }
    // Property 2: canonical quantities `<n><suffix>` parse to n * scale.
    // n stays where n * scale is exact in a double and below 2^63.
    for (int i = 0; i < 500; ++i) {
      const Suffix& suffix =
          kSuffixes[pick(rng, static_cast<std::int64_t>(std::size(kSuffixes)) - 1)];
      const auto odd = static_cast<std::uint64_t>(suffix.scale) >>
                       std::countr_zero(static_cast<std::uint64_t>(suffix.scale));
      const std::int64_t max_n =
          std::min((std::int64_t{1} << 53) / static_cast<std::int64_t>(odd),
                   std::numeric_limits<std::int64_t>::max() / suffix.scale);
      // Spread n over magnitudes, not only near max_n.
      const std::int64_t n =
          rng.uniform_int(0, max_n) >> rng.uniform_int(0, 52);
      const std::string memory = std::to_string(n) + suffix.text;
      EXPECT_EQ(parse_memory_quantity(memory), n * suffix.scale)
          << "input: \"" << memory << "\"";
    }
    for (int i = 0; i < 500; ++i) {
      const std::int64_t milli =
          rng.uniform_int(0, std::numeric_limits<std::int64_t>::max()) >>
          rng.uniform_int(0, 62);
      EXPECT_EQ(parse_cpu_quantity(std::to_string(milli) + "m"), milli);
      const std::int64_t cores =
          rng.uniform_int(0, (std::int64_t{1} << 52) / 1000) >>
          rng.uniform_int(0, 42);
      EXPECT_EQ(parse_cpu_quantity(std::to_string(cores)), cores * 1000)
          << "input: \"" << cores << "\"";
    }
  }
}

TEST(K8sMappingDeath, RequestAboveLimitRejected) {
  K8sResources r;
  r.request_millicpu = 2000;
  r.limit_millicpu = 1000;
  EXPECT_DEATH(pod_container("x", r), "request exceeds limit");
}

}  // namespace
}  // namespace arv::container
