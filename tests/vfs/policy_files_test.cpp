// The /sys/arv/policy/<container>/ control plane: runtime policy switching,
// validated knob writes, and cleanup on container destruction; plus a
// seeded write-robustness property over every writable /sys/ file.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <vector>

#include "src/container/container.h"
#include "src/core/policy.h"
#include "src/util/rng.h"
#include "src/workloads/hogs.h"

namespace arv::vfs {
namespace {

using namespace arv::units;

struct Fixture {
  Fixture() : runtime(host) {}

  container::Container& run(container::ContainerConfig config) {
    return runtime.run(config);
  }

  std::optional<std::string> read(const std::string& path) {
    return host.sysfs().read(proc::kHostInit, path);
  }

  bool write(const std::string& path, std::string_view value) {
    return host.sysfs().write(path, value);
  }

  container::Host host;  // default: 20 CPUs, 128 GiB
  container::ContainerRuntime runtime;
};

/// Iterations of the write-robustness property; scales with ARV_CHAOS_ITERS
/// like the chaos suites (CI soaks hundreds, the default keeps runs fast).
int robustness_iterations() {
  const char* env = std::getenv("ARV_CHAOS_ITERS");
  const int iters = env == nullptr ? 0 : std::atoi(env);
  return iters > 0 ? iters : 3;
}

/// Every file on the host and what it reads now.
std::map<std::string, std::optional<std::string>> snapshot(
    const PseudoFs& fs) {
  std::map<std::string, std::optional<std::string>> out;
  for (const std::string& path : fs.list("/")) {
    out[path] = fs.read(path);
  }
  return out;
}

TEST(PolicyFiles, AvailableListsThePolicyNames) {
  Fixture f;
  const auto available = f.read("/sys/arv/policy/available");
  ASSERT_TRUE(available.has_value());
  EXPECT_EQ(*available, "paper\nstatic\n");
}

TEST(PolicyFiles, SelectorsReportThePerContainerPolicy) {
  Fixture f;
  container::ContainerConfig config;
  config.name = "a";
  config.view_params.policy = "static";
  f.run(config);
  f.run({.name = "b"});
  EXPECT_EQ(f.read("/sys/arv/policy/a/policy"), "static\n");
  EXPECT_EQ(f.read("/sys/arv/policy/b/policy"), "paper\n");
}

TEST(PolicyFiles, WriteSwitchesTheLivePolicy) {
  Fixture f;
  f.run({.name = "b"});  // pre-existing peer: a registers with lower 10
  auto& a = f.run({.name = "a"});
  const auto view = a.resource_view();
  ASSERT_EQ(view->effective_cpus(), 10);  // paper starts at LOWER
  ASSERT_TRUE(f.write("/sys/arv/policy/a/policy", "static\n"));
  EXPECT_EQ(view->policy_name(), "static");
  EXPECT_EQ(view->effective_cpus(), 20);  // re-pinned immediately
  EXPECT_EQ(f.read("/sys/arv/policy/a/policy"), "static\n");
  // The acceptance check: keep running after the switch — the live value
  // stays inside the static bounds.
  f.host.run_for(500 * msec);
  EXPECT_GE(view->effective_cpus(), view->cpu_bounds().lower);
  EXPECT_LE(view->effective_cpus(), view->cpu_bounds().upper);
}

TEST(PolicyFiles, UnknownPolicyWriteFails) {
  Fixture f;
  f.run({.name = "a"});
  EXPECT_FALSE(f.write("/sys/arv/policy/a/policy", "bogus"));
  EXPECT_FALSE(f.write("/sys/arv/policy/a/policy", ""));
  // Names outside /sys/arv/policy/available are rejected too.
  EXPECT_FALSE(f.write("/sys/arv/policy/a/policy", "ewma"));
  EXPECT_FALSE(f.write("/sys/arv/policy/a/policy", "proportional"));
  EXPECT_EQ(f.read("/sys/arv/policy/a/policy"), "paper\n");
}

TEST(PolicyFiles, ContainerWithoutViewRejectsWrites) {
  Fixture f;
  container::ContainerConfig config;
  config.name = "stock";
  config.enable_resource_view = false;
  f.run(config);
  EXPECT_EQ(f.read("/sys/arv/policy/stock/policy"), "none\n");
  EXPECT_FALSE(f.write("/sys/arv/policy/stock/policy", "paper"));
}

TEST(PolicyFiles, KnobWritesApplyAfterValidation) {
  Fixture f;
  auto& a = f.run({.name = "a"});
  ASSERT_TRUE(f.write("/sys/arv/policy/a/cpu_step", " 4\n"));
  EXPECT_EQ(a.resource_view()->params().cpu_step, 4);
  EXPECT_EQ(f.read("/sys/arv/policy/a/cpu_step"), "4\n");
  ASSERT_TRUE(f.write("/sys/arv/policy/a/cpu_util_threshold", "0.8"));
  EXPECT_DOUBLE_EQ(a.resource_view()->params().cpu_util_threshold, 0.8);
  ASSERT_TRUE(f.write("/sys/arv/policy/a/mem_use_threshold", "0.7"));
  EXPECT_DOUBLE_EQ(a.resource_view()->params().mem_use_threshold, 0.7);
  ASSERT_TRUE(f.write("/sys/arv/policy/a/mem_prediction_gate", "0"));
  EXPECT_FALSE(a.resource_view()->params().mem_prediction_gate);
  // The largest legal step is the CPU-set width.
  ASSERT_TRUE(f.write("/sys/arv/policy/a/cpu_step",
                      std::to_string(CpuSet::kMaxCpus)));
  EXPECT_EQ(a.resource_view()->params().cpu_step, CpuSet::kMaxCpus);
}

TEST(PolicyFiles, InvalidKnobWritesAreWriteErrors) {
  // The satellite regression: garbage must come back as a write error with
  // the previous configuration still live, never be silently accepted.
  Fixture f;
  auto& a = f.run({.name = "a"});
  EXPECT_FALSE(f.write("/sys/arv/policy/a/cpu_step", "0"));
  EXPECT_FALSE(f.write("/sys/arv/policy/a/cpu_step", "-3"));
  EXPECT_FALSE(f.write("/sys/arv/policy/a/cpu_step", "two"));
  EXPECT_FALSE(f.write("/sys/arv/policy/a/cpu_util_threshold", "1.5"));
  EXPECT_FALSE(f.write("/sys/arv/policy/a/cpu_util_threshold", "0"));
  EXPECT_FALSE(f.write("/sys/arv/policy/a/cpu_util_threshold", "-0.5"));
  EXPECT_FALSE(f.write("/sys/arv/policy/a/mem_growth_frac", "nan"));
  EXPECT_FALSE(f.write("/sys/arv/policy/a/mem_growth_frac", "1.01"));
  EXPECT_FALSE(f.write("/sys/arv/policy/a/mem_use_threshold", "inf"));
  EXPECT_FALSE(f.write("/sys/arv/policy/a/mem_prediction_gate", "2"));
  // Out-of-int values must not narrow into a legal step (2^32 + 1 and
  // -(2^32 - 1) both wrap to 1), and a step past the CPU-set width would
  // overflow Algorithm 1's `current + cpu_step`.
  EXPECT_FALSE(f.write("/sys/arv/policy/a/cpu_step", "4294967297"));
  EXPECT_FALSE(f.write("/sys/arv/policy/a/cpu_step", "-4294967295"));
  EXPECT_FALSE(f.write("/sys/arv/policy/a/cpu_step", "2147483647"));
  EXPECT_FALSE(f.write("/sys/arv/policy/a/cpu_step", "257"));
  EXPECT_FALSE(f.write("/sys/arv/policy/a/mem_growth_frac", "1e999"));
  const auto& params = a.resource_view()->params();
  EXPECT_EQ(params.cpu_step, 1);
  EXPECT_DOUBLE_EQ(params.cpu_util_threshold, 0.95);
  EXPECT_DOUBLE_EQ(params.mem_growth_frac, 0.10);
  EXPECT_DOUBLE_EQ(params.mem_use_threshold, 0.90);
  EXPECT_TRUE(params.mem_prediction_gate);
  EXPECT_EQ(f.read("/sys/arv/policy/a/cpu_step"), "1\n");
}

TEST(PolicyFiles, UtilThresholdBelowOneHalfIsAccepted) {
  // Algorithm 1's UTIL_THRSHD is legal anywhere in (0, 1]; no other knob
  // puts a floor under it, so ablations can sweep below 0.5.
  Fixture f;
  auto& a = f.run({.name = "a"});
  ASSERT_EQ(f.read("/sys/arv/policy/a/policy"), "paper\n");
  ASSERT_TRUE(f.write("/sys/arv/policy/a/cpu_util_threshold", "0.4"));
  EXPECT_EQ(f.read("/sys/arv/policy/a/cpu_util_threshold"), "0.4\n");
  EXPECT_DOUBLE_EQ(a.resource_view()->params().cpu_util_threshold, 0.4);
}

TEST(PolicyFiles, StaticMemPolicyTracksRuntimeLimitWrites) {
  // Satellite: under the "static" comparator a runtime
  // memory.limit_in_bytes update must re-pin e_mem to the new hard limit,
  // end to end through the cgroup knob file and the kMemChanged event.
  Fixture f;
  container::ContainerConfig config;
  config.name = "lxcfs";
  config.mem_limit = 4 * GiB;
  config.mem_soft_limit = 1 * GiB;
  config.view_params.policy = "static";
  auto& c = f.run(config);
  ASSERT_EQ(c.resource_view()->effective_memory(), static_cast<Bytes>(4) * GiB);
  ASSERT_TRUE(f.write("/sys/fs/cgroup/memory/lxcfs/memory.limit_in_bytes",
                      std::to_string(8LL * GiB)));
  EXPECT_EQ(c.resource_view()->effective_memory(), static_cast<Bytes>(8) * GiB);
  // And the container's own meminfo view agrees.
  const auto meminfo = f.host.sysfs().read(c.init_pid(), "/proc/meminfo");
  ASSERT_TRUE(meminfo.has_value());
  EXPECT_NE(meminfo->find("MemTotal:       8388608 kB"), std::string::npos);
}

TEST(PolicyFiles, KnobWriteShowsOnTheNextRead) {
  // A successful write shows on the next read; a failed one leaves the
  // value alone.
  Fixture f;
  f.run({.name = "a"});
  ASSERT_EQ(f.read("/sys/arv/policy/a/cpu_step"), "1\n");
  ASSERT_EQ(f.read("/sys/arv/policy/a/cpu_step"), "1\n");
  ASSERT_TRUE(f.write("/sys/arv/policy/a/cpu_step", "2"));
  EXPECT_EQ(f.read("/sys/arv/policy/a/cpu_step"), "2\n");
  ASSERT_FALSE(f.write("/sys/arv/policy/a/cpu_step", "0"));
  EXPECT_EQ(f.read("/sys/arv/policy/a/cpu_step"), "2\n");
}

TEST(PolicyFiles, DirectNamespaceChangesShowOnTheNextRead) {
  // The files render from the namespace itself, so a change made through
  // the SysNamespace API (not the files) is visible on the next read.
  Fixture f;
  auto& a = f.run({.name = "a"});
  ASSERT_EQ(f.read("/sys/arv/policy/a/policy"), "paper\n");
  ASSERT_EQ(f.read("/sys/arv/policy/a/cpu_step"), "1\n");
  const auto view = a.resource_view();
  ASSERT_TRUE(view->set_policy("static"));
  core::Params params = view->params();
  params.cpu_step = 2;
  ASSERT_TRUE(view->set_params(params));
  EXPECT_EQ(f.read("/sys/arv/policy/a/policy"), "static\n");
  EXPECT_EQ(f.read("/sys/arv/policy/a/cpu_step"), "2\n");
}

TEST(PolicyFiles, DecisionCountersReadableFromInsideTheContainer) {
  Fixture f;
  f.run({.name = "b"});  // pre-existing peer: a registers with lower 10
  auto& a = f.run({.name = "a"});
  // 12 busy threads saturate a's 10-CPU view while 8 host CPUs idle, so
  // Algorithm 1 sees both >95% utilization and host slack: growth decisions.
  workloads::CpuHog hog(f.host, a, 12, 3600 * sec);
  f.host.run_for(1 * sec);
  const auto grew = f.host.sysfs().read(a.init_pid(), "/sys/arv/trace/cpu_grew");
  ASSERT_TRUE(grew.has_value());
  EXPECT_GT(std::stoll(*grew), 0);
  const auto held = f.host.sysfs().read(a.init_pid(), "/sys/arv/trace/mem_held");
  ASSERT_TRUE(held.has_value());
  // Every round is accounted to exactly one reason.
  std::int64_t total = 0;
  for (const char* reason : {"grew", "shrank", "clamped", "reset", "held"}) {
    const auto value = f.host.sysfs().read(
        a.init_pid(), std::string("/sys/arv/trace/cpu_") + reason);
    ASSERT_TRUE(value.has_value()) << reason;
    total += std::stoll(*value);
  }
  EXPECT_EQ(total, static_cast<std::int64_t>(a.resource_view()->cpu_updates()));
}

TEST(PolicyFiles, DestroyedContainerLosesItsPolicyDirectory) {
  Fixture f;
  auto& a = f.run({.name = "a"});
  ASSERT_TRUE(f.read("/sys/arv/policy/a/policy").has_value());
  a.stop();
  EXPECT_FALSE(f.read("/sys/arv/policy/a/policy").has_value());
  EXPECT_FALSE(f.read("/sys/arv/policy/a/cpu_step").has_value());
  EXPECT_FALSE(f.write("/sys/arv/policy/a/policy", "static"));
}

TEST(PolicyFiles, RejectedWritesChangeNothing) {
  // Property: any value written to any /sys/ file either applies or is a
  // write error; a write error leaves every file on the host reading exactly
  // as before, and no write aborts. The host runs briefly between batches so
  // the policies also step under whatever the accepted writes configured.
  const std::vector<std::string> values = {
      "0", "-1", "1", "2", "4", "255", "256", "2147483647", "4294967297",
      "-4294967295", "9223372036854775807", "9223372036854775808",
      "-9223372036854775809", "0.5", "0.99", "1.5", "-0.5", "inf", "-inf",
      "nan", "1e999", "-1e999", "1e-999", "0x1p-1", "0x1p+4", "-0x1p3", "",
      " ", "\t\n", "garbage", "4 4", "max", "max 100000", "100000 500",
      "0-3", "0-300", "1,", "static", "paper", "ewma", "proportional",
      " paper\n"};
  for (int iter = 0; iter < robustness_iterations(); ++iter) {
    Fixture f;
    f.run({.name = "view", .cpu_shares = 2048});
    f.run({.name = "static",
           .view_params = {.policy = "static"}});
    f.run({.name = "stock", .enable_resource_view = false});
    const PseudoFs& fs = f.host.sysfs().host_fs();
    Rng rng(static_cast<std::uint64_t>(iter) + 1);
    for (int write = 0; write < 200; ++write) {
      if (write % 40 == 39) {
        f.host.run_for(20 * msec);
      }
      const std::vector<std::string> paths = fs.list("/sys/");
      ASSERT_FALSE(paths.empty());
      const std::string& path = paths[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(paths.size()) - 1))];
      const std::string& value = values[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(values.size()) - 1))];
      const auto before = snapshot(fs);
      if (!f.write(path, value)) {
        ASSERT_EQ(snapshot(fs), before)
            << "iter " << iter << ": rejected write of \"" << value
            << "\" to " << path << " changed the tree";
      }
    }
  }
}

}  // namespace
}  // namespace arv::vfs
