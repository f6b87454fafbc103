#include "src/vfs/virtual_sysfs.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/container/container.h"
#include "src/workloads/hogs.h"

namespace arv::vfs {
namespace {

using namespace arv::units;

struct Fixture {
  Fixture() : host(host_config()), runtime(host) {}

  static container::HostConfig host_config() {
    container::HostConfig config;
    config.cpus = 20;
    config.ram = 128 * GiB;
    return config;
  }

  container::Container& run(container::ContainerConfig config) {
    return runtime.run(config);
  }

  container::Host host;
  container::ContainerRuntime runtime;
};

TEST(VirtualSysfs, HostSeesAllCpus) {
  Fixture f;
  const auto online = f.host.sysfs().read(proc::kHostInit,
                                          "/sys/devices/system/cpu/online");
  EXPECT_EQ(online, "0-19\n");
}

TEST(VirtualSysfs, HostMeminfoReportsTotalRam) {
  Fixture f;
  const auto meminfo = f.host.sysfs().read(proc::kHostInit, "/proc/meminfo");
  ASSERT_TRUE(meminfo.has_value());
  EXPECT_NE(meminfo->find("MemTotal:       134217728 kB"), std::string::npos);
}

TEST(VirtualSysfs, ContainerSeesEffectiveCpus) {
  Fixture f;
  container::ContainerConfig config;
  config.name = "a";
  config.cfs_quota_us = 400000;  // 4 CPUs
  auto& c = f.run(config);
  const auto online =
      f.host.sysfs().read(c.init_pid(), "/sys/devices/system/cpu/online");
  // Single container with quota 4: lower = min(4, 20, 20) = 4.
  EXPECT_EQ(online, "0-3\n");
}

TEST(VirtualSysfs, StockContainerSeesHostView) {
  Fixture f;
  container::ContainerConfig config;
  config.name = "stock";
  config.cfs_quota_us = 400000;
  config.enable_resource_view = false;  // plain Docker
  auto& c = f.run(config);
  const auto online =
      f.host.sysfs().read(c.init_pid(), "/sys/devices/system/cpu/online");
  EXPECT_EQ(online, "0-19\n");  // the semantic gap
}

TEST(VirtualSysfs, ContainerMeminfoReportsEffectiveMemory) {
  Fixture f;
  container::ContainerConfig config;
  config.name = "m";
  config.mem_limit = 2 * GiB;
  config.mem_soft_limit = 1 * GiB;
  auto& c = f.run(config);
  const auto meminfo = f.host.sysfs().read(c.init_pid(), "/proc/meminfo");
  ASSERT_TRUE(meminfo.has_value());
  // Effective memory initializes to the soft limit: 1 GiB = 1048576 kB.
  EXPECT_NE(meminfo->find("MemTotal:       1048576 kB"), std::string::npos);
}

TEST(VirtualSysfs, SysconfCpusRedirected) {
  Fixture f;
  container::ContainerConfig config;
  config.name = "a";
  config.cpuset = CpuSet::first_n(2);
  auto& c = f.run(config);
  EXPECT_EQ(f.host.sysfs().sysconf(c.init_pid(), Sysconf::kNProcessorsOnln), 2);
  EXPECT_EQ(f.host.sysfs().sysconf(proc::kHostInit, Sysconf::kNProcessorsOnln), 20);
}

TEST(VirtualSysfs, SysconfMemoryRedirected) {
  Fixture f;
  container::ContainerConfig config;
  config.name = "a";
  config.mem_limit = 1 * GiB;
  config.mem_soft_limit = 512 * MiB;
  auto& c = f.run(config);
  const long pages = f.host.sysfs().sysconf(c.init_pid(), Sysconf::kPhysPages);
  const long page_size = f.host.sysfs().sysconf(c.init_pid(), Sysconf::kPageSize);
  EXPECT_EQ(static_cast<Bytes>(pages) * page_size, 512 * MiB);
  EXPECT_EQ(f.host.sysfs().sysconf(proc::kHostInit, Sysconf::kPhysPages) *
                static_cast<long>(units::page),
            128L * GiB);
}

TEST(VirtualSysfs, SysconfAvPhysPagesSubtractsUsage) {
  Fixture f;
  container::ContainerConfig config;
  config.name = "a";
  config.mem_limit = 1 * GiB;
  auto& c = f.run(config);
  f.host.memory().charge(c.cgroup(), 256 * MiB);
  const long pages = f.host.sysfs().sysconf(c.init_pid(), Sysconf::kAvPhysPages);
  EXPECT_EQ(static_cast<Bytes>(pages) * units::page, 1 * GiB - 256 * MiB);
}

TEST(VirtualSysfs, ChildProcessesInheritTheView) {
  Fixture f;
  container::ContainerConfig config;
  config.name = "a";
  config.cpuset = CpuSet::first_n(3);
  auto& c = f.run(config);
  const proc::Pid child = c.spawn_process("worker");
  EXPECT_EQ(f.host.sysfs().sysconf(child, Sysconf::kNProcessorsOnln), 3);
}

TEST(VirtualSysfs, CgroupKnobFilesReadable) {
  Fixture f;
  container::ContainerConfig config;
  config.name = "web";
  config.cpu_shares = 2048;
  f.run(config);
  EXPECT_EQ(f.host.sysfs().read(proc::kHostInit,
                                "/sys/fs/cgroup/cpu/web/cpu.shares"),
            "2048\n");
}

TEST(VirtualSysfs, KnobWriteFlowsToCgroupAndView) {
  Fixture f;
  container::ContainerConfig config;
  config.name = "web";
  auto& c = f.run(config);
  ASSERT_TRUE(f.host.sysfs().write("/sys/fs/cgroup/cpu/web/cpu.cfs_quota_us",
                                   "400000"));
  EXPECT_EQ(f.host.cgroups().get(c.cgroup()).cpu().cfs_quota_us, 400000);
  // The ns_monitor hook refreshed the bounds synchronously.
  EXPECT_EQ(c.resource_view()->cpu_bounds().upper, 4);
}

TEST(VirtualSysfs, KnobWriteRejectsGarbage) {
  Fixture f;
  container::ContainerConfig config;
  config.name = "web";
  f.run(config);
  EXPECT_FALSE(f.host.sysfs().write("/sys/fs/cgroup/cpu/web/cpu.shares", "zero"));
  EXPECT_FALSE(f.host.sysfs().write("/sys/fs/cgroup/cpu/web/cpu.shares", "1"));
  EXPECT_FALSE(
      f.host.sysfs().write("/sys/fs/cgroup/cpuset/web/cpuset.cpus", "0-99"));
  // Past the kernel's ranges (MAX_SHARES, a 1 s period, max_cfs_runtime):
  // accepting these overflowed the share sum and the quota/period rounding.
  EXPECT_FALSE(f.host.sysfs().write("/sys/fs/cgroup/cpu/web/cpu.shares",
                                    "262145"));
  EXPECT_FALSE(f.host.sysfs().write("/sys/fs/cgroup/cpu/web/cpu.shares",
                                    "9223372036854775807"));
  EXPECT_FALSE(f.host.sysfs().write("/sys/fs/cgroup/cpu/web/cpu.cfs_period_us",
                                    "1000001"));
  EXPECT_FALSE(f.host.sysfs().write("/sys/fs/cgroup/cpu/web/cpu.cfs_quota_us",
                                    "17592186044416"));
  EXPECT_EQ(f.host.sysfs().read(proc::kHostInit,
                                "/sys/fs/cgroup/cpu/web/cpu.shares"),
            "1024\n");
}

TEST(VirtualSysfs, KnobWriteAcceptsSurroundingWhitespace) {
  Fixture f;
  container::ContainerConfig config;
  config.name = "web";
  auto& c = f.run(config);
  // `echo " 512" > cpu.shares` reaches the handler with leading whitespace;
  // the kernel accepts it, so the shim must too.
  ASSERT_TRUE(f.host.sysfs().write("/sys/fs/cgroup/cpu/web/cpu.shares", " 512\n"));
  EXPECT_EQ(f.host.cgroups().get(c.cgroup()).cpu().shares, 512);
  ASSERT_TRUE(f.host.sysfs().write("/sys/fs/cgroup/cpu/web/cpu.cfs_quota_us",
                                   "\t400000 "));
  EXPECT_EQ(f.host.cgroups().get(c.cgroup()).cpu().cfs_quota_us, 400000);
}

TEST(VirtualSysfs, KnobFilesStayFreshAcrossWrites) {
  Fixture f;
  container::ContainerConfig config;
  config.name = "web";
  config.cpu_shares = 1024;
  f.run(config);
  const std::string path = "/sys/fs/cgroup/cpu/web/cpu.shares";
  ASSERT_EQ(f.host.sysfs().read(proc::kHostInit, path), "1024\n");
  ASSERT_EQ(f.host.sysfs().read(proc::kHostInit, path), "1024\n");
  ASSERT_TRUE(f.host.sysfs().write(path, "2048"));
  EXPECT_EQ(f.host.sysfs().read(proc::kHostInit, path), "2048\n");
}

TEST(VirtualSysfs, CpuinfoTracksEffectiveViewChanges) {
  Fixture f;
  container::ContainerConfig config;
  config.name = "a";
  config.cfs_quota_us = 400000;  // 4 effective CPUs
  auto& c = f.run(config);
  auto count_processors = [](const std::string& text) {
    int count = 0;
    std::size_t pos = 0;
    while ((pos = text.find("processor\t:", pos)) != std::string::npos) {
      ++count;
      pos += 1;
    }
    return count;
  };
  auto read_cpuinfo = [&] {
    const auto info = f.host.sysfs().read(c.init_pid(), "/proc/cpuinfo");
    return info ? count_processors(*info) : -1;
  };
  EXPECT_EQ(read_cpuinfo(), 4);
  EXPECT_EQ(read_cpuinfo(), 4);  // memoized second read is identical
  // Shrinking the quota shrinks the view; cpuinfo must follow immediately.
  ASSERT_TRUE(
      f.host.sysfs().write("/sys/fs/cgroup/cpu/a/cpu.cfs_quota_us", "200000"));
  EXPECT_EQ(read_cpuinfo(), 2);
}

TEST(VirtualSysfs, StoppedContainerFilesDisappear) {
  Fixture f;
  container::ContainerConfig config;
  config.name = "gone";
  auto& c = f.run(config);
  ASSERT_TRUE(f.host.sysfs().host_fs().exists("/sys/fs/cgroup/cpu/gone/cpu.shares"));
  c.stop();
  EXPECT_FALSE(f.host.sysfs().host_fs().exists("/sys/fs/cgroup/cpu/gone/cpu.shares"));
}

TEST(VirtualSysfs, MemoryKnobFilesReachTheCgroupTree) {
  Fixture f;
  container::ContainerConfig config;
  config.name = "m";
  config.mem_limit = 2 * GiB;
  config.mem_soft_limit = 1 * GiB;
  auto& c = f.run(config);
  const std::string dir = "/sys/fs/cgroup/memory/m/";
  EXPECT_EQ(f.host.sysfs().read(proc::kHostInit, dir + "memory.limit_in_bytes"),
            "2147483648\n");
  EXPECT_EQ(
      f.host.sysfs().read(proc::kHostInit, dir + "memory.soft_limit_in_bytes"),
      "1073741824\n");
  f.host.memory().charge(c.cgroup(), 256 * MiB);
  EXPECT_EQ(f.host.sysfs().read(proc::kHostInit, dir + "memory.usage_in_bytes"),
            "268435456\n");

  ASSERT_TRUE(f.host.sysfs().write(dir + "memory.limit_in_bytes", "3221225472"));
  ASSERT_TRUE(
      f.host.sysfs().write(dir + "memory.soft_limit_in_bytes", "1610612736"));
  EXPECT_EQ(f.host.cgroups().get(c.cgroup()).mem().limit_in_bytes, 3 * GiB);
  EXPECT_EQ(f.host.cgroups().get(c.cgroup()).mem().soft_limit_in_bytes,
            1536 * MiB);

  for (const char* file : {"memory.limit_in_bytes", "memory.soft_limit_in_bytes"}) {
    for (const char* bad : {"0", "-1", "garbage"}) {
      EXPECT_FALSE(f.host.sysfs().write(dir + file, bad)) << file << " " << bad;
    }
  }
  EXPECT_EQ(f.host.cgroups().get(c.cgroup()).mem().limit_in_bytes, 3 * GiB);
  EXPECT_EQ(f.host.cgroups().get(c.cgroup()).mem().soft_limit_in_bytes,
            1536 * MiB);
}

// The sysfs serves the paper's cgroup v1 knobs only: a container exports its
// seven v1 knob files and its six policy files, and nothing else, and a stop
// removes all of them.
TEST(VirtualSysfs, ContainerExportsExactlyTheV1KnobsAndPolicyFiles) {
  Fixture f;
  container::ContainerConfig config;
  config.name = "web";
  auto& c = f.run(config);
  const std::vector<std::string> knobs = {
      "/sys/fs/cgroup/cpu/web/cpu.cfs_period_us",
      "/sys/fs/cgroup/cpu/web/cpu.cfs_quota_us",
      "/sys/fs/cgroup/cpu/web/cpu.shares",
      "/sys/fs/cgroup/cpuset/web/cpuset.cpus",
      "/sys/fs/cgroup/memory/web/memory.limit_in_bytes",
      "/sys/fs/cgroup/memory/web/memory.soft_limit_in_bytes",
      "/sys/fs/cgroup/memory/web/memory.usage_in_bytes",
  };
  const std::vector<std::string> policy = {
      "/sys/arv/policy/web/cpu_step",
      "/sys/arv/policy/web/cpu_util_threshold",
      "/sys/arv/policy/web/mem_growth_frac",
      "/sys/arv/policy/web/mem_prediction_gate",
      "/sys/arv/policy/web/mem_use_threshold",
      "/sys/arv/policy/web/policy",
  };
  const PseudoFs& fs = f.host.sysfs().host_fs();
  EXPECT_EQ(fs.list("/sys/fs/cgroup/"), knobs);
  EXPECT_EQ(fs.list("/sys/arv/policy/web/"), policy);
  c.stop();
  EXPECT_TRUE(fs.list("/sys/fs/cgroup/").empty());
  EXPECT_TRUE(fs.list("/sys/arv/policy/web/").empty());
}

TEST(VirtualSysfs, CpuinfoRecordsMatchVisibleCpus) {
  Fixture f;
  container::ContainerConfig config;
  config.name = "a";
  config.cfs_quota_us = 300000;  // 3 effective CPUs
  auto& c = f.run(config);
  const auto host_info = f.host.sysfs().read(proc::kHostInit, "/proc/cpuinfo");
  const auto container_info = f.host.sysfs().read(c.init_pid(), "/proc/cpuinfo");
  ASSERT_TRUE(host_info && container_info);
  auto count_processors = [](const std::string& text) {
    int count = 0;
    std::size_t pos = 0;
    while ((pos = text.find("processor\t:", pos)) != std::string::npos) {
      ++count;
      pos += 1;
    }
    return count;
  };
  EXPECT_EQ(count_processors(*host_info), 20);
  EXPECT_EQ(count_processors(*container_info), 3);
}

TEST(VirtualSysfs, LoadavgFilePresent) {
  Fixture f;
  const auto loadavg = f.host.sysfs().read(proc::kHostInit, "/proc/loadavg");
  ASSERT_TRUE(loadavg.has_value());
  EXPECT_NE(loadavg->find("0.00"), std::string::npos);
}

// --- /sys/arv/trace: the observability layer's pseudo-files -----------------

TEST(VirtualSysfs, ContainerReadsItsOwnTraceCounters) {
  Fixture f;  // note: no recorder needed for the per-container counters
  container::ContainerConfig config;
  config.name = "traced";
  config.cfs_quota_us = 400000;  // 4 CPUs
  config.mem_limit = 2 * GiB;
  config.mem_soft_limit = 1 * GiB;
  auto& c = f.run(config);

  auto read = [&](const char* counter) {
    return f.host.sysfs().read(c.init_pid(),
                               std::string("/sys/arv/trace/") + counter);
  };
  EXPECT_EQ(read("e_cpu"), "4\n");
  EXPECT_EQ(read("e_mem"), "1073741824\n");  // starts at the soft limit
  EXPECT_EQ(read("cpu_upper"), "4\n");
  EXPECT_EQ(read("mem_hard"), "2147483648\n");
  EXPECT_EQ(read("cpu_updates"), "0\n");
  EXPECT_EQ(read("mem_usage"), "0\n");
  EXPECT_EQ(read("no_such_counter"), std::nullopt);
}

TEST(VirtualSysfs, TraceCountersAdvanceWithTheSimulation) {
  Fixture f;
  container::ContainerConfig config;
  config.name = "live";
  auto& c = f.run(config);
  workloads::CpuHog hog(f.host, c, 4, 3600 * sec);
  f.host.run_for(500 * msec);

  const auto updates =
      f.host.sysfs().read(c.init_pid(), "/sys/arv/trace/cpu_updates");
  ASSERT_TRUE(updates.has_value());
  EXPECT_NE(*updates, "0\n");
  const auto usage =
      f.host.sysfs().read(c.init_pid(), "/sys/arv/trace/cpu_usage");
  ASSERT_TRUE(usage.has_value());
  EXPECT_GT(std::stoll(*usage), 0);
}

TEST(VirtualSysfs, StockContainerHasNoTraceCounters) {
  Fixture f;
  container::ContainerConfig config;
  config.name = "stock";
  config.enable_resource_view = false;
  auto& c = f.run(config);
  EXPECT_EQ(f.host.sysfs().read(c.init_pid(), "/sys/arv/trace/e_cpu"),
            std::nullopt);
}

TEST(VirtualSysfs, RecorderExportsSeriesIndexHostWide) {
  container::HostConfig host_config;
  host_config.cpus = 4;
  host_config.ram = 4 * GiB;
  host_config.enable_tracing = true;
  container::Host host(host_config);
  container::ContainerRuntime runtime(host);
  runtime.run({.name = "c0"});
  host.run_for(50 * msec);

  const auto series = host.sysfs().read(proc::kHostInit, "/sys/arv/trace/series");
  ASSERT_TRUE(series.has_value());
  EXPECT_NE(series->find("sim.ticks\n"), std::string::npos);
  EXPECT_NE(series->find("c0.e_cpu\n"), std::string::npos);
  EXPECT_EQ(host.sysfs().read(proc::kHostInit, "/sys/arv/trace/samples"),
            "50\n");
}

TEST(VirtualSysfs, NoSeriesIndexWithoutRecorder) {
  Fixture f;  // tracing disabled in the fixture's host
  EXPECT_EQ(f.host.sysfs().read(proc::kHostInit, "/sys/arv/trace/series"),
            std::nullopt);
}

}  // namespace
}  // namespace arv::vfs
