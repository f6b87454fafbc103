// Cluster mechanics and the determinism contract: same seed, same fleet —
// byte-identical cluster trace; hosts sharing a cluster stay byte-identical
// to the same hosts run solo (no hidden cross-host state).
#include "src/cluster/cluster.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cluster/pod_workloads.h"
#include "src/cluster/scheduler.h"
#include "src/container/k8s.h"
#include "src/workloads/hogs.h"

namespace arv::cluster {
namespace {

using namespace arv::units;

container::K8sResources res(std::int64_t millicpu, Bytes memory) {
  container::K8sResources r;
  r.request_millicpu = millicpu;
  r.request_memory = memory;
  return r;
}

container::HostConfig small_host(int cpus, Bytes ram) {
  container::HostConfig config;
  config.cpus = cpus;
  config.ram = ram;
  return config;
}

TEST(Cluster, StepsHostsInLockstep) {
  Cluster cluster;
  cluster.add_host(small_host(2, 4 * GiB));
  cluster.add_host(small_host(4, 8 * GiB));
  cluster.run_for(50 * msec);
  EXPECT_EQ(cluster.now(), 50 * msec);
  EXPECT_EQ(cluster.host(0).now(), 50 * msec);
  EXPECT_EQ(cluster.host(1).now(), 50 * msec);
}

TEST(Cluster, FreshHostsReportFullyIdleWindow) {
  Cluster cluster;
  cluster.add_host(small_host(4, 8 * GiB));
  const HostView view = cluster.host_view(0);
  EXPECT_EQ(view.slack_millicpu, 4000);  // 4 CPUs fully idle
  EXPECT_EQ(view.capacity_millicpu, 4000);
  EXPECT_EQ(view.pods, 0);
}

TEST(Cluster, LedgerTracksPodLifecycle) {
  Cluster cluster;
  cluster.add_host(small_host(4, 8 * GiB));
  PodSpec spec;
  spec.resources = res(1500, 1 * GiB);
  const int pod = cluster.create_pod(0, spec);
  EXPECT_EQ(cluster.host_view(0).requested_millicpu, 1500);
  EXPECT_EQ(cluster.host_view(0).requested_memory, 1 * GiB);
  EXPECT_EQ(cluster.pods_on(0), 1);
  EXPECT_TRUE(cluster.pod(pod).running());
  cluster.stop_pod(pod);
  EXPECT_EQ(cluster.host_view(0).requested_millicpu, 0);
  EXPECT_EQ(cluster.pods_on(0), 0);
  EXPECT_FALSE(cluster.pod(pod).running());
  EXPECT_FALSE(cluster.pod(pod).in_flight());
}

TEST(Cluster, MigrationPaysFreezeThenLands) {
  constexpr SimDuration kMigrationFreeze = 50 * msec;  // cluster.cpp's base
  Cluster cluster;
  cluster.add_host(small_host(4, 8 * GiB));
  cluster.add_host(small_host(4, 8 * GiB));
  PodSpec spec;
  spec.resources = res(500, 512 * MiB);
  const int pod =
      cluster.create_pod(0, spec, mem_hog_workload(256 * MiB, 1 * GiB));
  cluster.run_for(1 * sec);  // hog charges memory => migration has state to move

  cluster.migrate_pod(pod, 1);
  EXPECT_TRUE(cluster.pod(pod).in_flight());
  EXPECT_EQ(cluster.pod(pod).host, 1);
  // The target slot is reserved for the whole flight.
  EXPECT_EQ(cluster.host_view(1).requested_millicpu, 500);
  EXPECT_EQ(cluster.host_view(0).requested_millicpu, 0);
  EXPECT_EQ(cluster.migrations(), 1u);

  // Freeze = base + committed/bandwidth > base; not landed after base alone.
  cluster.run_for(kMigrationFreeze);
  EXPECT_TRUE(cluster.pod(pod).in_flight());
  cluster.run_for(5 * sec);
  EXPECT_TRUE(cluster.pod(pod).running());
  EXPECT_EQ(cluster.pod(pod).migrations, 1);
  EXPECT_EQ(cluster.pods_on(1), 1);
  EXPECT_EQ(cluster.pods_on(0), 0);
}

// Logs every dispatch. On its first tick it registers `child` with the
// cluster, so a registration lands while the cluster is dispatching.
class Spawner : public sim::TickComponent {
 public:
  Spawner(Cluster& cluster, sim::TickComponent* child)
      : cluster_(cluster), child_(child) {}
  void tick(SimTime now, SimDuration dt) override {
    times.push_back(now);
    dts.push_back(dt);
    if (child_ != nullptr) {
      cluster_.add_component(child_);
      child_ = nullptr;
    }
  }
  std::string name() const override { return "spawner"; }

  std::vector<SimTime> times;
  std::vector<SimDuration> dts;

 private:
  Cluster& cluster_;
  sim::TickComponent* child_;
};

TEST(Cluster, ComponentAddedMidTickFirstTicksOnTheNextTick) {
  Cluster cluster;
  cluster.add_host(small_host(2, 4 * GiB));
  Spawner child(cluster, nullptr);
  Spawner parent(cluster, &child);
  cluster.add_component(&parent);
  cluster.run_for(5 * msec);
  const SimDuration tick = cluster.config().tick;
  EXPECT_EQ(parent.times, (std::vector<SimTime>{1 * msec, 2 * msec, 3 * msec,
                                                4 * msec, 5 * msec}));
  EXPECT_EQ(parent.dts, std::vector<SimDuration>(5, tick));
  EXPECT_EQ(child.times,
            (std::vector<SimTime>{2 * msec, 3 * msec, 4 * msec, 5 * msec}));
  EXPECT_EQ(child.dts, std::vector<SimDuration>(4, tick));
}

// The acceptance-criteria determinism pin: an entire fleet — placement with
// rng tie-breaks, web replicas, hogs, migrations, tracing — run twice from
// the same seed must produce byte-identical cluster traces.
std::pair<std::string, std::string> run_traced_fleet() {
  ClusterConfig config;
  config.enable_tracing = true;
  config.trace_interval = 10 * msec;
  config.seed = 99;
  Cluster cluster(config);
  cluster.add_host(small_host(4, 8 * GiB));
  cluster.add_host(small_host(4, 8 * GiB));
  ClusterScheduler scheduler(cluster);
  server::WebConfig web;
  web.arrivals_per_sec = 200;
  scheduler.place("requests", {"web-a", res(1000, 1 * GiB)},
                  web_standalone(web));
  scheduler.place("effective", {"web-b", res(1000, 1 * GiB)},
                  web_standalone(web));
  scheduler.place("requests", {"hog", res(500, 512 * MiB)},
                  cpu_hog_workload(2, 1 * sec));
  cluster.run_for(500 * msec);
  const int migrant = 2;
  if (cluster.pod(migrant).running() && cluster.pod(migrant).host == 0) {
    cluster.migrate_pod(migrant, 1);
  }
  cluster.run_for(2 * sec);
  return {cluster.trace()->to_csv(), cluster.trace()->to_json()};
}

TEST(ClusterDeterminism, SameSeedSameByteIdenticalTrace) {
  const auto [csv_a, json_a] = run_traced_fleet();
  const auto [csv_b, json_b] = run_traced_fleet();
  EXPECT_EQ(csv_a, csv_b);
  EXPECT_EQ(json_a, json_b);
  EXPECT_GT(csv_a.size(), 100u);  // the trace actually recorded something
}

// Satellite regression: two hosts inside one cluster must behave exactly as
// the same two hosts run solo — interleaved stepping shares no state (no
// globals, no cross-host leakage). Byte-identical host traces are the pin.
std::string solo_host_trace(int cpus, Bytes ram, int hog_threads) {
  container::HostConfig config = small_host(cpus, ram);
  config.enable_tracing = true;
  config.trace.sample_interval = 10 * msec;
  container::Host host(config);
  container::ContainerRuntime runtime(host);
  container::K8sResources r = res(1000, 1 * GiB);
  auto& c = runtime.run(container::pod_container("pod-under-test", r));
  workloads::CpuHog hog(host, c, hog_threads, 2 * sec);
  host.run_for(3 * sec);
  return host.trace()->to_csv();
}

TEST(ClusterDeterminism, InterleavedHostsMatchSoloRunsByteForByte) {
  ClusterConfig cluster_config;
  Cluster cluster(cluster_config);
  container::HostConfig host_a = small_host(2, 4 * GiB);
  host_a.enable_tracing = true;
  host_a.trace.sample_interval = 10 * msec;
  container::HostConfig host_b = small_host(6, 8 * GiB);
  host_b.enable_tracing = true;
  host_b.trace.sample_interval = 10 * msec;
  cluster.add_host(host_a);
  cluster.add_host(host_b);
  // The same container + workload each solo run creates, via the same
  // pod_container mapping.
  PodSpec spec_a;
  spec_a.name = "pod-under-test";
  spec_a.resources = res(1000, 1 * GiB);
  cluster.create_pod(0, spec_a, cpu_hog_workload(1, 2 * sec));
  PodSpec spec_b;
  spec_b.name = "pod-under-test";
  spec_b.resources = res(1000, 1 * GiB);
  cluster.create_pod(1, spec_b, cpu_hog_workload(4, 2 * sec));
  cluster.run_for(3 * sec);

  EXPECT_EQ(cluster.host(0).trace()->to_csv(), solo_host_trace(2, 4 * GiB, 1));
  EXPECT_EQ(cluster.host(1).trace()->to_csv(), solo_host_trace(6, 8 * GiB, 4));
}

}  // namespace
}  // namespace arv::cluster
