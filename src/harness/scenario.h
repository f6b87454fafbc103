// Experiment harness: declarative multi-container scenarios.
//
// Every figure in §5 is some arrangement of "N containers with these cgroup
// limits, each running this workload under this JVM/OpenMP configuration;
// run to completion; report exec/GC time". JvmScenario and OmpScenario build
// that arrangement on a fresh simulated Host and run it deterministically.
// FleetScenario does the same for a multi-host cluster: hosts, pods, routers,
// tenants with SLOs, the overload guards, faults and autoscalers.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/autoscale.h"
#include "src/cluster/cluster.h"
#include "src/cluster/faults.h"
#include "src/cluster/overload.h"
#include "src/cluster/profile.h"
#include "src/cluster/rebalancer.h"
#include "src/cluster/recovery.h"
#include "src/cluster/router.h"
#include "src/cluster/scheduler.h"
#include "src/container/container.h"
#include "src/jvm/jvm.h"
#include "src/load/driver.h"
#include "src/load/slo.h"
#include "src/load/trace_spec.h"
#include "src/omp/omp_runtime.h"
#include "src/server/server_runtime.h"
#include "src/workloads/hogs.h"

namespace arv::harness {

struct JvmInstanceConfig {
  container::ContainerConfig container;
  jvm::JvmFlags flags;
  jvm::JavaWorkload workload;

  /// Select the same registered adaptation policy for CPU and memory.
  /// Returns *this for builder-style chaining.
  JvmInstanceConfig& use_policy(const std::string& policy) {
    container.view_params.cpu_policy = policy;
    container.view_params.mem_policy = policy;
    return *this;
  }
};

struct JvmRunResult {
  std::string container;
  std::string benchmark;
  jvm::JvmStats stats;
};

class JvmScenario {
 public:
  explicit JvmScenario(const container::HostConfig& host_config = {});

  /// Add one container+JVM pair; returns its index.
  std::size_t add(const JvmInstanceConfig& config);

  /// Add a background sysbench-style CPU hog in its own container.
  void add_cpu_hog(const container::ContainerConfig& config, int threads,
                   SimDuration cpu_budget);

  /// Add a background memory hog in its own container.
  void add_mem_hog(const container::ContainerConfig& config, Bytes footprint,
                   Bytes charge_per_sec);

  /// Run until every JVM reaches a terminal state (completed / OOM / killed)
  /// or `deadline` of simulated time passes. Hogs do not gate completion.
  void run(SimDuration deadline = 3600 * units::sec);

  /// Like run(), but returns false instead of aborting when the deadline
  /// expires — for experiments where a configuration is *expected* to hang
  /// (e.g. the thrashing vanilla JVMs of Figure 12(c)).
  bool try_run(SimDuration deadline);

  container::Host& host() { return *host_; }
  container::ContainerRuntime& runtime() { return *runtime_; }
  jvm::Jvm& jvm(std::size_t index) { return *jvms_.at(index); }
  std::size_t size() const { return jvms_.size(); }

  std::vector<JvmRunResult> results() const;

 private:
  std::unique_ptr<container::Host> host_;
  std::unique_ptr<container::ContainerRuntime> runtime_;
  std::vector<container::Container*> containers_;
  std::vector<std::unique_ptr<jvm::Jvm>> jvms_;
  std::vector<std::unique_ptr<workloads::CpuHog>> cpu_hogs_;
  std::vector<std::unique_ptr<workloads::MemHog>> mem_hogs_;
  int hog_counter_ = 0;
};

struct OmpInstanceConfig {
  container::ContainerConfig container;
  omp::TeamStrategy strategy = omp::TeamStrategy::kStatic;
  omp::OmpWorkload workload;
  int fixed_threads = 0;

  /// Select the same registered adaptation policy for CPU and memory.
  OmpInstanceConfig& use_policy(const std::string& policy) {
    container.view_params.cpu_policy = policy;
    container.view_params.mem_policy = policy;
    return *this;
  }
};

struct OmpRunResult {
  std::string container;
  std::string benchmark;
  omp::OmpStats stats;
};

class OmpScenario {
 public:
  explicit OmpScenario(const container::HostConfig& host_config = {});

  std::size_t add(const OmpInstanceConfig& config);
  void run(SimDuration deadline = 3600 * units::sec);

  container::Host& host() { return *host_; }
  omp::OmpProcess& process(std::size_t index) { return *processes_.at(index); }
  std::size_t size() const { return processes_.size(); }

  std::vector<OmpRunResult> results() const;

 private:
  std::unique_ptr<container::Host> host_;
  std::unique_ptr<container::ContainerRuntime> runtime_;
  std::vector<container::Container*> containers_;
  std::vector<std::unique_ptr<omp::OmpProcess>> processes_;
};

/// Declarative multi-host fleet: hosts + placed pods + optional router and
/// rebalancer, on one deterministic Cluster. The cluster-layer analogue of
/// JvmScenario — build the fleet, run it, read the aggregate stats. Tenants
/// and their SLOs are declared here; with enable_admission() every tenant's
/// router shares one retry budget and gets AIMD queue limits, and no request
/// is refused before a replica is tried.
class FleetScenario {
 public:
  explicit FleetScenario(cluster::ClusterConfig config = {});

  /// Add one host; its tick is forced to the cluster tick. Returns the index.
  int add_host(container::HostConfig host_config = {});

  /// Select the placement strategy the strategy-less place_* overloads use
  /// ("requests", "effective", "profile", or any registered name). The
  /// initial default is "effective".
  void use_placement(std::string strategy);

  /// Place one pod through the named strategy ("requests", "effective",
  /// "profile", or any registered name). Returns the pod id, or -1 when
  /// unschedulable.
  int place_pod(const std::string& strategy, container::K8sResources resources,
                cluster::WorkloadFactory factory = {});
  /// Same, through the use_placement() default.
  int place_pod(container::K8sResources resources,
                cluster::WorkloadFactory factory = {});

  /// Place a WorkerPoolServer replica pod and (when the router is enabled)
  /// enroll it in the rotation. Returns the pod id, or -1.
  int place_web_pod(const std::string& strategy,
                    container::K8sResources resources,
                    server::WebConfig web = {});
  /// Same, through the use_placement() default.
  int place_web_pod(container::K8sResources resources,
                    server::WebConfig web = {});

  /// Attach per-pod usage profiling (percentiles, burstiness, per-service
  /// correlation). The "profile" placement strategy and the rebalancer's
  /// profiled victim selection need this; enable before placing pods so the
  /// windows start filling immediately.
  void enable_profiles(cluster::ProfileConfig config = {});

  /// Route an open-loop stream at `arrivals_per_sec` across the web replicas
  /// placed so far and later. Call before placing web pods.
  void enable_router(double arrivals_per_sec);
  /// Same, with the full retry configuration.
  void enable_router(cluster::RouterConfig config);

  /// Activate corrective migration. Call after every add_host().
  void enable_rebalancer(cluster::RebalanceConfig config = {});

  /// Activate failure recovery: a FailureDetector that fails pods over off
  /// dead hosts plus a RestartManager that restarts crashed pods in place
  /// with CrashLoopBackOff. Call after every add_host().
  void enable_recovery(cluster::DetectorConfig detector = {},
                       cluster::RestartConfig restart = {});

  /// Replay a fault plan against the fleet. Call after the pods whose ids
  /// the plan names exist (fire-time lookups tolerate missing pods but a
  /// plan full of skips tests nothing).
  void enable_faults(cluster::FaultPlan plan);

  /// Scale one service's replica count from router-observed demand vs
  /// per-replica effective capacity. Requires enable_router() first; new
  /// replicas clone `replica_template` (cpu_mode included) and auto-enroll.
  /// Adopt seed replicas via hpa()->adopt(pod_id).
  void enable_hpa(cluster::PodSpec replica_template, server::WebConfig web,
                  cluster::HpaConfig config = {});

  // --- multi-tenant workload engine (src/load, DESIGN.md §14) ---------------
  /// Declare a tenant: one service with its own RequestRouter (so the
  /// per-request conservation identities, retries, and HPA all stay
  /// per-tenant). The router's self-generated rate is forced to 0 — tenants
  /// are driven by the trace engine. Call before placing the tenant's pods.
  void add_tenant(const std::string& name,
                  cluster::RouterConfig router = {});

  /// Place a replica pod for `tenant` and enroll it in the tenant's router.
  /// Returns the pod id, or -1 when unschedulable.
  int place_tenant_web_pod(const std::string& tenant,
                           container::K8sResources resources,
                           server::WebConfig web = {},
                           cluster::PodSpec spec_template = {});

  /// Replay a compiled trace: every tenant named in it that was declared via
  /// add_tenant() is bound to its router. Call after add_tenant().
  void use_trace(load::CompiledTrace trace, load::DriverConfig config = {});

  /// Declare a tenant's SLO (creates the SloAccountant on first use). Call
  /// after use_trace() so the accountant reads post-injection rounds.
  void declare_slo(const std::string& tenant, load::SloTarget target = {},
                   load::SloConfig config = {});

  /// Arm the overload control plane (see overload.h): the plain router and
  /// every tenant declared so far (and later) enroll under one
  /// AdmissionController — the fleet-wide retry budget and adaptive
  /// per-replica concurrency limits.
  void enable_admission(cluster::AdmissionConfig config = {});

  /// Per-tenant HPA over the tenant's router. The template's service (and
  /// name, if empty) default to the tenant name.
  void enable_tenant_hpa(const std::string& tenant,
                         cluster::PodSpec replica_template,
                         server::WebConfig web,
                         cluster::HpaConfig config = {});

  /// Rewrite every pod's cgroup limits live from observed usage percentiles.
  void enable_vpa(cluster::VpaConfig config = {});

  /// Size the fleet: uncordon parked hosts under load, cordon + drain idle
  /// ones. Park spare machines with cluster().cordon_host(i, true) first.
  void enable_cluster_autoscaler(cluster::CaConfig config = {});

  void run(SimDuration duration) { cluster_.run_for(duration); }

  cluster::Cluster& cluster() { return cluster_; }
  cluster::ClusterScheduler& scheduler() { return scheduler_; }
  cluster::RequestRouter* router() { return router_.get(); }
  cluster::RequestRouter* tenant_router(const std::string& tenant);
  cluster::HorizontalAutoscaler* tenant_hpa(const std::string& tenant);
  load::OpenLoopDriver* driver() { return driver_.get(); }
  load::SloAccountant* slo() { return slo_.get(); }
  cluster::AdmissionController* admission() { return admission_.get(); }
  cluster::Rebalancer* rebalancer() { return rebalancer_.get(); }
  cluster::FailureDetector* detector() { return detector_.get(); }
  cluster::RestartManager* restarts() { return restarts_.get(); }
  cluster::FaultInjector* injector() { return injector_.get(); }
  cluster::HorizontalAutoscaler* hpa() { return hpa_.get(); }
  cluster::VerticalRecommender* vpa() { return vpa_.get(); }
  cluster::ClusterAutoscaler* cluster_autoscaler() { return ca_.get(); }
  cluster::ProfileStore* profiles() { return profiles_.get(); }

 private:
  struct Tenant {
    std::string name;
    std::unique_ptr<cluster::RequestRouter> router;
    std::unique_ptr<cluster::HorizontalAutoscaler> hpa;
  };

  Tenant* find_tenant(const std::string& name);

  cluster::Cluster cluster_;
  cluster::ClusterScheduler scheduler_;
  std::string default_strategy_ = "effective";
  std::unique_ptr<cluster::ProfileStore> profiles_;
  std::unique_ptr<cluster::RequestRouter> router_;
  std::vector<Tenant> tenants_;  ///< declaration order = injection order
  std::unique_ptr<load::OpenLoopDriver> driver_;
  std::unique_ptr<load::SloAccountant> slo_;
  std::unique_ptr<cluster::AdmissionController> admission_;
  std::unique_ptr<cluster::Rebalancer> rebalancer_;
  std::unique_ptr<cluster::FailureDetector> detector_;
  std::unique_ptr<cluster::RestartManager> restarts_;
  std::unique_ptr<cluster::FaultInjector> injector_;
  std::unique_ptr<cluster::HorizontalAutoscaler> hpa_;
  std::unique_ptr<cluster::VerticalRecommender> vpa_;
  std::unique_ptr<cluster::ClusterAutoscaler> ca_;
};

/// Samples one JVM's heap geometry every `interval` — Figure 12's series.
class HeapTimeline {
 public:
  HeapTimeline(container::Host& host, const jvm::Jvm& jvm, SimDuration interval);

  const std::vector<jvm::HeapSample>& samples() const { return samples_; }

 private:
  void schedule_next();

  container::Host& host_;
  const jvm::Jvm& jvm_;
  SimDuration interval_;
  std::vector<jvm::HeapSample> samples_;
};

}  // namespace arv::harness
