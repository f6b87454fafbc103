#include "src/harness/scenario.h"

#include <algorithm>
#include <utility>

#include "src/cluster/pod_workloads.h"
#include "src/util/assert.h"
#include "src/util/str.h"

namespace arv::harness {

JvmScenario::JvmScenario(const container::HostConfig& host_config)
    : host_(std::make_unique<container::Host>(host_config)),
      runtime_(std::make_unique<container::ContainerRuntime>(*host_)) {}

std::size_t JvmScenario::add(const JvmInstanceConfig& config) {
  container::Container& target = runtime_->run(config.container, "java");
  containers_.push_back(&target);
  jvms_.push_back(
      std::make_unique<jvm::Jvm>(*host_, target, config.flags, config.workload));
  return jvms_.size() - 1;
}

void JvmScenario::add_cpu_hog(const container::ContainerConfig& config, int threads,
                              SimDuration cpu_budget) {
  container::ContainerConfig hog_config = config;
  if (hog_config.name.empty()) {
    hog_config.name = strf("cpu-hog-%d", hog_counter_++);
  }
  container::Container& target = runtime_->run(hog_config, "sysbench");
  cpu_hogs_.push_back(
      std::make_unique<workloads::CpuHog>(*host_, target, threads, cpu_budget));
}

void JvmScenario::add_mem_hog(const container::ContainerConfig& config,
                              Bytes footprint, Bytes charge_per_sec) {
  container::ContainerConfig hog_config = config;
  if (hog_config.name.empty()) {
    hog_config.name = strf("mem-hog-%d", hog_counter_++);
  }
  container::Container& target = runtime_->run(hog_config, "memhog");
  mem_hogs_.push_back(std::make_unique<workloads::MemHog>(*host_, target, footprint,
                                                          charge_per_sec));
}

void JvmScenario::run(SimDuration deadline) {
  ARV_ASSERT_MSG(try_run(deadline),
                 "scenario deadline exceeded before all JVMs finished");
}

bool JvmScenario::try_run(SimDuration deadline) {
  const SimTime limit = host_->now() + deadline;
  return host_->engine().run_until(
      [this] {
        return std::all_of(jvms_.begin(), jvms_.end(),
                           [](const auto& j) { return j->finished(); });
      },
      limit);
}

std::vector<JvmRunResult> JvmScenario::results() const {
  std::vector<JvmRunResult> out;
  out.reserve(jvms_.size());
  for (std::size_t i = 0; i < jvms_.size(); ++i) {
    out.push_back(JvmRunResult{containers_[i]->name(), jvms_[i]->workload().name,
                               jvms_[i]->stats()});
  }
  return out;
}

OmpScenario::OmpScenario(const container::HostConfig& host_config)
    : host_(std::make_unique<container::Host>(host_config)),
      runtime_(std::make_unique<container::ContainerRuntime>(*host_)) {}

std::size_t OmpScenario::add(const OmpInstanceConfig& config) {
  container::Container& target = runtime_->run(config.container, "omp");
  containers_.push_back(&target);
  processes_.push_back(std::make_unique<omp::OmpProcess>(
      *host_, target, config.strategy, config.workload, config.fixed_threads));
  return processes_.size() - 1;
}

void OmpScenario::run(SimDuration deadline) {
  const SimTime limit = host_->now() + deadline;
  const bool done = host_->engine().run_until(
      [this] {
        return std::all_of(processes_.begin(), processes_.end(),
                           [](const auto& p) { return p->finished(); });
      },
      limit);
  ARV_ASSERT_MSG(done, "scenario deadline exceeded before all programs finished");
}

std::vector<OmpRunResult> OmpScenario::results() const {
  std::vector<OmpRunResult> out;
  out.reserve(processes_.size());
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    out.push_back(OmpRunResult{containers_[i]->name(),
                               processes_[i]->workload().name,
                               processes_[i]->stats()});
  }
  return out;
}

FleetScenario::FleetScenario(cluster::ClusterConfig config)
    : cluster_(config), scheduler_(cluster_) {}

int FleetScenario::add_host(container::HostConfig host_config) {
  host_config.tick = cluster_.config().tick;
  return cluster_.add_host(host_config);
}

void FleetScenario::use_placement(std::string strategy) {
  ARV_ASSERT_MSG(cluster::make_strategy(strategy) != nullptr,
                 "unknown placement strategy");
  default_strategy_ = std::move(strategy);
}

int FleetScenario::place_pod(const std::string& strategy,
                             container::K8sResources resources,
                             cluster::WorkloadFactory factory) {
  cluster::PodSpec spec;
  spec.resources = resources;
  return scheduler_.place(strategy, std::move(spec), std::move(factory));
}

int FleetScenario::place_pod(container::K8sResources resources,
                             cluster::WorkloadFactory factory) {
  return place_pod(default_strategy_, resources, std::move(factory));
}

int FleetScenario::place_web_pod(const std::string& strategy,
                                 container::K8sResources resources,
                                 server::WebConfig web) {
  const int pod = place_pod(strategy, resources, cluster::web_replica(web));
  if (pod >= 0 && router_ != nullptr) {
    router_->add_replica(pod);
  }
  return pod;
}

int FleetScenario::place_web_pod(container::K8sResources resources,
                                 server::WebConfig web) {
  return place_web_pod(default_strategy_, resources, web);
}

void FleetScenario::enable_profiles(cluster::ProfileConfig config) {
  ARV_ASSERT_MSG(profiles_ == nullptr, "profiles already enabled");
  profiles_ = std::make_unique<cluster::ProfileStore>(cluster_, config);
  cluster_.add_component(profiles_.get());
}

void FleetScenario::enable_router(double arrivals_per_sec) {
  cluster::RouterConfig config;
  config.arrivals_per_sec = arrivals_per_sec;
  enable_router(config);
}

void FleetScenario::enable_router(cluster::RouterConfig config) {
  ARV_ASSERT_MSG(router_ == nullptr, "router already enabled");
  router_ = std::make_unique<cluster::RequestRouter>(cluster_, config);
  cluster_.add_component(router_.get());
}

void FleetScenario::enable_recovery(cluster::DetectorConfig detector,
                                    cluster::RestartConfig restart) {
  ARV_ASSERT_MSG(detector_ == nullptr, "recovery already enabled");
  detector_ = std::make_unique<cluster::FailureDetector>(cluster_, detector);
  restarts_ = std::make_unique<cluster::RestartManager>(cluster_, restart);
  cluster_.add_component(detector_.get());
  cluster_.add_component(restarts_.get());
}

void FleetScenario::enable_faults(cluster::FaultPlan plan) {
  ARV_ASSERT_MSG(injector_ == nullptr, "faults already enabled");
  injector_ =
      std::make_unique<cluster::FaultInjector>(cluster_, std::move(plan));
  cluster_.add_component(injector_.get());
}

FleetScenario::Tenant* FleetScenario::find_tenant(const std::string& name) {
  for (Tenant& tenant : tenants_) {
    if (tenant.name == name) {
      return &tenant;
    }
  }
  return nullptr;
}

void FleetScenario::add_tenant(const std::string& name,
                               cluster::RouterConfig router) {
  ARV_ASSERT_MSG(!name.empty(), "tenant needs a name");
  ARV_ASSERT_MSG(find_tenant(name) == nullptr, "tenant already declared");
  ARV_ASSERT_MSG(driver_ == nullptr, "add tenants before use_trace()");
  // Tenants are externally driven: the trace engine owns their arrivals.
  router.arrivals_per_sec = 0;
  Tenant tenant;
  tenant.name = name;
  tenant.router = std::make_unique<cluster::RequestRouter>(cluster_, router);
  cluster_.add_component(tenant.router.get());
  if (admission_ != nullptr) {
    admission_->register_tenant(name, *tenant.router);
  }
  tenants_.push_back(std::move(tenant));
}

void FleetScenario::enable_admission(cluster::AdmissionConfig config) {
  ARV_ASSERT_MSG(admission_ == nullptr, "admission already enabled");
  admission_ =
      std::make_unique<cluster::AdmissionController>(cluster_, config);
  cluster_.add_component(admission_.get());
  if (router_ != nullptr) {
    admission_->register_tenant("default", *router_);
  }
  for (Tenant& tenant : tenants_) {
    admission_->register_tenant(tenant.name, *tenant.router);
  }
}

int FleetScenario::place_tenant_web_pod(const std::string& tenant,
                                        container::K8sResources resources,
                                        server::WebConfig web,
                                        cluster::PodSpec spec_template) {
  Tenant* t = find_tenant(tenant);
  ARV_ASSERT_MSG(t != nullptr, "unknown tenant");
  cluster::PodSpec spec = std::move(spec_template);
  spec.resources = resources;
  spec.service = tenant;
  web.arrivals_per_sec = 0;  // replicas behind a router never self-generate
  const int pod = scheduler_.place(default_strategy_, std::move(spec),
                                   cluster::web_replica(web));
  if (pod >= 0) {
    t->router->add_replica(pod);
  }
  return pod;
}

void FleetScenario::use_trace(load::CompiledTrace trace,
                              load::DriverConfig config) {
  ARV_ASSERT_MSG(driver_ == nullptr, "trace already in use");
  driver_ = std::make_unique<load::OpenLoopDriver>(cluster_, std::move(trace),
                                                   config);
  for (Tenant& tenant : tenants_) {
    if (driver_->trace().find(tenant.name) != nullptr) {
      driver_->bind(tenant.name, *tenant.router);
    }
  }
  cluster_.add_component(driver_.get());
}

void FleetScenario::declare_slo(const std::string& tenant, load::SloTarget target,
                                load::SloConfig config) {
  Tenant* t = find_tenant(tenant);
  ARV_ASSERT_MSG(t != nullptr, "unknown tenant");
  if (slo_ == nullptr) {
    // Registered after the driver (use_trace first), so every accounting
    // round reads post-injection state of the same tick.
    slo_ = std::make_unique<load::SloAccountant>(cluster_, config);
    cluster_.add_component(slo_.get());
  }
  slo_->declare(tenant, *t->router, target);
}

void FleetScenario::enable_tenant_hpa(const std::string& tenant,
                                      cluster::PodSpec replica_template,
                                      server::WebConfig web,
                                      cluster::HpaConfig config) {
  Tenant* t = find_tenant(tenant);
  ARV_ASSERT_MSG(t != nullptr, "unknown tenant");
  ARV_ASSERT_MSG(t->hpa == nullptr, "tenant hpa already enabled");
  if (replica_template.name.empty()) {
    replica_template.name = tenant;
  }
  replica_template.service = tenant;
  t->hpa = std::make_unique<cluster::HorizontalAutoscaler>(
      cluster_, *t->router, std::move(replica_template), web, config);
  cluster_.add_component(t->hpa.get());
}

cluster::RequestRouter* FleetScenario::tenant_router(const std::string& tenant) {
  Tenant* t = find_tenant(tenant);
  return t == nullptr ? nullptr : t->router.get();
}

cluster::HorizontalAutoscaler* FleetScenario::tenant_hpa(
    const std::string& tenant) {
  Tenant* t = find_tenant(tenant);
  return t == nullptr ? nullptr : t->hpa.get();
}

void FleetScenario::enable_hpa(cluster::PodSpec replica_template,
                               server::WebConfig web,
                               cluster::HpaConfig config) {
  ARV_ASSERT_MSG(hpa_ == nullptr, "hpa already enabled");
  ARV_ASSERT_MSG(router_ != nullptr, "enable_router() before enable_hpa()");
  hpa_ = std::make_unique<cluster::HorizontalAutoscaler>(
      cluster_, *router_, std::move(replica_template), web, config);
  cluster_.add_component(hpa_.get());
}

void FleetScenario::enable_vpa(cluster::VpaConfig config) {
  ARV_ASSERT_MSG(vpa_ == nullptr, "vpa already enabled");
  vpa_ = std::make_unique<cluster::VerticalRecommender>(cluster_, config);
  cluster_.add_component(vpa_.get());
}

void FleetScenario::enable_cluster_autoscaler(cluster::CaConfig config) {
  ARV_ASSERT_MSG(ca_ == nullptr, "cluster autoscaler already enabled");
  ca_ = std::make_unique<cluster::ClusterAutoscaler>(cluster_, config);
  cluster_.add_component(ca_.get());
}

void FleetScenario::enable_rebalancer(cluster::RebalanceConfig config) {
  ARV_ASSERT_MSG(rebalancer_ == nullptr, "rebalancer already enabled");
  rebalancer_ = std::make_unique<cluster::Rebalancer>(cluster_, config);
  cluster_.add_component(rebalancer_.get());
}

HeapTimeline::HeapTimeline(container::Host& host, const jvm::Jvm& jvm,
                           SimDuration interval)
    : host_(host), jvm_(jvm), interval_(interval) {
  ARV_ASSERT(interval > 0);
  schedule_next();
}

void HeapTimeline::schedule_next() {
  host_.engine().schedule_after(interval_, [this] {
    samples_.push_back(jvm_.sample_heap());
    schedule_next();
  });
}

}  // namespace arv::harness
