// cluster::Telemetry: one owner per /sys/arv/<dir>/, removed with its owner.
#include "src/cluster/telemetry.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/autoscale.h"
#include "src/cluster/overload.h"
#include "src/cluster/router.h"
#include "src/load/slo.h"

namespace arv::cluster {
namespace {

using namespace arv::units;

container::HostConfig small_host() {
  container::HostConfig config;
  config.cpus = 4;
  config.ram = 8 * GiB;
  return config;
}

PodSpec web_template() {
  PodSpec spec;
  spec.name = "web";
  spec.resources.request_millicpu = 1000;
  spec.resources.request_memory = 256 * MiB;
  return spec;
}

ClusterConfig traced() {
  ClusterConfig config;
  config.enable_tracing = true;
  return config;
}

TEST(TelemetryDeathTest, TwoHpasWithDefaultTemplatesCannotShareADirectory) {
  // Both default to the template name "hpa": the second would mount
  // /sys/arv/autoscale/hpa/ over the first one's files.
  EXPECT_DEATH(
      {
        Cluster cluster;
        cluster.add_host(small_host());
        RequestRouter router(cluster);
        HorizontalAutoscaler first(cluster, router, PodSpec{}, {});
        HorizontalAutoscaler second(cluster, router, PodSpec{}, {});
      },
      "already has an owner");
}

TEST(TelemetryDeathTest, HpaNamedClusterCannotTakeTheClusterAutoscalersFiles) {
  EXPECT_DEATH(
      {
        Cluster cluster;
        cluster.add_host(small_host());
        RequestRouter router(cluster);
        ClusterAutoscaler ca(cluster);
        PodSpec spec = web_template();
        spec.name = "cluster";
        HorizontalAutoscaler hpa(cluster, router, spec, {});
      },
      "already has an owner");
}

TEST(Telemetry, OwnerBuiltBeforeAnyHostTearsDownCleanly) {
  Cluster cluster(traced());
  {
    VerticalRecommender vpa(cluster);  // no host 0 yet: trace series only
  }
  cluster.add_host(small_host());
  VerticalRecommender vpa(cluster);
  EXPECT_TRUE(cluster.host(kControlHost).sysfs().host_fs().exists(
      "/sys/arv/vpa/rewrites"));
}

/// Every control-loop directory, built together on one traced fleet. Each
/// component can be torn down and rebuilt on its own.
struct ControlPlane {
  ControlPlane() : cluster(traced()) {
    cluster.add_host(small_host());
    cluster.add_host(small_host());
    router = std::make_unique<RequestRouter>(cluster);
    build_admission();
    build_slo();
    build_hpa();
    build_vpa();
    build_ca();
  }

  void build_admission() {
    // A router attaches to one controller for life: a rebuilt controller
    // enrolls the tenant through a fresh router.
    tenant_router = std::make_unique<RequestRouter>(cluster);
    admission = std::make_unique<AdmissionController>(cluster);
    admission->register_tenant("api", *tenant_router);
  }
  void build_slo() {
    slo = std::make_unique<load::SloAccountant>(cluster);
    slo->declare("api", *router);
  }
  void build_hpa() {
    hpa = std::make_unique<HorizontalAutoscaler>(cluster, *router,
                                                 web_template(),
                                                 server::WebConfig{});
  }
  void build_vpa() { vpa = std::make_unique<VerticalRecommender>(cluster); }
  void build_ca() { ca = std::make_unique<ClusterAutoscaler>(cluster); }

  const vfs::PseudoFs& fs() {
    return cluster.host(kControlHost).sysfs().host_fs();
  }

  Cluster cluster;
  std::unique_ptr<RequestRouter> router;
  std::unique_ptr<RequestRouter> tenant_router;
  std::unique_ptr<AdmissionController> admission;
  std::unique_ptr<load::SloAccountant> slo;
  std::unique_ptr<HorizontalAutoscaler> hpa;
  std::unique_ptr<VerticalRecommender> vpa;
  std::unique_ptr<ClusterAutoscaler> ca;
};

struct Owner {
  std::string dir;
  std::function<void(ControlPlane&)> destroy;
  std::function<void(ControlPlane&)> rebuild;
};

TEST(Telemetry, DestroyingAnOwnerRemovesExactlyItsDirectory) {
  const std::vector<std::string> all_dirs = {
      "/sys/arv/admission/", "/sys/arv/slo/", "/sys/arv/autoscale/web/",
      "/sys/arv/vpa/", "/sys/arv/autoscale/cluster/"};
  const std::vector<Owner> owners = {
      {"/sys/arv/admission/", [](ControlPlane& p) { p.admission.reset(); },
       [](ControlPlane& p) { p.build_admission(); }},
      {"/sys/arv/slo/", [](ControlPlane& p) { p.slo.reset(); },
       [](ControlPlane& p) { p.build_slo(); }},
      {"/sys/arv/autoscale/web/", [](ControlPlane& p) { p.hpa.reset(); },
       [](ControlPlane& p) { p.build_hpa(); }},
      {"/sys/arv/vpa/", [](ControlPlane& p) { p.vpa.reset(); },
       [](ControlPlane& p) { p.build_vpa(); }},
      {"/sys/arv/autoscale/cluster/", [](ControlPlane& p) { p.ca.reset(); },
       [](ControlPlane& p) { p.build_ca(); }},
  };

  ControlPlane plane;
  const std::vector<std::string> before = plane.fs().list("/sys/arv/");
  // The admission tenant's own files live inside the owner's directory.
  ASSERT_TRUE(plane.fs().exists("/sys/arv/admission/api/criticality"));
  ASSERT_TRUE(plane.fs().exists("/sys/arv/slo/api/objective"));

  SimTime at = 0;
  for (const Owner& owner : owners) {
    SCOPED_TRACE(owner.dir);
    const std::vector<std::string> mine = plane.fs().list(owner.dir);
    ASSERT_FALSE(mine.empty());

    owner.destroy(plane);
    EXPECT_TRUE(plane.fs().list(owner.dir).empty());
    // The retired series keep the trace rectangular and never call back
    // into the destroyed component.
    plane.cluster.trace()->sample_now(at += 100 * msec);
    for (const std::string& path : plane.fs().list("/sys/arv/fleet/")) {
      EXPECT_TRUE(plane.fs().read(path).has_value()) << path;
    }
    EXPECT_FALSE(plane.fs().list("/sys/arv/fleet/").empty());
    for (const std::string& other : all_dirs) {
      if (other == owner.dir) {
        continue;
      }
      const std::vector<std::string> files = plane.fs().list(other);
      EXPECT_FALSE(files.empty()) << other;
      for (const std::string& path : files) {
        EXPECT_TRUE(plane.fs().read(path).has_value()) << path;
      }
    }

    owner.rebuild(plane);  // the directory is free to mount again
    EXPECT_EQ(plane.fs().list(owner.dir), mine);
  }
  EXPECT_EQ(plane.fs().list("/sys/arv/"), before);
}

}  // namespace
}  // namespace arv::cluster
