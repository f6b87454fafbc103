#include "src/cluster/placement.h"

#include <algorithm>

#include "src/cluster/cluster.h"
#include "src/cluster/fleet_view.h"
#include "src/cluster/profile.h"

namespace arv::cluster {
namespace {

/// kube-scheduler baseline: feasibility and scoring on declared requests
/// only. Packing flavour (MostAllocated): the tightest-fitting host wins, so
/// requests concentrate and whole hosts stay free for big pods — and so the
/// strategy inherits the semantic gap when requests overstate actual usage.
int select_requests(const PodSpec& pod, const FleetView& fleet, Rng& rng) {
  const auto& r = pod.resources;
  const std::vector<HostView>& hosts = fleet.hosts;
  std::vector<std::int64_t> scores(hosts.size(), -1);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const HostView& h = hosts[i];
    if (!h.schedulable()) {
      continue;  // crashed or cordoned hosts schedule nothing
    }
    const std::int64_t cpu_after = h.requested_millicpu + r.request_millicpu;
    const Bytes mem_after = h.requested_memory + r.request_memory;
    if (cpu_after > h.capacity_millicpu || mem_after > h.capacity_memory) {
      continue;  // does not fit on declared requests
    }
    scores[i] = frac_permille(cpu_after, h.capacity_millicpu) +
                frac_permille(mem_after, h.capacity_memory);
  }
  return pick_best(scores, rng);
}

/// A host must show at least this much observed idle CPU to be feasible
/// under "effective" and "profile".
constexpr std::int64_t kMinSlackMillicpu = 100;  // a tenth of a core
/// Free memory kept in reserve beyond the pod's own request.
constexpr Bytes kMemReserve = 64 * units::MiB;

/// Effective-capacity placement: trusts what the host machinery *observes*
/// (window slack from the scheduler the Ns_Monitor reads, current free
/// memory) instead of what operators declared. A host whose declared
/// requests are oversubscribed but whose containers idle still shows slack
/// and keeps accepting pods; a host with pslack pinned at zero does not,
/// whatever its request ledger says.
int select_effective(const PodSpec& pod, const FleetView& fleet, Rng& rng) {
  const auto& r = pod.resources;
  const std::vector<HostView>& hosts = fleet.hosts;
  std::vector<std::int64_t> scores(hosts.size(), -1);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const HostView& h = hosts[i];
    if (!h.schedulable()) {
      continue;  // crashed or cordoned hosts schedule nothing
    }
    if (h.slack_millicpu < kMinSlackMillicpu) {
      continue;  // observed saturated: placing here only adds interference
    }
    if (h.free_memory < r.request_memory + kMemReserve) {
      continue;  // would start reclaiming immediately
    }
    // Headroom of the bottleneck resource, in per-mille of capacity. min()
    // rather than a sum: a host with idle CPUs but no free memory (or the
    // reverse) is a bad home whatever the other axis says.
    const std::int64_t cpu_headroom =
        frac_permille(h.slack_millicpu, h.capacity_millicpu);
    const std::int64_t mem_headroom =
        frac_permille(h.free_memory - r.request_memory, h.capacity_memory);
    scores[i] = std::min(cpu_headroom, mem_headroom);
  }
  return pick_best(scores, rng);
}

/// Profile-driven placement (C-Balancer): score hosts on *projected* p95
/// load — the sum of residents' profiled p95s plus the incoming pod's own
/// expected p95 — instead of the instantaneous slack "effective" reads.
/// Instantaneous slack at a bursty pod's trough looks identical to real
/// headroom; the p95 sum does not. On top of the load score, anti-colocate:
/// a host already housing a replica of the same service, or of a service
/// whose usage series positively correlates with the incoming pod's, is
/// penalized in proportion — two services whose bursts line up should not
/// share a host.
int select_profile(const PodSpec& pod, const FleetView& fleet, Rng& rng) {
  const auto& r = pod.resources;
  const std::vector<HostView>& hosts = fleet.hosts;
  const std::string& service = pod.service_name();

  // One O(pods) pass over the live pods: per-host projected p95 load and
  // resident services. A pod counts while it holds capacity on its host —
  // running or in flight.
  std::vector<std::int64_t> projected(hosts.size(), 0);
  std::vector<std::vector<const std::string*>> residents(hosts.size());
  std::int64_t incoming_p95_sum = 0;
  int incoming_profiled = 0;
  const std::vector<Pod> no_pods;
  for (const Pod& resident : fleet.pods != nullptr ? *fleet.pods : no_pods) {
    const PodProfile profile = fleet.profiles != nullptr
                                   ? fleet.profiles->profile(resident.id)
                                   : PodProfile{};
    const std::string& resident_service = resident.spec.service_name();
    if (profile.samples > 0 && service == resident_service) {
      incoming_p95_sum += profile.cpu_p95_millicpu;
      ++incoming_profiled;
    }
    if (resident.host < 0 ||
        resident.host >= static_cast<int>(hosts.size()) ||
        !(resident.running() || resident.in_flight())) {
      continue;
    }
    const std::size_t h = static_cast<std::size_t>(resident.host);
    projected[h] += profile.samples > 0
                        ? profile.cpu_p95_millicpu
                        : resident.spec.resources.request_millicpu;
    residents[h].push_back(&resident_service);
  }
  // The incoming pod's expected p95: the mean over profiled replicas of
  // its own service anywhere in the fleet, else its declared request.
  const std::int64_t incoming_p95 =
      incoming_profiled > 0 ? incoming_p95_sum / incoming_profiled
                            : r.request_millicpu;

  std::vector<std::int64_t> scores(hosts.size(), -1);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const HostView& h = hosts[i];
    // Feasibility is "effective"'s: observed signals gate admission.
    if (!h.schedulable()) {
      continue;
    }
    if (h.slack_millicpu < kMinSlackMillicpu) {
      continue;
    }
    if (h.free_memory < r.request_memory + kMemReserve) {
      continue;
    }
    const std::int64_t cpu_headroom = frac_permille(
        h.capacity_millicpu - projected[i] - incoming_p95,
        h.capacity_millicpu);
    const std::int64_t mem_headroom =
        frac_permille(h.free_memory - r.request_memory, h.capacity_memory);
    const std::int64_t base = std::min(cpu_headroom, mem_headroom);
    // Anti-colocation penalty: the worst resident decides. Same service is
    // perfectly correlated by construction (shared arrival stream).
    std::int64_t penalty = 0;
    for (const std::string* resident_service : residents[i]) {
      std::int64_t corr = 0;
      if (service == *resident_service) {
        corr = 1000;
      } else if (fleet.profiles != nullptr) {
        corr = fleet.profiles->service_correlation_permille(
            service, *resident_service);
      }
      penalty = std::max(penalty, corr);
    }
    // The +1000 offset keeps the penalty discriminative when projected
    // load consumes the whole machine: base bottoms out at 0 for every
    // tight host, and a clamped `base - penalty` would tie a correlated
    // host with an uncorrelated one — exactly the pair that must differ.
    // base and penalty are both in [0, 1000], so the score is too, shifted.
    scores[i] = 1000 + base - penalty;
  }
  return pick_best(scores, rng);
}

}  // namespace

std::optional<Strategy> parse_strategy(std::string_view name) {
  if (name == "requests") {
    return Strategy::kRequests;
  }
  if (name == "effective") {
    return Strategy::kEffective;
  }
  if (name == "profile") {
    return Strategy::kProfile;
  }
  return std::nullopt;
}

int select_host(Strategy strategy, const PodSpec& pod, const FleetView& fleet,
                Rng& rng) {
  switch (strategy) {
    case Strategy::kRequests:
      return select_requests(pod, fleet, rng);
    case Strategy::kEffective:
      return select_effective(pod, fleet, rng);
    case Strategy::kProfile:
      return select_profile(pod, fleet, rng);
  }
  return -1;
}

std::int64_t frac_permille(std::int64_t part, std::int64_t whole) {
  constexpr std::int64_t kScale = 1000;
  if (whole <= 0 || part <= 0) {
    return 0;
  }
  if (part >= whole) {
    return kScale;
  }
  // part < whole here, so the quotient is < kScale; only the multiply can
  // overflow int64 (at ~9.2 PB of byte headroom), hence the 128-bit detour.
  // (__extension__ keeps -Wpedantic quiet about the non-ISO 128-bit type.)
  __extension__ using Wide = unsigned __int128;
  const Wide wide = static_cast<Wide>(part) * static_cast<Wide>(kScale);
  return static_cast<std::int64_t>(wide / static_cast<Wide>(whole));
}

int pick_best(const std::vector<std::int64_t>& scores, Rng& rng) {
  std::int64_t best = -1;
  int ties = 0;
  for (const std::int64_t score : scores) {
    if (score > best) {
      best = score;
      ties = 1;
    } else if (score >= 0 && score == best) {
      ++ties;
    }
  }
  if (best < 0) {
    return -1;
  }
  // Reservoir-style single pass is overkill for a handful of hosts; pick the
  // n-th tie directly so exactly one rng draw happens per decision with ties.
  const std::int64_t pick = ties > 1 ? rng.uniform_int(0, ties - 1) : 0;
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (scores[i] == best) {
      if (seen == pick) {
        return static_cast<int>(i);
      }
      ++seen;
    }
  }
  return -1;  // unreachable
}

}  // namespace arv::cluster
