#include "src/cluster/fleet_view.h"

#include <algorithm>
#include <array>
#include <charconv>

#include "src/util/assert.h"

namespace arv::cluster {
namespace {

/// Append a decimal integer without building a temporary string.
void append_int(std::string& out, std::int64_t value) {
  std::array<char, 24> buf;
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), value);
  out.append(buf.data(), end);
}

void append_signed(std::string& out, std::int64_t value) {
  if (value >= 0) {
    out += '+';
  }
  append_int(out, value);
}

}  // namespace

void FleetView::claim(int host, const PodSpec& spec) {
  HostView& view = hosts.at(static_cast<std::size_t>(host));
  const container::K8sResources& r = spec.resources;
  view.requested_millicpu += r.request_millicpu;
  view.requested_memory += r.request_memory;
  view.slack_millicpu =
      std::max<std::int64_t>(0, view.slack_millicpu - r.request_millicpu);
  view.free_memory = std::max<Bytes>(0, view.free_memory - r.request_memory);
  ++view.pods;
  // Synthetic row (id -1): not a real pod yet, but profile-aware scoring must
  // see the just-claimed resident — otherwise every replica of a surge would
  // score the host as if its siblings were not coming.
  PodRow row;
  row.host = host;
  row.service = intern_service(spec.service.empty() ? spec.name : spec.service);
  row.request_millicpu = r.request_millicpu;
  row.request_memory = r.request_memory;
  row.running = true;
  pods.push_back(row);
}

void FleetView::reserve(int host, const container::K8sResources& resources) {
  HostView& view = hosts.at(static_cast<std::size_t>(host));
  view.slack_millicpu = std::max<std::int64_t>(
      0, view.slack_millicpu - resources.request_millicpu);
  view.free_memory =
      std::max<Bytes>(0, view.free_memory - resources.request_memory);
}

bool FleetView::same_content(const FleetView& other) const {
  return hosts == other.hosts && pods == other.pods &&
         services == other.services;
}

FleetViewDiff FleetView::diff(const FleetView& prev) const {
  FleetViewDiff out;
  out.from = prev.generation;
  out.to = generation;
  for (const PodRow& row : pods) {
    if (row.id < 0) {
      continue;  // synthetic claim rows never appear in a published snapshot
    }
    const PodRow* before =
        row.id < prev.pod_count() ? &prev.pods[static_cast<std::size_t>(row.id)]
                                  : nullptr;
    const int old_host = before == nullptr ? -1 : before->host;
    if (row.host >= 0 && old_host < 0) {
      out.added.push_back(row.id);
    } else if (row.host < 0 && old_host >= 0) {
      out.removed.push_back(row.id);
    } else if (row.host >= 0 && old_host >= 0 && row.host != old_host) {
      out.moved.push_back({row.id, old_host, row.host});
    }
  }
  const int shared =
      std::min(host_count(), prev.host_count());
  for (int i = 0; i < shared; ++i) {
    const HostView& now = hosts[static_cast<std::size_t>(i)];
    const HostView& before = prev.hosts[static_cast<std::size_t>(i)];
    HostDelta delta;
    delta.host = i;
    delta.slack_delta_millicpu = now.slack_millicpu - before.slack_millicpu;
    delta.free_delta_bytes = static_cast<std::int64_t>(now.free_memory) -
                             static_cast<std::int64_t>(before.free_memory);
    delta.requested_delta_millicpu =
        now.requested_millicpu - before.requested_millicpu;
    delta.pods_delta = now.pods - before.pods;
    delta.up_changed = now.up != before.up;
    delta.cordon_changed = now.cordoned != before.cordoned;
    if (delta.slack_delta_millicpu != 0 || delta.free_delta_bytes != 0 ||
        delta.requested_delta_millicpu != 0 || delta.pods_delta != 0 ||
        delta.up_changed || delta.cordon_changed) {
      out.hosts.push_back(delta);
    }
  }
  return out;
}

void FleetView::rebuild_pod_index() {
  host_pod_offsets.assign(hosts.size() + 1, 0);
  for (const PodRow& row : pods) {
    if (row.id >= 0 && row.host >= 0) {
      ++host_pod_offsets[static_cast<std::size_t>(row.host) + 1];
    }
  }
  for (std::size_t h = 1; h < host_pod_offsets.size(); ++h) {
    host_pod_offsets[h] += host_pod_offsets[h - 1];
  }
  host_pod_ids.assign(static_cast<std::size_t>(host_pod_offsets.back()), -1);
  std::vector<int> cursor(host_pod_offsets.begin(), host_pod_offsets.end() - 1);
  for (const PodRow& row : pods) {  // pods are in id order, so buckets are too
    if (row.id >= 0 && row.host >= 0) {
      host_pod_ids[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(row.host)]++)] = row.id;
    }
  }
}

int FleetView::intern_service(const std::string& name) {
  for (std::size_t i = 0; i < services.size(); ++i) {
    if (services[i] == name) {
      return static_cast<int>(i);
    }
  }
  services.push_back(name);
  return static_cast<int>(services.size()) - 1;
}

std::string FleetView::render_hosts() const {
  std::string out = "generation " + std::to_string(generation) + "\n";
  // Fields are appended in place: monitoring agents poll this file, and on a
  // large fleet per-field temporaries dominate the render.
  for (const HostView& h : hosts) {
    out += 'h';
    append_int(out, h.index);
    out += " cap=";
    append_int(out, h.capacity_millicpu);
    out += "m/";
    append_int(out, h.capacity_memory);
    out += " req=";
    append_int(out, h.requested_millicpu);
    out += "m/";
    append_int(out, h.requested_memory);
    out += " slack=";
    append_int(out, h.slack_millicpu);
    out += "m free=";
    append_int(out, h.free_memory);
    out += " pods=";
    append_int(out, h.pods);
    out += h.up ? " up" : " down";
    if (h.cordoned) {
      out += " cordoned";
    }
    out += '\n';
  }
  return out;
}

std::string FleetView::render_pods() const {
  std::string out = "generation " + std::to_string(generation) + "\n";
  for (const PodRow& p : pods) {
    if (p.id < 0) {
      continue;
    }
    out += "pod" + std::to_string(p.id);
    out += " host=" + std::to_string(p.host);
    out += " svc=" + service_name(p.service);
    out += " req=" + std::to_string(p.request_millicpu) + "m/" +
           std::to_string(p.request_memory);
    out += " committed=" + std::to_string(p.committed);
    if (p.samples > 0) {
      out += " cpu_p50=" + std::to_string(p.cpu_p50_millicpu) + "m";
      out += " cpu_p95=" + std::to_string(p.cpu_p95_millicpu) + "m";
      out += " mem_p50=" + std::to_string(p.mem_p50);
      out += " mem_p95=" + std::to_string(p.mem_p95);
      out += " burst=" + std::to_string(p.burst_permille);
      out += " samples=" + std::to_string(p.samples);
    }
    if (p.running) {
      out += " running";
    } else if (p.in_flight) {
      out += " in-flight";
    } else if (p.failed) {
      out += " failed";
    } else {
      out += " stopped";
    }
    out += "\n";
  }
  return out;
}

std::string FleetViewDiff::render() const {
  std::string out = "generation " + std::to_string(from) + " -> " +
                    std::to_string(to) + "\n";
  for (const int id : added) {
    out += "+pod" + std::to_string(id) + "\n";
  }
  for (const int id : removed) {
    out += "-pod" + std::to_string(id) + "\n";
  }
  for (const PodMove& move : moved) {
    out += "pod" + std::to_string(move.pod) + " h" + std::to_string(move.from) +
           "->h" + std::to_string(move.to) + "\n";
  }
  for (const HostDelta& d : hosts) {
    out += 'h';
    out += std::to_string(d.host);
    out += " slack=";
    append_signed(out, d.slack_delta_millicpu);
    out += "m free=";
    append_signed(out, d.free_delta_bytes);
    out += " req=";
    append_signed(out, d.requested_delta_millicpu);
    out += "m pods=";
    append_signed(out, static_cast<std::int64_t>(d.pods_delta));
    if (d.up_changed) {
      out += " up-flipped";
    }
    if (d.cordon_changed) {
      out += " cordon-flipped";
    }
    out += "\n";
  }
  return out;
}

FleetView FleetView::from_hosts(std::vector<HostView> host_views) {
  FleetView view;
  view.hosts = std::move(host_views);
  view.rebuild_pod_index();
  return view;
}

}  // namespace arv::cluster
