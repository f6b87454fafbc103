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
  row.service = intern_service(spec.service_name());
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
  std::string out;
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
  std::string out;
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

FleetView FleetView::from_hosts(std::vector<HostView> host_views) {
  FleetView view;
  view.hosts = std::move(host_views);
  view.rebuild_pod_index();
  return view;
}

}  // namespace arv::cluster
