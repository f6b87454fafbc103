#include "src/cluster/fleet_view.h"

#include <algorithm>
#include <array>
#include <charconv>

namespace arv::cluster {
namespace {

/// Append a decimal integer without building a temporary string.
void append_int(std::string& out, std::int64_t value) {
  std::array<char, 24> buf;
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), value);
  out.append(buf.data(), end);
}

}  // namespace

void FleetView::claim(int host, const container::K8sResources& resources) {
  reserve(host, resources);
  HostView& view = hosts.at(static_cast<std::size_t>(host));
  view.requested_millicpu += resources.request_millicpu;
  view.requested_memory += resources.request_memory;
  ++view.pods;
}

void FleetView::reserve(int host, const container::K8sResources& resources) {
  HostView& view = hosts.at(static_cast<std::size_t>(host));
  view.slack_millicpu = std::max<std::int64_t>(
      0, view.slack_millicpu - resources.request_millicpu);
  view.free_memory =
      std::max<Bytes>(0, view.free_memory - resources.request_memory);
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

FleetView FleetView::from_hosts(std::vector<HostView> host_views) {
  FleetView view;
  view.hosts = std::move(host_views);
  return view;
}

}  // namespace arv::cluster
