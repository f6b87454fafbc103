#include "perfbench/src/spans.h"

#include <algorithm>
#include <cmath>
#include <fstream>

namespace arv::perfbench {

int Tracer::intern(const std::string& name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) {
    return it->second;
  }
  const int id = static_cast<int>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

int Tracer::begin(int name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = now_ns();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::end(int span) {
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  open_.pop_back();
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::int64_t duration = span.end_ns - span.start_ns;
    SpanTotals& totals = out[names_[static_cast<std::size_t>(span.name)]];
    totals.total_ns += duration;
    totals.self_ns += duration - child_ns[i];
    totals.durations_ns.push_back(duration);
  }
  return out;
}

bool Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  out << "id,parent,name,start_ns,end_ns\n";
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << i << ',' << span.parent << ','
        << names_[static_cast<std::size_t>(span.name)] << ','
        << span.start_ns - origin << ',' << span.end_ns - origin << '\n';
  }
  return static_cast<bool>(out);
}

double percentile(std::vector<std::int64_t> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = std::min(
      values.size() - 1,
      static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return static_cast<double>(values[index]);
}

double span_percentile_us(const std::map<std::string, SpanTotals>& totals,
                          const std::string& name, double p) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0
                            : percentile(it->second.durations_ns, p) / 1e3;
}

}  // namespace arv::perfbench
