#include "bench/common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "src/util/assert.h"

#if defined(__clang__)
#define ARV_BENCH_COMPILER __VERSION__
#else
#define ARV_BENCH_COMPILER "gcc " __VERSION__
#endif

namespace arv::bench {

std::optional<std::string> trace_dump_dir() {
  const char* dir = std::getenv("ARV_TRACE_DIR");
  if (dir == nullptr || dir[0] == '\0') {
    return std::nullopt;
  }
  return std::string(dir);
}

void maybe_dump_trace(const container::Host& host, const std::string& label) {
  const auto dir = trace_dump_dir();
  if (!dir.has_value() || host.trace() == nullptr) {
    return;
  }
  std::string slug = label;
  for (char& c : slug) {
    if (c == '/' || c == ' ') {
      c = '_';
    }
  }
  const std::string base = *dir + "/" + slug;
  std::ofstream csv(base + ".csv");
  csv << host.trace()->to_csv();
  std::ofstream json(base + ".json");
  json << host.trace()->to_json();
  if (!csv || !json) {
    std::fprintf(stderr, "trace: cannot write %s.{csv,json} — does %s exist?\n",
                 base.c_str(), dir->c_str());
    return;
  }
  std::printf("trace: %s.{csv,json} (%zu samples, %zu series)\n", base.c_str(),
              host.trace()->sample_count(), host.trace()->series_count());
}

ColocatedResult run_colocated(
    const jvm::JavaWorkload& workload, const jvm::JvmFlags& flags, int n,
    const std::function<void(int, container::ContainerConfig&)>& tweak,
    SimDuration deadline, const std::string& trace_label) {
  harness::JvmScenario scenario(paper_host());
  for (int i = 0; i < n; ++i) {
    harness::JvmInstanceConfig config;
    config.container.name = "c" + std::to_string(i);
    config.flags = flags;
    config.workload = workload;
    if (tweak) {
      tweak(i, config.container);
    }
    scenario.add(config);
  }
  scenario.run(deadline);
  if (!trace_label.empty()) {
    maybe_dump_trace(scenario.host(), trace_label);
  }

  ColocatedResult result;
  for (const auto& run : scenario.results()) {
    result.mean_exec_s +=
        static_cast<double>(run.stats.end_time - run.stats.start_time) / 1e6;
    result.mean_gc_s += static_cast<double>(run.stats.gc_time()) / 1e6;
    result.completed += run.stats.completed ? 1 : 0;
    result.oom_errors += run.stats.oom_error ? 1 : 0;
    result.killed += run.stats.killed ? 1 : 0;
  }
  result.mean_exec_s /= n;
  result.mean_gc_s /= n;
  return result;
}

void register_case(const std::string& name, std::function<void()> fn) {
  benchmark::RegisterBenchmark(name.c_str(), [fn = std::move(fn)](
                                                 benchmark::State& state) {
    for (auto _ : state) {
      fn();
    }
  })->Unit(benchmark::kMillisecond)->Iterations(1);
}

void print_header(const std::string& figure, const std::string& description) {
  std::printf("\n=== %s — %s ===\n", figure.c_str(), description.c_str());
}

namespace {

std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += strf("\\u%04x", static_cast<unsigned>(c));
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

Json::Json(bool value) : text_(value ? "true" : "false") {}
Json::Json(const char* value) : text_(quote(value)) {}
Json::Json(const std::string& value) : text_(quote(value)) {}

Json Json::fixed(double value, int decimals) {
  ARV_ASSERT_MSG(std::isfinite(value), "JSON has no NaN or Infinity");
  Json out(Kind::kScalar);
  out.text_ = strf("%.*f", decimals, value);
  return out;
}

Json Json::object(std::initializer_list<std::pair<std::string, Json>> members) {
  Json out(Kind::kObject);
  out.items_.assign(members.begin(), members.end());
  return out;
}

void Json::push(Json value) {
  ARV_ASSERT(kind_ == Kind::kArray);
  items_.emplace_back(std::string(), std::move(value));
}

std::string Json::dump(int indent) const {
  if (kind_ == Kind::kScalar) {
    return text_;
  }
  const bool flat = std::all_of(items_.begin(), items_.end(), [](const auto& item) {
    return item.second.kind_ == Kind::kScalar;
  });
  const std::string pad(static_cast<std::size_t>(indent) + 2, ' ');
  std::string out = kind_ == Kind::kObject ? "{" : "[";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    out += i == 0 ? "" : ",";
    out += flat ? (i == 0 ? "" : " ") : "\n" + pad;
    if (kind_ == Kind::kObject) {
      out += quote(items_[i].first) + ": ";
    }
    out += items_[i].second.dump(indent + 2);
  }
  if (!flat) {
    out += "\n" + std::string(static_cast<std::size_t>(indent), ' ');
  }
  return out + (kind_ == Kind::kObject ? "}" : "]");
}

void write_bench_json(const std::string& file, const std::string& bench,
                      const Json& sim, const Json& wall) {
  const Json provenance =
      Json::object({{"build_type", ARV_BENCH_BUILD_TYPE},
                    {"compiler", ARV_BENCH_COMPILER},
                    {"hardware_threads", std::thread::hardware_concurrency()}});
  const Json root = Json::object(
      {{"bench", bench}, {"provenance", provenance}, {"sim", sim}, {"wall", wall}});
  std::ofstream out(file);
  out << root.dump() << "\n";
  if (!out) {
    std::fprintf(stderr, "%s: cannot write %s\n", bench.c_str(), file.c_str());
    std::exit(1);
  }
  std::printf("wrote %s\n", file.c_str());
}

}  // namespace arv::bench
