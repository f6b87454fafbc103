// arv_perfbench — runs one benchmark workload for a wall-clock budget.
//
//   arv_perfbench --workload <host_colocation|fleet_day|fleet_sparse>
//                 --seed <n> --seconds <s> --trace <0|1> [--spans-out <csv>]
//
// Repeats whole episodes of the workload (set-up, timed phase, checks) until
// the next episode would overrun --seconds; at least one episode always
// runs. With --trace 1 untraced and traced episodes alternate (at least one
// of each), and the last traced episode's spans are written to --spans-out.
// Prints one JSON object with every episode's raw results; perfbench/run.py
// turns those into the benchmark's metrics.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/workload.h"
#include "src/util/log.h"
#include "src/util/str.h"

#if defined(__clang__)
#define ARV_PERFBENCH_COMPILER __VERSION__
#else
#define ARV_PERFBENCH_COMPILER "gcc " __VERSION__
#endif

namespace arv::perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "arv_perfbench: %s\nusage: arv_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--spans-out PATH]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value");
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      usage("unknown flag");
    }
  }
  if (args.workload.empty()) {
    usage("--workload is required");
  }
  return args;
}

using Runner = EpisodeResult (*)(std::uint64_t, Tracer*);

Runner runner_for(const std::string& workload) {
  if (workload == "host_colocation") {
    return run_host_colocation;
  }
  if (workload == "fleet_day") {
    return run_fleet_day;
  }
  if (workload == "fleet_sparse") {
    return run_fleet_sparse;
  }
  usage("unknown workload");
}

/// FNV-1a over the simulated outputs, printed with full precision.
class Digest {
 public:
  void add(const std::string& name, double value) {
    mix(name + "=" + strf("%.17g", value) + ";");
  }
  std::string hex() const {
    return strf("%016llx", static_cast<unsigned long long>(hash_));
  }

 private:
  void mix(const std::string& text) {
    for (const char c : text) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 1099511628211ULL;
    }
  }
  std::uint64_t hash_ = 14695981039346656037ULL;
};

std::string sim_digest(const EpisodeResult& result) {
  Digest digest;
  digest.add("ops", static_cast<double>(result.ops));
  digest.add("ops_failed", static_cast<double>(result.ops_failed));
  digest.add("sim_s", result.sim_s);
  for (const auto* map : {&result.outcome, &result.layers}) {
    for (const auto& [name, metric] : *map) {
      if (metric.simulated) {
        digest.add(name, metric.value);
      }
    }
  }
  return digest.hex();
}

std::string number(double value) {
  return std::isfinite(value) ? strf("%.17g", value) : "null";
}

std::string metrics_json(const std::map<std::string, Metric>& map) {
  std::string out = "{";
  for (const auto& [name, metric] : map) {
    out += strf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                out.size() > 1 ? ", " : "", name.c_str(),
                number(metric.value).c_str(), metric.unit.c_str());
  }
  return out + "}";
}

std::string episode_json(const EpisodeResult& result, bool traced) {
  std::string checks = "[";
  for (const std::string& failure : result.check_failures) {
    checks += strf("%s\"%s\"", checks.size() > 1 ? ", " : "", failure.c_str());
  }
  checks += "]";
  std::string segments = "[";
  for (const std::int64_t ns : result.segment_ns) {
    segments += strf("%s%lld", segments.size() > 1 ? ", " : "",
                     static_cast<long long>(ns));
  }
  segments += "]";
  return strf(
      "{\"traced\": %s, \"setup_s\": %s, \"timed_wall_s\": %s, "
      "\"segment_ns\": %s, "
      "\"sim_s\": %s, \"ops\": %llu, \"ops_failed\": %llu, "
      "\"call_errors\": %llu, \"sim_digest\": \"%s\", \"checks\": %s, "
      "\"outcome\": %s, \"layers\": %s}",
      traced ? "true" : "false", number(result.setup_s).c_str(),
      number(result.timed_wall_s).c_str(), segments.c_str(),
      number(result.sim_s).c_str(),
      static_cast<unsigned long long>(result.ops),
      static_cast<unsigned long long>(result.ops_failed),
      static_cast<unsigned long long>(result.call_errors),
      sim_digest(result).c_str(), checks.c_str(),
      metrics_json(result.outcome).c_str(),
      metrics_json(result.layers).c_str());
}

/// Peak resident set of this process image, in MiB: VmHWM from
/// /proc/self/status. (getrusage's ru_maxrss also carries the peak of the
/// process that exec'd this one, e.g. the Python wrapper.)
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

}  // namespace
}  // namespace arv::perfbench

int main(int argc, char** argv) {
  using namespace arv::perfbench;
  const Args args = parse(argc, argv);
  // Host crashes and failovers are part of fleet_sparse's plan; keep their
  // warnings off stderr.
  arv::Logger::global().set_level(arv::LogLevel::kError);
  const Runner run = runner_for(args.workload);

  std::vector<std::string> episodes;
  std::unique_ptr<Tracer> last_trace;
  double peak_rss_mb = 0;
  const std::int64_t start = now_ns();
  for (;;) {
    const bool traced = args.trace && episodes.size() % 2 == 1;
    std::unique_ptr<Tracer> tracer =
        traced ? std::make_unique<Tracer>() : nullptr;
    const std::int64_t episode_start = now_ns();
    const EpisodeResult result = run(args.seed, tracer.get());
    const std::int64_t episode_end = now_ns();
    if (episodes.empty()) {
      // The peak of one episode, untraced: later episodes reuse a heap
      // whose fragmentation, and so its high-water mark, grows with how
      // many ran before.
      peak_rss_mb = peak_rss_mib();
    }
    episodes.push_back(episode_json(result, traced));
    if (traced) {
      last_trace = std::move(tracer);
    }
    const double elapsed = static_cast<double>(episode_end - start) / 1e9;
    const double last = static_cast<double>(episode_end - episode_start) / 1e9;
    const bool need_traced = args.trace && last_trace == nullptr;
    if (!need_traced && elapsed + last > args.seconds) {
      break;  // the next episode, as long as this one, would overrun
    }
  }
  if (last_trace != nullptr && !args.spans_out.empty() &&
      !last_trace->write_csv(args.spans_out)) {
    std::fprintf(stderr, "arv_perfbench: cannot write %s\n",
                 args.spans_out.c_str());
    return 1;
  }

  std::string out = arv::strf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"hardware_threads\": %u, \"peak_rss_mb\": %s, \"episodes\": [",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, ARV_PERFBENCH_BUILD_TYPE, ARV_PERFBENCH_COMPILER,
      std::thread::hardware_concurrency(), number(peak_rss_mb).c_str());
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    out += (i > 0 ? ", " : "") + episodes[i];
  }
  std::printf("%s]}\n", out.c_str());
  return 0;
}
