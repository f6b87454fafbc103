// Unit tests for the TraceRecorder sampling core and its serializers, plus
// the TraceAssert matchers themselves.
#include "src/obs/trace_recorder.h"

#include <gtest/gtest.h>

#include "src/container/container.h"
#include "src/sim/engine.h"
#include "tests/testing/golden.h"
#include "tests/testing/trace_matchers.h"

namespace arv::obs {
namespace {

using namespace arv::units;

TEST(TraceRecorder, SamplesEveryTickByDefault) {
  sim::Engine engine;
  TraceRecorder rec;
  std::int64_t gauge = 5;
  const auto h = rec.add_gauge("g", "", [&] { return gauge; });
  engine.add_component(&rec);

  engine.run_for(3 * msec);
  ASSERT_EQ(rec.sample_count(), 3u);
  EXPECT_EQ(rec.times(), (std::vector<SimTime>{1000, 2000, 3000}));
  gauge = 9;
  engine.run_for(1 * msec);
  EXPECT_EQ(rec.values(h), (std::vector<std::int64_t>{5, 5, 5, 9}));
  EXPECT_EQ(rec.latest(h), 9);
}

TEST(TraceRecorder, SampleIntervalSkipsTicks) {
  sim::Engine engine;
  TraceRecorder rec(TraceConfig{.sample_interval = 2 * msec});
  rec.add_gauge("g", "", [] { return 1; });
  engine.add_component(&rec);

  engine.run_for(6 * msec);
  // First due tick is t=1ms, then every 2ms from there.
  EXPECT_EQ(rec.times(), (std::vector<SimTime>{1000, 3000, 5000}));
}

TEST(TraceRecorder, RetiredSeriesRepeatsLastValueWithoutProbing) {
  sim::Engine engine;
  TraceRecorder rec;
  int probes = 0;
  const auto h = rec.add_gauge("g", "", [&] {
    ++probes;
    return 42;
  });
  engine.add_component(&rec);

  engine.run_for(2 * msec);
  rec.retire(h);
  engine.run_for(2 * msec);
  EXPECT_EQ(probes, 2);
  EXPECT_EQ(rec.values(h), (std::vector<std::int64_t>{42, 42, 42, 42}));
}

TEST(TraceRecorder, MidRunRegistrationBackfillsZeros) {
  sim::Engine engine;
  TraceRecorder rec;
  rec.add_gauge("first", "", [] { return 1; });
  engine.add_component(&rec);

  engine.run_for(2 * msec);
  const auto late = rec.add_gauge("late", "", [] { return 7; });
  engine.run_for(1 * msec);
  EXPECT_EQ(rec.values(late), (std::vector<std::int64_t>{0, 0, 7}));
}

TEST(TraceRecorder, QualifiedNamesAndLookup) {
  TraceRecorder rec;
  const auto host_series = rec.add_counter("ticks", "", [] { return 0; });
  const auto scoped = rec.add_gauge("e_cpu", "c0", [] { return 0; });

  EXPECT_EQ(rec.qualified_name(host_series), "ticks");
  EXPECT_EQ(rec.qualified_name(scoped), "c0.e_cpu");
  EXPECT_EQ(rec.find("c0.e_cpu"), std::optional<SeriesHandle>(scoped));
  EXPECT_EQ(rec.find("nope"), std::nullopt);
  EXPECT_EQ(rec.series_names(),
            (std::vector<std::string>{"ticks", "c0.e_cpu"}));
  EXPECT_EQ(rec.series_names("c0"), (std::vector<std::string>{"c0.e_cpu"}));
  EXPECT_EQ(rec.info(scoped).kind, SeriesKind::kGauge);
  EXPECT_EQ(rec.info(host_series).kind, SeriesKind::kCounter);
}

TEST(TraceRecorder, CsvSerializesExactly) {
  TraceRecorder rec;
  std::int64_t v = 3;
  rec.add_gauge("g", "", [&] { return v; });
  rec.add_counter("n", "c1", [] { return 10; });
  rec.sample_now(0);
  v = -4;
  rec.sample_now(1000);

  EXPECT_EQ(rec.to_csv(),
            "time_us,g,c1.n\n"
            "0,3,10\n"
            "1000,-4,10\n");
}

TEST(TraceRecorder, JsonSerializesExactly) {
  TraceRecorder rec;
  rec.add_counter("n", "c1", [] { return 10; });
  rec.sample_now(500);

  EXPECT_EQ(rec.to_json(),
            "{\"times\":[500],\"series\":[{\"name\":\"c1.n\","
            "\"kind\":\"counter\",\"scope\":\"c1\",\"values\":[10]}]}");
}

TEST(TraceRecorder, HostWiresKernelSeriesWhenEnabled) {
  container::HostConfig config;
  config.cpus = 4;
  config.ram = 4 * GiB;
  config.enable_tracing = true;
  container::Host host(config);
  ASSERT_NE(host.trace(), nullptr);

  container::ContainerRuntime runtime(host);
  runtime.run({.name = "c0"});
  host.run_for(100 * msec);

  const TraceRecorder& rec = *host.trace();
  EXPECT_EQ(rec.sample_count(), 100u);
  // One series from each hooked subsystem.
  for (const char* name :
       {"sim.ticks", "sched.slack_total", "sched.nr_running", "mem.free",
        "mem.kswapd_active", "core.update_rounds", "c0.e_cpu", "c0.e_mem",
        "c0.cpu_updates", "c0.mem_updates", "c0.cpu_usage", "c0.mem_usage"}) {
    EXPECT_TRUE(rec.find(name).has_value()) << "missing series " << name;
  }
  // sim.ticks counts the recorder's own tick too, sampled post-increment.
  EXPECT_EQ(rec.latest(*rec.find("sim.ticks")), 100);
}

TEST(TraceRecorder, DisabledHostHasNoRecorder) {
  container::Host host;
  EXPECT_EQ(host.trace(), nullptr);
}

TEST(TraceRecorder, StoppedContainerSeriesRetireAndFlatline) {
  container::HostConfig config;
  config.cpus = 2;
  config.ram = 2 * GiB;
  config.enable_tracing = true;
  container::Host host(config);
  container::ContainerRuntime runtime(host);
  auto& c = runtime.run({.name = "gone"});
  host.run_for(10 * msec);
  const auto h = host.trace()->find("gone.e_cpu");
  const auto hm = host.trace()->find("gone.mem_usage");
  ASSERT_TRUE(h.has_value());
  ASSERT_TRUE(hm.has_value());
  const std::int64_t before = host.trace()->latest(*h);
  const std::int64_t mem_before = host.trace()->latest(*hm);

  c.stop();  // retires the container's series; stop() also uncharges memory
  host.run_for(10 * msec);
  EXPECT_EQ(host.trace()->sample_count(), 20u);
  EXPECT_EQ(host.trace()->latest(*h), before);
  EXPECT_EQ(host.trace()->latest(*hm), mem_before);
}

// --- TraceAssert matchers ---------------------------------------------------

TEST(TraceMatchers, NonDecreasingFlagsRegression) {
  TraceRecorder rec;
  std::int64_t n = 0;
  rec.add_counter("n", "", [&] { return n; });
  n = 1;
  rec.sample_now(0);
  n = 3;
  rec.sample_now(1000);
  EXPECT_TRUE(arv::testing::trace::NonDecreasing(rec, "n"));
  EXPECT_TRUE(arv::testing::trace::AllCountersMonotonic(rec));

  n = 2;
  rec.sample_now(2000);
  const auto result = arv::testing::trace::NonDecreasing(rec, "n");
  EXPECT_FALSE(result);
  EXPECT_NE(std::string(result.message()).find("decreased"), std::string::npos);
  EXPECT_FALSE(arv::testing::trace::AllCountersMonotonic(rec));
}

TEST(TraceMatchers, WithinBoundsFlagsEscape) {
  TraceRecorder rec;
  std::int64_t v = 5;
  rec.add_gauge("v", "", [&] { return v; });
  rec.add_gauge("lo", "", [] { return 2; });
  rec.add_gauge("hi", "", [] { return 6; });
  rec.sample_now(0);
  EXPECT_TRUE(arv::testing::trace::WithinBounds(rec, "v", "lo", "hi"));

  v = 7;
  rec.sample_now(1000);
  EXPECT_FALSE(arv::testing::trace::WithinBounds(rec, "v", "lo", "hi"));
  EXPECT_FALSE(arv::testing::trace::WithinBounds(rec, "missing", "lo", "hi"));
}

TEST(TraceMatchers, StepBoundedCountsUpdateRounds) {
  TraceRecorder rec;
  std::int64_t v = 4;
  std::int64_t rounds = 0;
  rec.add_gauge("v", "", [&] { return v; });
  rec.add_counter("rounds", "", [&] { return rounds; });
  rec.sample_now(0);
  v = 3;  // one step down, but no update round completed
  rec.sample_now(1000);
  EXPECT_FALSE(arv::testing::trace::StepBounded(rec, "v", "rounds", 1));

  v = 4;
  rounds = 1;  // back up within one round: allowed
  rec.sample_now(2000);
  TraceRecorder clean;
  std::int64_t cv = 4;
  std::int64_t crounds = 0;
  clean.add_gauge("v", "", [&] { return cv; });
  clean.add_counter("rounds", "", [&] { return crounds; });
  clean.sample_now(0);
  cv = 5;
  crounds = 1;
  clean.sample_now(1000);
  EXPECT_TRUE(arv::testing::trace::StepBounded(clean, "v", "rounds", 1));
}

TEST(TraceMatchers, ResetsUnderPressureChecksUpdatedSamplesOnly) {
  TraceRecorder rec;
  std::int64_t v = 30;
  std::int64_t target = 15;
  std::int64_t rounds = 0;
  std::int64_t active = 0;
  rec.add_gauge("v", "", [&] { return v; });
  rec.add_gauge("target", "", [&] { return target; });
  rec.add_counter("rounds", "", [&] { return rounds; });
  rec.add_gauge("active", "", [&] { return active; });
  rec.sample_now(0);

  // Pressure without an update round: nothing to check.
  active = 1;
  rec.sample_now(1000);
  EXPECT_TRUE(arv::testing::trace::ResetsUnderPressure(rec, "v", "target",
                                                       "rounds", "active"));

  // An update round under pressure that did NOT reset: violation.
  rounds = 1;
  rec.sample_now(2000);
  EXPECT_FALSE(arv::testing::trace::ResetsUnderPressure(rec, "v", "target",
                                                        "rounds", "active"));

  // The reset itself satisfies the matcher.
  v = 15;
  rounds = 2;
  rec.sample_now(3000);
  TraceRecorder ok;
  ok.add_gauge("v", "", [&] { return v; });
  ok.add_gauge("target", "", [&] { return target; });
  ok.add_counter("rounds", "", [&] { return rounds; });
  ok.add_gauge("active", "", [&] { return active; });
  ok.sample_now(0);
  rounds = 3;
  ok.sample_now(1000);
  EXPECT_TRUE(arv::testing::trace::ResetsUnderPressure(ok, "v", "target",
                                                       "rounds", "active"));
}

// --- golden helpers ---------------------------------------------------------

TEST(Golden, DiffReportsFirstMismatchWithLineNumbers) {
  const std::string expected = "a\nb\nc\n";
  const std::string actual = "a\nB\nc\n";
  const std::string diff = testing::diff_lines(expected, actual);
  EXPECT_NE(diff.find("line 2"), std::string::npos);
  EXPECT_NE(diff.find("B"), std::string::npos);
  EXPECT_TRUE(testing::diff_lines(expected, expected).empty());
}

TEST(Golden, DiffReportsTrailingNewlineOnlyMismatch) {
  const std::string diff = testing::diff_lines("a\nb\n", "a\nb");
  EXPECT_FALSE(diff.empty());
  EXPECT_NE(diff.find("trailing newline"), std::string::npos);
}

TEST(Golden, MissingGoldenFailsWithInstructions) {
  if (testing::regenerate_requested()) {
    GTEST_SKIP() << "ARV_REGOLDEN set: compare_golden would create the file";
  }
  const auto result =
      testing::compare_golden("/nonexistent-dir/never-written.csv", "x\n");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.message.find("ARV_REGOLDEN"), std::string::npos);
}

}  // namespace
}  // namespace arv::obs
