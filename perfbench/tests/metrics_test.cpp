// Metric derivation on fixed inputs: names, units, values and the rule
// that a metric which does not apply is omitted.
#include "metrics.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

#include "obs/json.h"
#include "workloads.h"

namespace {

using perfbench::Metric;

std::map<std::string, Metric> by_name(const std::vector<Metric>& ms) {
  std::map<std::string, Metric> out;
  for (const Metric& m : ms) {
    EXPECT_TRUE(out.emplace(m.name, m).second) << "duplicate " << m.name;
  }
  return out;
}

// A serial-kernel run with every optional layer present: JSONL sink,
// telemetry and monitor.
perfbench::TracedRun full_serial_run() {
  perfbench::TracedRun r;
  r.nodes = 100;
  r.setup_s = 0.002;
  r.run_wall_s = 2.0;
  r.untraced_run_wall_s = 1.6;
  r.peak_rss_kb = 51200.0;
  using sstsp::obs::Phase;
  const auto at = [](Phase p) { return static_cast<std::size_t>(p); };
  r.profile.phases[at(Phase::kDispatch)].exclusive_ns = 600'000'000;
  r.profile.phases[at(Phase::kChannelDelivery)].exclusive_ns = 100'000'000;
  r.profile.phases[at(Phase::kCryptoVerify)].exclusive_ns = 200'000'000;
  r.profile.phases[at(Phase::kFilterEval)].exclusive_ns = 100'000'000;
  r.profile.total_ns = 1'000'000'000;
  r.profile.events = 4000;
  r.registry.counters = {{"event.auth-ok", 900},
                         {"event.beacon-rx", 1000},
                         {"event.takeover", 3}};
  sstsp::obs::HistogramSnapshot depth;
  depth.count = 4000;
  depth.p50 = 120.0;
  depth.p99 = 210.0;
  r.registry.histograms = {{"sim.event_queue_depth", depth}};
  r.channel.transmissions = 20;
  r.channel.collided_transmissions = 5;
  r.channel.deliveries = 2000;
  r.channel.per_drops = 7;
  r.channel.half_duplex_suppressed = 2;
  r.honest.beacons_received = 1000;
  r.honest.adjustments = 800;
  r.honest.elections_won = 2;
  r.honest.coarse_steps = 4;
  r.honest.rejected_guard = 50;
  r.honest.rejected_interval = 1;
  r.honest.rejected_key = 2;
  r.honest.rejected_mac = 3;
  r.slice_wall_ms = {10.0, 30.0, 20.0};
  r.audit_critical = 0;
  r.audit_warning = 3;
  r.jsonl = perfbench::StreamStats{5000, 100, 100, 300'000, 700'000};
  r.telemetry_lines = 60;
  return r;
}

TEST(PerfbenchMetrics, EndToEndNamesUnitsAndOmission) {
  perfbench::TimedSummary s;
  s.setup_s = 0.01;
  s.run_wall_s = 2.0;
  s.run_cpu_s = 2.5;
  s.deliveries_per_s = 1e6;
  s.peak_rss_mb = 50.0;
  // Never synchronized: the simulated outcome metrics
  // are left out, not written as 0.
  auto m = by_name(perfbench::end_to_end_metrics(s));
  EXPECT_EQ(m.size(), perfbench::kHostMetrics);
  for (const auto& spec :
       perfbench::end_to_end_catalogue().first(perfbench::kHostMetrics)) {
    ASSERT_TRUE(m.count(std::string(spec.name))) << spec.name;
    EXPECT_EQ(m[std::string(spec.name)].unit, spec.unit);
  }
  EXPECT_EQ(m["run_cpu_s"].value, 2.5);
  EXPECT_EQ(m["deliveries_per_s"].unit, "1/s");

  s.sync_latency_s = 1.2;
  s.steady_max_us = 9.69;
  s.steady_p99_us = 8.15;
  m = by_name(perfbench::end_to_end_metrics(s));
  EXPECT_EQ(m.size(), perfbench::end_to_end_catalogue().size());
  EXPECT_EQ(m["steady_max_us"].value, 9.69);
  EXPECT_EQ(m["steady_max_us"].unit, "us");
  EXPECT_EQ(m["sync_latency_s"].unit, "s");
}

TEST(PerfbenchMetrics, LayerMetricsOfAFullSerialRun) {
  auto m = by_name(perfbench::layer_metrics(full_serial_run()));
  EXPECT_DOUBLE_EQ(m["runner.setup_ns_per_node"].value, 2e4);
  EXPECT_DOUBLE_EQ(m["runner.rss_kb_per_node"].value, 512.0);
  EXPECT_DOUBLE_EQ(m["runner.slice_wall_ms_p50"].value, 20.0);
  EXPECT_DOUBLE_EQ(m["runner.slice_wall_ms_max"].value, 30.0);
  EXPECT_DOUBLE_EQ(m["sim.events"].value, 4000.0);
  EXPECT_DOUBLE_EQ(m["sim.events_per_delivery"].value, 2.0);
  EXPECT_DOUBLE_EQ(m["sim.dispatch_ns_per_event"].value, 150'000.0);
  EXPECT_DOUBLE_EQ(m["sim.dispatch_share"].value, 0.6);
  EXPECT_DOUBLE_EQ(m["sim.queue_depth_p50"].value, 120.0);
  EXPECT_DOUBLE_EQ(m["sim.queue_depth_p99"].value, 210.0);
  EXPECT_DOUBLE_EQ(m["mac.delivery_ns_per_tx"].value, 5e6);
  EXPECT_DOUBLE_EQ(m["mac.delivery_ns_per_delivery"].value, 5e4);
  EXPECT_DOUBLE_EQ(m["mac.delivery_share"].value, 0.1);
  EXPECT_DOUBLE_EQ(m["mac.collided_share"].value, 0.25);
  EXPECT_DOUBLE_EQ(m["mac.per_drops"].value, 7.0);
  EXPECT_DOUBLE_EQ(m["crypto.verify_ns_per_rx"].value, 2e5);
  EXPECT_DOUBLE_EQ(m["crypto.verify_share"].value, 0.2);
  EXPECT_DOUBLE_EQ(m["crypto.auth_ok_share"].value, 0.9);
  EXPECT_DOUBLE_EQ(m["crypto.rejects"].value, 6.0);
  EXPECT_DOUBLE_EQ(m["core.solve_ns_per_adjustment"].value, 125'000.0);
  EXPECT_DOUBLE_EQ(m["core.takeovers"].value, 3.0);
  EXPECT_DOUBLE_EQ(m["core.guard_reject_share"].value, 0.05);
  EXPECT_DOUBLE_EQ(m["core.rx_adjust_share"].value, 0.8);
  EXPECT_DOUBLE_EQ(m["obs.jsonl_flushes_per_line"].value, 1.0);
  EXPECT_DOUBLE_EQ(m["obs.jsonl_ns_per_line"].value, 10'000.0);
  EXPECT_DOUBLE_EQ(m["obs.sink_share"].value, 5e-4);
  EXPECT_DOUBLE_EQ(m["obs.audit_warning"].value, 3.0);
  EXPECT_DOUBLE_EQ(m["obs.trace_overhead_share"].value, 0.25);
  // Serial kernel: every layer but the shard executor applies.
  for (const auto& spec : perfbench::layer_catalogue()) {
    const bool shard = std::string_view(spec.name).starts_with("sim.shard.");
    EXPECT_EQ(m.count(std::string(spec.name)), shard ? 0u : 1u) << spec.name;
  }
}

TEST(PerfbenchMetrics, LayersAWorkloadDoesNotExerciseAreOmitted) {
  perfbench::TracedRun r = full_serial_run();
  r.slice_wall_ms.clear();
  r.registry = {};
  r.audit_critical.reset();
  r.audit_warning.reset();
  r.jsonl.reset();
  r.telemetry_lines.reset();
  r.honest.adjustments = 0;
  const auto m = by_name(perfbench::layer_metrics(r));
  for (const char* absent :
       {"runner.slice_wall_ms_p50", "sim.queue_depth_p99", "sim.shard.windows",
        "crypto.auth_ok_share", "core.takeovers",
        "core.solve_ns_per_adjustment", "obs.jsonl_lines", "obs.sink_share",
        "obs.telemetry_lines", "obs.audit_critical"}) {
    EXPECT_EQ(m.count(absent), 0u) << absent;
  }
  // A zero count is still a count; a ratio over a zero base is omitted.
  EXPECT_EQ(m.at("core.adjustments").value, 0.0);
  EXPECT_EQ(m.count("core.rx_adjust_share"), 1u);
}

TEST(PerfbenchMetrics, ShardedRunReportsTheExecutorGauges) {
  perfbench::TracedRun r = full_serial_run();
  r.threads = 2;
  r.slice_wall_ms.clear();
  r.registry.counters.push_back({"shard.windows", 400});
  r.registry.counters.push_back({"shard.announcements", 9});
  r.registry.gauges = {{"shard.imbalance", 1.1},
                       {"shard.phase_wall_ns", 1.0e9},
                       {"shard.0.busy_ns", 0.8e9},
                       {"shard.1.busy_ns", 0.7e9},
                       {"shard.0.barrier_wait_ns", 0.2e9},
                       {"shard.1.barrier_wait_ns", 0.3e9}};
  auto m = by_name(perfbench::layer_metrics(r));
  EXPECT_DOUBLE_EQ(m["sim.shard.windows"].value, 400.0);
  EXPECT_DOUBLE_EQ(m["sim.shard.events_per_window"].value, 10.0);
  EXPECT_DOUBLE_EQ(m["sim.shard.imbalance"].value, 1.1);
  // 2 threads x 1 s of parallel phases, 1.5 s of it busy.
  EXPECT_DOUBLE_EQ(m["sim.shard.parallel_efficiency"].value, 0.75);
  // 0.5 s idle out of 2 threads x 2 s of run.
  EXPECT_DOUBLE_EQ(m["sim.shard.barrier_wait_share"].value, 0.125);
  EXPECT_DOUBLE_EQ(m["sim.shard.announcements"].value, 9.0);
  EXPECT_EQ(m.count("runner.slice_wall_ms_max"), 0u);
}

// BENCHMARK.json must name exactly what the result line carries: the host
// end-to-end metrics and the whole per-layer catalogue, with their units,
// and the workloads the benchmark defines.
TEST(PerfbenchMetrics, ManifestMatchesTheCatalogues) {
  std::ifstream in(PERFBENCH_MANIFEST);
  ASSERT_TRUE(in) << PERFBENCH_MANIFEST;
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = sstsp::obs::json::parse(text.str());
  ASSERT_TRUE(doc && doc->is_object());
  const auto check = [&](const char* key,
                         std::span<const perfbench::MetricSpec> want) {
    const auto* list = doc->find(key);
    ASSERT_TRUE(list != nullptr && list->is_array()) << key;
    ASSERT_EQ(list->array.size(), want.size()) << key;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(list->array[i].find("name")->string, want[i].name) << key;
      EXPECT_EQ(list->array[i].find("unit")->string, want[i].unit) << key;
    }
  };
  check("end_to_end",
        perfbench::end_to_end_catalogue().first(perfbench::kHostMetrics));
  check("per_layer", perfbench::layer_catalogue());

  const auto* listed = doc->find("workloads");
  ASSERT_TRUE(listed != nullptr && listed->is_array());
  const auto defined = perfbench::workloads();
  ASSERT_EQ(listed->array.size(), defined.size());
  for (std::size_t i = 0; i < defined.size(); ++i) {
    EXPECT_EQ(listed->array[i].find("name")->string, defined[i].name);
    EXPECT_EQ(listed->array[i].find("why")->string, defined[i].why);
  }
}

}  // namespace
