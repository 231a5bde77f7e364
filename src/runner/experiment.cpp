#include "runner/experiment.h"

#include <algorithm>
#include <chrono>

#include "runner/network.h"
#include "runner/parallel_network.h"

namespace sstsp::run {

void derive_series_stats(RunResult& result, double duration_s) {
  result.sync_latency_s =
      result.max_diff.first_sustained_below(kSyncThresholdUs, 1.0);

  const double steady_from =
      std::max(20.0, result.sync_latency_s.value_or(0.0) + 5.0);
  result.steady_max_us = result.max_diff.max_in(steady_from, duration_s);
  result.steady_p99_us =
      result.max_diff.quantile_in(0.99, steady_from, duration_s);
}

RunResult collect_result(Network& net, double wall_seconds) {
  const Scenario& scenario = net.scenario();
  RunResult result;
  result.max_diff = net.max_diff_series();
  result.channel = net.channel_stats();
  result.honest = net.honest_stats();
  if (const auto* atk = net.attacker_stats()) result.attacker = *atk;
  result.events_processed = net.simulator().events_processed();
  result.wall_seconds = wall_seconds;
  net.observers().report(result);
  if (scenario.cluster.enabled()) {
    result.cluster_spread = net.cluster_spread_series();
    result.attach_fraction = net.attach_fraction_series();
    // Same steady window as derive_series_stats, but against the widened
    // cluster threshold (global spread carries the translation error).
    const double threshold =
        kSyncThresholdUs + scenario.cluster.cross_cluster_bound_us();
    const auto latency =
        result.max_diff.first_sustained_below(threshold, 1.0);
    const double steady_from = std::max(20.0, latency.value_or(0.0) + 5.0);
    result.cluster_steady_max_us =
        result.cluster_spread.max_in(steady_from, scenario.duration_s);
  }

  derive_series_stats(result, scenario.duration_s);
  return result;
}

RunResult run_scenario(const Scenario& scenario) {
  if (scenario.threads > 0 || scenario.shards > 0) {
    return run_parallel_scenario(scenario);
  }
  Network net(scenario);
  const auto wall_start = std::chrono::steady_clock::now();
  net.run();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return collect_result(net, wall_seconds);
}

}  // namespace sstsp::run
