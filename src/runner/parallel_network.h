// ParallelNetwork: the sharded counterpart of run::Network.
//
// Materializes a Scenario onto the parallel kernel: a sim::ShardExecutor
// (one simulator per shard + one control simulator), a mac::ShardedWorld
// partitioning the deployment, and the stations distributed across shards.
// The run-global timeline — churn, reference departures, clock-spread
// sampling — runs through the same run::Harness as Network, on the control
// simulator between windows, serialized against every shard; with the
// kernel's exactness contract (DESIGN.md §12) a run is bit-identical for
// any --threads/--shards combination.
//
// Deliberately narrower than Network: each shard carries an ObserverSet
// with the trace, instruments and profiler only.  Fault plans, invariant
// monitoring, telemetry streaming, flight recording and the phase sampler
// are not wired into the sharded kernel yet, and the constructor rejects
// scenarios requesting them (std::runtime_error) rather than silently
// dropping them.
#pragma once

#include <memory>
#include <vector>

#include "core/key_directory.h"
#include "mac/sharded_channel.h"
#include "metrics/series.h"
#include "protocols/station.h"
#include "runner/experiment.h"
#include "runner/harness.h"
#include "runner/scenario.h"
#include "sim/shard_exec.h"

namespace sstsp::run {

class ParallelNetwork {
 public:
  /// Throws std::runtime_error when the scenario requests a feature the
  /// sharded kernel does not support, or when the PHY parameters leave no
  /// conservative lookahead (cca_time or rx_latency_min of zero).
  explicit ParallelNetwork(const Scenario& scenario);

  ParallelNetwork(const ParallelNetwork&) = delete;
  ParallelNetwork& operator=(const ParallelNetwork&) = delete;

  /// Runs the full scenario (power-on through duration_s).
  void run();

  [[nodiscard]] const Scenario& scenario() const { return scenario_; }
  [[nodiscard]] int shard_count() const { return exec_.shard_count(); }

  [[nodiscard]] const metrics::Series& max_diff_series() const {
    return harness_.max_diff();
  }
  [[nodiscard]] mac::ChannelStats channel_stats() const {
    return world_->stats();
  }
  [[nodiscard]] proto::ProtocolStats honest_stats() const {
    return harness_.honest_stats();
  }
  [[nodiscard]] const proto::ProtocolStats* attacker_stats() const {
    return harness_.attacker_stats();
  }
  [[nodiscard]] std::uint64_t events_processed() const {
    return exec_.total_events();
  }

  [[nodiscard]] std::size_t station_count() const { return stations_.size(); }
  [[nodiscard]] proto::Station& station(std::size_t i) {
    return *stations_[i];
  }

  /// Merged view of every shard registry (plus the control registry);
  /// counters sum, histograms merge bucket-wise, in shard order.
  [[nodiscard]] obs::RegistrySnapshot metrics_snapshot() const;

  /// Per-shard protocol-event traces; empty unless trace_capacity > 0.
  /// Events of one shard are in record order; use trace::EventTrace::select
  /// and sort across shards for a global view.
  [[nodiscard]] std::vector<trace::EventTrace*> shard_traces() const;

  /// Merged per-shard profiler phases; meaningful only when
  /// Scenario::profile is set.
  [[nodiscard]] obs::ProfileSnapshot profile_snapshot(
      double wall_seconds) const;

  /// Deterministic cross-shard trace merge: every retained per-shard event
  /// sorted by (time, node, kind) — a stable sort, so one node's causal
  /// order survives — replayed into a fresh ring of the scenario's
  /// capacity.  nullptr unless trace_capacity > 0.  Per-shard rings drop
  /// their oldest slices independently, so under eviction the merged ring
  /// holds each shard's newest slice, not a globally-newest window.
  [[nodiscard]] std::unique_ptr<trace::EventTrace> merged_trace() const;

 private:
  void build_stations();
  void arm();
  [[nodiscard]] sim::Simulator& control() { return exec_.control(); }
  void publish_shard_metrics();

  Scenario scenario_;
  sim::ShardExecutor exec_;
  /// The sampling side's instruments and the kernel's own gauges.
  ObserverSet control_observers_;
  Harness harness_;
  std::unique_ptr<mac::ShardedWorld> world_;
  /// One key directory per shard (verification caches are per-receiver-
  /// shard); each holds the chains of every node audible to that shard.
  std::vector<std::unique_ptr<core::KeyDirectory>> directories_;
  /// Trace, instruments and profiler of each shard's stations.
  std::vector<std::unique_ptr<ObserverSet>> shard_observers_;
  std::vector<std::unique_ptr<proto::Station>> stations_;  // global id order
  bool armed_{false};
};

/// Collects a finished ParallelNetwork run into a RunResult (the sharded
/// counterpart of collect_result(Network&, double)).
[[nodiscard]] RunResult collect_result(ParallelNetwork& net,
                                       double wall_seconds);

/// Builds, runs and collects a sharded scenario (the --threads > 0 path of
/// run_scenario).
[[nodiscard]] RunResult run_parallel_scenario(const Scenario& scenario);

}  // namespace sstsp::run
