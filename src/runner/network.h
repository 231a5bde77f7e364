// Network: materializes a Scenario into a simulator, channel, stations and
// schedule of environmental events (churn, reference departures, attacks,
// metric sampling), then runs it.
#pragma once

#include <csignal>
#include <memory>
#include <vector>

#include "core/key_directory.h"
#include "metrics/series.h"
#include "protocols/station.h"
#include "runner/harness.h"
#include "runner/scenario.h"

namespace sstsp::run {

class Network {
 public:
  /// Throws std::runtime_error on an invalid cluster layout and when an
  /// observer output path cannot be opened.
  explicit Network(const Scenario& scenario);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Runs the full scenario (power-on through duration_s).
  void run();

  /// Runs up to `horizon_s` only; callable repeatedly (examples use this to
  /// interleave their own probes).
  void run_until(double horizon_s);

  /// Call once before the first run_until(); run() does this itself.
  void arm();

  [[nodiscard]] const metrics::Series& max_diff_series() const {
    return harness_.max_diff();
  }

  /// Cluster runs only (empty otherwise): per-sample inter-cluster spread
  /// (max - min of per-cluster mean global readings, attached nodes only)
  /// and the fraction of awake honest nodes attached to the root timescale.
  [[nodiscard]] const metrics::Series& cluster_spread_series() const {
    return cluster_spread_;
  }
  [[nodiscard]] const metrics::Series& attach_fraction_series() const {
    return attach_fraction_;
  }
  [[nodiscard]] const mac::ChannelStats& channel_stats() const {
    return channel_.stats();
  }
  [[nodiscard]] proto::ProtocolStats honest_stats() const {
    return harness_.honest_stats();
  }
  [[nodiscard]] const proto::ProtocolStats* attacker_stats() const {
    return harness_.attacker_stats();
  }

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const Scenario& scenario() const { return scenario_; }

  [[nodiscard]] std::size_t station_count() const { return stations_.size(); }
  [[nodiscard]] proto::Station& station(std::size_t i) {
    return *stations_[i];
  }

  /// Index of the station currently holding the reference role (SSTSP),
  /// or nullopt.
  [[nodiscard]] std::optional<std::size_t> current_reference_index() const {
    return harness_.current_reference();
  }

  /// Instantaneous max pairwise difference of the synchronized clocks of
  /// awake, synchronized, honest stations (max - min; O(N)).
  [[nodiscard]] std::optional<double> instant_max_diff_us() const {
    return harness_.instant_max_diff_us();
  }

  /// Every observer of the run (runner/harness.h).
  [[nodiscard]] ObserverSet& observers() { return observers_; }

  /// The shared protocol-event trace; nullptr unless
  /// Scenario::trace_capacity > 0.
  [[nodiscard]] trace::EventTrace* trace() { return observers_.trace(); }

  /// The hot-path profiler; nullptr unless Scenario::profile is set.
  [[nodiscard]] obs::Profiler* profiler() { return observers_.profiler(); }

  /// Registers an async-signal flag (SIGUSR1 handler storage): when the
  /// flag is non-zero at a sampling tick, the flight recorder dumps with
  /// reason "dump-request" and the flag is cleared.
  void set_dump_request_flag(volatile std::sig_atomic_t* flag) {
    observers_.set_dump_request_flag(flag);
  }

 private:
  void build_stations();
  void sample_cluster(sim::SimTime now);

  Scenario scenario_;
  sim::Simulator sim_;
  mac::Channel channel_;
  ObserverSet observers_;
  Harness harness_;
  core::KeyDirectory directory_;
  std::vector<std::unique_ptr<proto::Station>> stations_;
  metrics::Series cluster_spread_;
  metrics::Series attach_fraction_;
  std::vector<double> cluster_sum_;  // per-cluster scratch, cluster runs
  std::vector<int> cluster_n_;
  bool armed_{false};
};

}  // namespace sstsp::run
