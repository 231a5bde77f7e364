// Network: materializes a Scenario into a simulator, channel, stations and
// schedule of environmental events (churn, reference departures, attacks,
// metric sampling), then runs it.
#pragma once

#include <csignal>
#include <memory>
#include <vector>

#include "clock/drift_model.h"
#include "core/key_directory.h"
#include "fault/injector.h"
#include "fault/recovery.h"
#include "obs/flight_recorder.h"
#include "obs/instruments.h"
#include "obs/invariants.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/sampler.h"
#include "obs/telemetry.h"
#include "trace/event_trace.h"
#include "trace/lifecycle.h"
#include "metrics/series.h"
#include "protocols/station.h"
#include "runner/scenario.h"

namespace sstsp::run {

class Network {
 public:
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
    return max_diff_;
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
  [[nodiscard]] const mac::ChannelStats& channel_stats() const;
  [[nodiscard]] proto::ProtocolStats honest_stats() const;
  [[nodiscard]] const proto::ProtocolStats* attacker_stats() const;

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const Scenario& scenario() const { return scenario_; }

  [[nodiscard]] std::size_t station_count() const { return stations_.size(); }
  [[nodiscard]] proto::Station& station(std::size_t i) {
    return *stations_[i];
  }

  /// Index of the station currently holding the reference role (SSTSP),
  /// or nullopt.
  [[nodiscard]] std::optional<std::size_t> current_reference_index() const;

  /// Instantaneous max pairwise difference of the synchronized clocks of
  /// awake, synchronized, honest stations (max - min; O(N)).
  [[nodiscard]] std::optional<double> instant_max_diff_us() const;

  /// The shared protocol-event trace; nullptr unless
  /// Scenario::trace_capacity > 0.
  [[nodiscard]] trace::EventTrace* trace() { return trace_.get(); }

  /// The run's metrics registry (always present; empty when
  /// Scenario::collect_metrics is false).
  [[nodiscard]] obs::Registry& metrics_registry() { return registry_; }
  [[nodiscard]] const obs::Registry& metrics_registry() const {
    return registry_;
  }

  /// The hot-path profiler; nullptr unless Scenario::profile is set.
  [[nodiscard]] obs::Profiler* profiler() { return profiler_.get(); }

  /// The phase-sampling profiler; nullptr unless Scenario::phase_sampler is
  /// set.  Records into metrics_registry().
  [[nodiscard]] obs::PhaseSampler* phase_sampler() {
    return phase_sampler_.get();
  }

  /// The invariant monitor / lifecycle tracker; nullptr unless
  /// Scenario::monitor is set.
  [[nodiscard]] obs::InvariantMonitor* monitor() { return monitor_.get(); }
  [[nodiscard]] const obs::InvariantMonitor* monitor() const {
    return monitor_.get();
  }
  [[nodiscard]] trace::BeaconLifecycle* lifecycle() {
    return lifecycle_.get();
  }

  /// Fault machinery; nullptr unless the scenario carries a fault plan.
  [[nodiscard]] fault::FaultInjector* fault_injector() {
    return injector_.get();
  }
  [[nodiscard]] fault::RecoveryTracker* recovery_tracker() {
    return recovery_.get();
  }

  /// Streaming telemetry / flight recorder; nullptr unless the scenario
  /// sets telemetry_out / flight_recorder_out.  The Network constructor
  /// throws std::runtime_error when either output path cannot be opened.
  [[nodiscard]] obs::TelemetrySampler* telemetry_sampler() {
    return sampler_.get();
  }
  [[nodiscard]] obs::FlightRecorder* flight_recorder() {
    return flight_.get();
  }

  /// Registers an async-signal flag (SIGUSR1 handler storage): when the
  /// flag is non-zero at a sampling tick, the flight recorder dumps with
  /// reason "dump-request" and the flag is cleared.
  void set_dump_request_flag(volatile std::sig_atomic_t* flag) {
    dump_flag_ = flag;
  }

 private:
  void build_stations();
  void schedule_environment();
  void schedule_clock_stress();
  void clock_stress_tick();
  void schedule_faults();
  void schedule_sampling();
  void sampling_tick();
  void sample_clock_spread();
  void sample_cluster(sim::SimTime now);
  void emit_telemetry(sim::SimTime now, bool have, double lo, double hi,
                      double sum);

  Scenario scenario_;
  sim::Simulator sim_;
  mac::Channel channel_;
  core::KeyDirectory directory_;
  std::vector<std::unique_ptr<proto::Station>> stations_;
  std::unique_ptr<trace::EventTrace> trace_;
  obs::Registry registry_;
  std::unique_ptr<obs::Instruments> instruments_;
  std::unique_ptr<obs::Profiler> profiler_;
  std::unique_ptr<obs::PhaseSampler> phase_sampler_;
  std::unique_ptr<obs::InvariantMonitor> monitor_;
  std::unique_ptr<trace::BeaconLifecycle> lifecycle_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<fault::RecoveryTracker> recovery_;
  std::unique_ptr<obs::JsonlSink> flight_sink_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::unique_ptr<obs::JsonlSink> telemetry_sink_;
  std::unique_ptr<obs::TelemetrySampler> sampler_;
  volatile std::sig_atomic_t* dump_flag_{nullptr};
  std::size_t attacker_index_;  // == stations_.size() when no attacker
  metrics::Series max_diff_;
  metrics::Series cluster_spread_;
  metrics::Series attach_fraction_;
  std::vector<clk::DriftStressor> stressors_;  // one per honest node
  std::vector<double> sample_values_;  // reused per sampling tick
  std::vector<double> cluster_sum_;    // per-cluster scratch, cluster runs
  std::vector<int> cluster_n_;
  bool armed_{false};
};

}  // namespace sstsp::run
