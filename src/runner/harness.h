// The run harness: how a run is observed and driven, decided once for
// every host.
//
// Four hosts run the protocol: run::Network (serial kernel),
// run::ParallelNetwork (sharded kernel), net::Swarm (live stack in one
// process) and tools/sstsp_node (one live node).  Each of them
//   * builds the observers its run::Scenario asks for with ObserverSet,
//   * hands ObserverSet::attachment() to every station, and
//   * except sstsp_node, drives its global timeline with one Harness:
//     environment events (churn, reference departures, clock stress),
//     the fault plan's node and clock events with recovery accounting, and
//     the clock-spread sampling tick that feeds the max-diff series,
//     monitor, recovery tracker, instruments, telemetry and the
//     flight-recorder dump request.
// The two simulation kernels also share the scenario builder at the end
// of this header: node placement and clock draws, and the protocol and
// adversary factory.
#pragma once

#include <csignal>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "clock/drift_model.h"
#include "core/key_directory.h"
#include "fault/injector.h"
#include "fault/recovery.h"
#include "metrics/series.h"
#include "obs/flight_recorder.h"
#include "obs/instruments.h"
#include "obs/invariants.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/sampler.h"
#include "obs/telemetry.h"
#include "protocols/station.h"
#include "runner/experiment.h"
#include "runner/scenario.h"
#include "sim/simulator.h"
#include "trace/event_trace.h"
#include "trace/lifecycle.h"

namespace sstsp::run {

/// What differs between the hosts of one scenario: the world, not the run.
struct ObserverHost {
  /// TelemetrySample::source of the run-wide samples.
  const char* telemetry_source = "sim";
  /// Attach RSS and wall clock to telemetry samples (wall-paced runs).
  bool process_stats = false;
  /// Lemma-1 divergence bound for the monitor; < 0 keeps the default.
  double diverge_threshold_us = -1.0;
  /// Extra consumer of every run-wide telemetry sample; when set, the
  /// sampler runs even without Scenario::telemetry_out.
  std::function<void(const obs::TelemetrySample&)> on_sample;
};

/// Every observer a scenario asks for, built once per run (per shard in
/// the sharded kernel).
class ObserverSet {
 public:
  /// Builds instruments (with the discipline counters), profiler, phase
  /// sampler, invariant monitor and lifecycle tracker, fault injector and
  /// recovery tracker (with the plan's monitor disturbances), flight
  /// recorder and its sink, telemetry sampler and its sink, and the event
  /// trace.  The injector draws from `timeline`'s "faults" substream.
  /// Throws std::runtime_error when an output file cannot be opened.
  ObserverSet(const Scenario& scenario, const sim::Simulator& timeline,
              ObserverHost host = {});

  ObserverSet(const ObserverSet&) = delete;
  ObserverSet& operator=(const ObserverSet&) = delete;

  /// The stations' attachment; nullptr when every station observer is
  /// off, so an unobserved run keeps Station::trace_event one branch.
  [[nodiscard]] const proto::Observers* attachment() const {
    return attached_ ? &attachment_ : nullptr;
  }

  /// Hooks the queue-depth instruments, the profiler and the phase
  /// sampler into the dispatch loop of `sim`.
  void hook(sim::Simulator& sim) const;

  [[nodiscard]] obs::Registry& registry() { return registry_; }
  [[nodiscard]] const obs::Registry& registry() const { return registry_; }
  [[nodiscard]] obs::Instruments* instruments() const {
    return attachment_.instruments;
  }
  [[nodiscard]] obs::Profiler* profiler() const {
    return attachment_.profiler;
  }
  [[nodiscard]] obs::PhaseSampler* phase_sampler() const {
    return phase_sampler_.get();
  }
  [[nodiscard]] obs::InvariantMonitor* monitor() const {
    return attachment_.monitor;
  }
  [[nodiscard]] trace::EventTrace* trace() const { return attachment_.trace; }
  [[nodiscard]] fault::FaultInjector* injector() const {
    return injector_.get();
  }
  [[nodiscard]] fault::RecoveryTracker* recovery() const {
    return attachment_.recovery;
  }
  [[nodiscard]] obs::FlightRecorder* flight() const {
    return attachment_.flight;
  }
  /// The run-wide telemetry sampler; nullptr unless telemetry_out is set
  /// (or ObserverHost::on_sample).
  [[nodiscard]] obs::TelemetrySampler* telemetry() const {
    return sampler_.get();
  }

  /// Appends one sample to the telemetry sink, if open.
  void write_telemetry(const obs::TelemetrySample& sample);

  /// Registers an async-signal flag (SIGUSR1 handler storage), polled by
  /// poll_dump_request().
  void set_dump_request_flag(volatile std::sig_atomic_t* flag) {
    dump_flag_ = flag;
  }
  /// When the flag is raised: clears it and dumps the flight recorder
  /// (if any) with reason "dump-request".
  void poll_dump_request(double now_s);

  /// Fills the observer parts of a finished run's result: metrics, profile
  /// (from result.events_processed and result.wall_seconds), audit and
  /// recovery.
  void report(RunResult& result);

 private:
  ObserverHost host_;
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
  std::unique_ptr<trace::EventTrace> trace_;
  proto::Observers attachment_;
  bool attached_{false};
  volatile std::sig_atomic_t* dump_flag_{nullptr};
};

/// Drives the global timeline of one run.  The scenario, timeline and
/// observer set must outlive the harness.
class Harness {
 public:
  Harness(const Scenario& scenario, sim::Simulator& timeline,
          ObserverSet& observers)
      : scenario_(scenario), timeline_(timeline), observers_(observers) {}

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// The run's stations in node-id order, honest ones first: an attacker,
  /// if any, is last and not counted in `honest`.
  void set_stations(std::vector<proto::Station*> stations,
                    std::size_t honest);

  /// Extra sampling run on every tick after the spread feeds and before
  /// telemetry (Network: the cluster spread).
  void set_extra_sampler(std::function<void(sim::SimTime)> sample) {
    extra_sampler_ = std::move(sample);
  }

  /// Schedules churn, reference departures, clock stress, the fault plan's
  /// node and clock events and the sampling tick, in that order.
  /// `on_power` hears about every planned power change as it happens.
  void arm(std::function<void(mac::NodeId, bool powered)> on_power = {});

  [[nodiscard]] const metrics::Series& max_diff() const { return max_diff_; }

  /// The awake honest station holding the reference role (cluster runs:
  /// the root cluster's, the network timescale's origin).
  [[nodiscard]] std::optional<mac::NodeId> current_reference() const;

  /// Max - min of the synchronized clocks of the awake, synchronized
  /// honest stations right now.
  [[nodiscard]] std::optional<double> instant_max_diff_us() const;

  [[nodiscard]] proto::ProtocolStats honest_stats() const;
  /// nullptr when the run has no attacker.
  [[nodiscard]] const proto::ProtocolStats* attacker_stats() const;

 private:
  void schedule_environment();
  void clock_stress_tick();
  void schedule_faults(std::function<void(mac::NodeId, bool)> on_power);
  void sampling_tick();
  void sample();
  void emit_telemetry(sim::SimTime now, double lo, double hi, double sum);

  const Scenario& scenario_;
  sim::Simulator& timeline_;
  ObserverSet& observers_;
  std::vector<proto::Station*> stations_;
  std::size_t honest_{0};
  std::function<void(sim::SimTime)> extra_sampler_;
  metrics::Series max_diff_;
  std::vector<clk::DriftStressor> stressors_;  // one per honest node
  std::vector<double> values_;                 // reused per sampling tick
};

/// Cumulative telemetry totals of `stats` after `events` simulator events.
[[nodiscard]] obs::TelemetryCumulative telemetry_totals(
    const proto::ProtocolStats& stats, std::uint64_t events);

// --- Scenario builder shared by Network and ParallelNetwork ---------------

struct NodeDraw {
  mac::Position pos;
  clk::DriftModel drift;
  double offset_us;
};

/// Position and oscillator of every station, attacker last, from the
/// "placement" and "clocks" substreams of the timeline simulator.
[[nodiscard]] std::vector<NodeDraw> draw_nodes(const Scenario& scenario,
                                               const sim::Simulator& timeline);

/// The protocol station `st` runs: the scenario's adversary for the extra
/// station, the scenario's protocol otherwise.  Throws std::runtime_error
/// on an unknown adversary or invalid adversary parameters.
[[nodiscard]] std::unique_ptr<proto::SyncProtocol> make_protocol(
    const Scenario& scenario, proto::Station& st,
    core::KeyDirectory& directory);

}  // namespace sstsp::run
