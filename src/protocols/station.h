// Station: one IBSS node — hardware clock, radio attachment, RNG streams,
// power state — mediating between the simulation substrate and the protocol.
#pragma once

#include <memory>
#include <string>

#include "clock/hardware_clock.h"
#include "fault/recovery.h"
#include "mac/medium.h"
#include "obs/flight_recorder.h"
#include "obs/instruments.h"
#include "obs/invariants.h"
#include "obs/profiler.h"
#include "protocols/sync_protocol.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "trace/event_trace.h"
#include "trace/lifecycle.h"

namespace sstsp::proto {

/// The observers of one run, attached to its stations as one set (built by
/// run::ObserverSet).  Null members are off.  Protocol events fan out
/// through on_event; span sites and monitor hooks read their member.
struct Observers {
  trace::EventTrace* trace{nullptr};
  obs::Instruments* instruments{nullptr};
  obs::Profiler* profiler{nullptr};
  obs::InvariantMonitor* monitor{nullptr};
  trace::BeaconLifecycle* lifecycle{nullptr};
  fault::RecoveryTracker* recovery{nullptr};
  obs::FlightRecorder* flight{nullptr};

  /// Fans one protocol event out.  The monitor sees it before the flight
  /// ring does: a dump fired by a new audit record ends at the event
  /// before the one that triggered it.
  void on_event(const trace::TraceEvent& event) const {
    if (trace != nullptr) trace->record(event);
    if (instruments != nullptr) {
      instruments->on_protocol_event(event.kind, event.value_us);
    }
    if (monitor != nullptr) monitor->on_event(event);
    if (lifecycle != nullptr) lifecycle->on_event(event);
    if (recovery != nullptr) recovery->on_trace_event(event);
    if (flight != nullptr) flight->on_trace_event(event);
  }
};

class Station {
 public:
  /// `channel` may be the run-wide mac::Channel or one shard of the
  /// parallel kernel — the station only uses the mac::Medium surface.
  Station(sim::Simulator& sim, mac::Medium& channel, mac::NodeId id,
          clk::HardwareClock hw, mac::Position pos);

  Station(const Station&) = delete;
  Station& operator=(const Station&) = delete;

  [[nodiscard]] mac::NodeId id() const { return id_; }
  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] mac::Medium& channel() { return channel_; }
  [[nodiscard]] const clk::HardwareClock& hw() const { return hw_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }

  /// Hardware clock reading now.
  [[nodiscard]] double hw_us_now() const { return hw_.read_us(sim_.now()); }

  [[nodiscard]] bool awake() const { return awake_; }

  /// Installs the protocol; must happen before the first power_on().
  void set_protocol(std::unique_ptr<SyncProtocol> proto) {
    proto_ = std::move(proto);
  }
  [[nodiscard]] SyncProtocol& protocol() { return *proto_; }
  [[nodiscard]] const SyncProtocol& protocol() const { return *proto_; }
  [[nodiscard]] bool has_protocol() const { return proto_ != nullptr; }

  void power_on();
  void power_off();

  /// Radio: transmit a frame of the given on-air duration, starting now.
  /// Returns the channel-assigned lifecycle trace ID (see Frame::trace_id).
  std::uint64_t transmit(mac::Frame frame, sim::SimTime duration) {
    return channel_.transmit(channel_index_, std::move(frame), duration);
  }

  /// Carrier sense at time `at` (usually now).
  [[nodiscard]] bool medium_busy(sim::SimTime at) const {
    return channel_.would_detect_busy(channel_index_, at);
  }

  /// Attaches the run's observers (nullptr detaches); the set is shared by
  /// every station of a run and must outlive the attachment.  Hosts attach
  /// nothing when every observer is off (runner/harness.h).
  void attach(const Observers* observers) { obs_ = observers; }
  [[nodiscard]] const Observers* observers() const { return obs_; }

  /// The attached instruments / profiler / invariant monitor, or nullptr.
  /// Protocols call the monitor's pipeline hooks through monitor()
  /// directly (null-checked at each site).
  [[nodiscard]] obs::Instruments* instruments() const {
    return obs_ != nullptr ? obs_->instruments : nullptr;
  }
  [[nodiscard]] obs::Profiler* profiler() const {
    return obs_ != nullptr ? obs_->profiler : nullptr;
  }
  [[nodiscard]] obs::InvariantMonitor* monitor() const {
    return obs_ != nullptr ? obs_->monitor : nullptr;
  }

  /// Fault injection: applies a hardware-clock step and/or drift change at
  /// the current instant (fault::ClockFault).  The protocol keeps running on
  /// the perturbed oscillator — exactly what a real glitch looks like.
  void inject_clock_fault(double step_us, double drift_delta_ppm) {
    if (drift_delta_ppm != 0.0) {
      hw_.fault_drift_delta_ppm(drift_delta_ppm, sim_.now());
    }
    if (step_us != 0.0) hw_.fault_step_us(step_us);
  }

  /// Records a protocol event into every attached observer.  With nothing
  /// attached the call is a single branch — the event struct is not even
  /// built.  `trace_id` ties the event to a beacon transmission (0 = not
  /// beacon-scoped).
  void trace_event(trace::EventKind kind, mac::NodeId peer = mac::kNoNode,
                   double value_us = 0.0, std::uint64_t trace_id = 0) {
    if (obs_ == nullptr) return;
    obs_->on_event(trace::TraceEvent{sim_.now(), id_, kind, peer, value_us,
                                     trace_id});
  }

 private:
  sim::Simulator& sim_;
  mac::Medium& channel_;
  mac::NodeId id_;
  clk::HardwareClock hw_;
  sim::Rng rng_;
  std::size_t channel_index_;
  std::unique_ptr<SyncProtocol> proto_;
  const Observers* obs_{nullptr};
  bool awake_{false};
};

}  // namespace sstsp::proto
