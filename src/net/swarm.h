// In-process N-node live-stack orchestrator (the sstsp_swarm engine).
//
// A Swarm spawns `nodes` NodeRuntimes on one hosting Simulator, connects
// them through either
//   * LoopbackTransport — virtual-time hub, sim_.run_until() drives the
//     run to completion as fast as the host can execute it, and a seeded
//     run is bit-reproducible (tests/net_swarm_test.cpp); or
//   * UdpTransport     — one real non-blocking UDP socket per node on the
//     loopback host, unicast peer mesh over the discovered ephemeral
//     ports, paced in real time by a net::Reactor (so a 10 s run takes
//     10 s of wall clock),
// and observes them through the same run harness as run::Network
// (runner/harness.h): one ObserverSet built from reporting_scenario(),
// attached to every node, and one Harness sampling the clock spread — so
// the audit/trace tooling consumes a live run unchanged.
//
// The result is reported as a run::RunResult (plus RunResult::net wire
// accounting) against a synthesized run::Scenario, which makes the JSON
// report and the strict-audit exit-code plumbing of sstsp_sim directly
// reusable by sstsp_swarm.
#pragma once

#include <csignal>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/plan.h"
#include "fault/transport.h"
#include "net/loopback.h"
#include "net/node.h"
#include "net/prom_exporter.h"
#include "net/reactor.h"
#include "net/telemetry_link.h"
#include "net/udp.h"
#include "runner/experiment.h"
#include "runner/harness.h"
#include "runner/scenario.h"
#include "sim/simulator.h"

namespace sstsp::net {

enum class TransportKind { kLoopback, kUdp };

[[nodiscard]] const char* transport_kind_name(TransportKind kind);

struct SwarmConfig {
  int nodes = 5;
  double duration_s = 10.0;
  std::uint64_t seed = 1;

  TransportKind transport = TransportKind::kUdp;

  /// UDP mode: one socket per node, bound to this (loopback) address.
  /// base_port == 0 binds ephemeral ports and wires the peer mesh from the
  /// discovered ports; otherwise node i binds base_port + i.
  std::string bind_address = "127.0.0.1";
  std::uint16_t base_port = 0;

  /// Loopback mode: hub latency/drop model.
  LoopbackConfig loopback{};

  /// Expected one-way wire latency (NodeConfig::wire_latency_us).  < 0 =
  /// auto: the loopback latency-model midpoint, or kUdpWireLatencyUs for
  /// real sockets.
  double wire_latency_us = -1.0;

  core::SstspConfig sstsp = live_sstsp_defaults();
  mac::PhyParams phy{};

  /// Injected faults (fault/plan.h) — the same plan format run::Network
  /// consumes; packet directives apply through a FaultyTransport decorator
  /// on each node's endpoint, node faults stop/start NodeRuntimes.
  fault::FaultPlan faults{};

  double max_drift_ppm = 100.0;
  double initial_offset_us = 112.0;
  /// Node 0 boots directly in the reference role (skips election).
  bool preestablished_reference = false;

  // Observability — same semantics as the run::Scenario fields.
  /// Lemma-1 divergence bound handed to the invariant monitor.  < 0 =
  /// auto: the library default (sim-calibrated 50 us) for virtual-time
  /// loopback runs, or kUdpDivergeThresholdUs for wall-paced UDP runs —
  /// user space cannot fully compensate a scheduler preemption landing
  /// between a clock read and the adjacent syscall, so one guard-accepted
  /// noisy measurement can transiently move a node's (k, b) solve by more
  /// than the hardware-timestamping model allows (see DESIGN.md
  /// "Live stack").  Convergence stays judged at the strict 25 us.
  double monitor_diverge_us = -1.0;
  double sample_period_s = 0.1;
  std::size_t trace_capacity = 0;
  bool collect_metrics = true;
  bool profile = false;
  bool monitor = false;

  // Streaming telemetry + flight recorder (DESIGN.md §10) — same semantics
  // as the run::Scenario fields.  Cluster samples (source="swarm") are
  // emitted from the existing clock-spread sampling tick; per-node samples
  // (source="node") are emitted by each NodeRuntime and aggregated into the
  // same JSONL stream — over a datagram socket on the reactor in UDP mode,
  // by direct callback in virtual-time loopback mode.
  std::string telemetry_out{};
  double telemetry_interval_s = 1.0;
  /// Attach the per-node error array to cluster samples: 1 = always,
  /// 0 = never, < 0 = auto (deployments of <= 64 nodes).
  int telemetry_per_node = -1;
  std::string flight_recorder_out{};
  std::size_t flight_capacity = 512;
  /// Live status line on stderr, refreshed once per telemetry interval
  /// (wall-paced UDP runs; a loopback run finishes in milliseconds).
  bool watch = false;

  // Performance observatory (DESIGN.md §11).
  /// Phase-sampling profiler into the metrics registry: virtual-time gated
  /// on the dispatch loop, plus a SIGPROF statistical sampler on wall-paced
  /// UDP runs.
  bool phase_sampler = false;
  double phase_sampler_interval_s = 0.001;
  /// Prometheus /metrics endpoint on the reactor (UDP mode only):
  /// -1 = off, 0 = ephemeral (port printed at startup), > 0 = fixed port.
  int prom_port = -1;
};

class Swarm {
 public:
  /// Builds the whole deployment (sockets bound, peer mesh wired, nodes
  /// constructed, observability attached) without starting the protocol.
  /// nullptr + *error on any failure (bad config, socket errors).
  [[nodiscard]] static std::unique_ptr<Swarm> create(
      const SwarmConfig& config, std::string* error);

  Swarm(const Swarm&) = delete;
  Swarm& operator=(const Swarm&) = delete;

  /// Powers every node on and runs to `duration_s` — virtual-time
  /// (loopback) or wall-paced (UDP).  Blocking; call once.
  void run();

  /// Derives the run report; call after run().
  [[nodiscard]] run::RunResult collect();

  /// The scenario the observers were built from and the report is
  /// written against (for json_report).
  [[nodiscard]] const run::Scenario& reporting_scenario() const {
    return scenario_;
  }

  [[nodiscard]] int node_count() const {
    return static_cast<int>(nodes_.size());
  }
  [[nodiscard]] NodeRuntime& node(int i) {
    return *nodes_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] run::ObserverSet& observers() { return observers_; }
  [[nodiscard]] trace::EventTrace* trace() { return observers_.trace(); }
  [[nodiscard]] obs::Profiler* profiler() { return observers_.profiler(); }
  [[nodiscard]] PromExporter* prom_exporter() { return prom_.get(); }
  [[nodiscard]] const SwarmConfig& config() const { return config_; }

  /// Arms SIGUSR1-style dump requests: when *flag becomes nonzero, the next
  /// sampling tick resets it and dumps the flight recorder (no-op without
  /// --flight-recorder).
  void set_dump_request_flag(volatile std::sig_atomic_t* flag) {
    observers_.set_dump_request_flag(flag);
  }

  /// Nodes that collect() found dead or silent without a planned fault —
  /// a partial deployment must not masquerade as a clean run; the caller
  /// (sstsp_swarm) turns a non-empty list into a nonzero exit.  Valid
  /// after collect().
  [[nodiscard]] const std::vector<mac::NodeId>& failed_nodes() const {
    return failed_nodes_;
  }

  /// The node currently holding the reference role, if any.
  [[nodiscard]] std::optional<mac::NodeId> current_reference() const {
    return harness_.current_reference();
  }
  /// Max pairwise adjusted-clock offset over awake synchronized nodes at
  /// the current instant (nullopt until at least one node synchronizes).
  [[nodiscard]] std::optional<double> instant_max_diff_us() const {
    return harness_.instant_max_diff_us();
  }

  /// Async-signal-safe Ctrl-C support (UDP mode; loopback runs are not
  /// interruptible mid-flight, they finish in milliseconds).
  void set_interrupt_flag(const volatile std::sig_atomic_t* flag) {
    if (reactor_) reactor_->set_interrupt_flag(flag);
  }

 private:
  explicit Swarm(const SwarmConfig& config);

  [[nodiscard]] bool init(std::string* error);
  [[nodiscard]] bool init_telemetry_link(std::string* error);
  void arm();
  void print_watch_line(const obs::TelemetrySample& sample);
  [[nodiscard]] std::string prometheus_scrape_body();

  SwarmConfig config_;
  const run::Scenario scenario_;
  sim::Simulator sim_;
  run::ObserverSet observers_;
  run::Harness harness_;

  std::unique_ptr<Reactor> reactor_;             ///< UDP mode
  std::vector<std::unique_ptr<UdpTransport>> udp_;
  std::unique_ptr<LoopbackHub> hub_;             ///< loopback mode
  std::unique_ptr<PromExporter> prom_;
  std::vector<std::unique_ptr<fault::FaultyTransport>> faulty_;

  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
  /// Per node: a planned fault currently holds it down (crash/pause
  /// scheduling flips this) — collect() only flags *unplanned* deaths.
  std::vector<bool> expected_down_;
  std::vector<mac::NodeId> failed_nodes_;

  bool armed_{false};
  double wall_seconds_{0.0};

  // Live telemetry link (UDP mode): nodes publish their samples as
  // datagrams to the collector, which folds them into the aggregate
  // stream.  Everything runs on the single sim/reactor thread (collector
  // callbacks included), so no locking is needed.
  std::vector<std::unique_ptr<TelemetryExporter>> exporters_;
  std::unique_ptr<TelemetryCollector> collector_;
};

}  // namespace sstsp::net
