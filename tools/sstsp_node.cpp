// sstsp_node — one live SSTSP node over UDP.
//
// Runs the unmodified protocol core against real sockets, wall-clock
// paced.  Several processes started with the same --seed/--nodes and
// wired to each other (explicit peers or one multicast group) form a live
// deployment; each emits the same JSONL event stream and run JSON
// document as sstsp_sim, so the audit/trace tooling works unchanged:
//
//   # two-node deployment on one host
//   $ sstsp_node --id 0 --nodes 2 --port 47000 --peer 127.0.0.1:47001
//       --duration 10 --json-out node0.jsonl &
//   $ sstsp_node --id 1 --nodes 2 --port 47001 --peer 127.0.0.1:47000
//       --duration 10 --json-out node1.jsonl
//
//   # multicast on the loopback interface, shared timeline
//   $ EPOCH=$(date +%s)
//   $ sstsp_node --id 0 --nodes 3 --multicast 239.255.47.10:47100
//       --epoch $EPOCH --duration 30 &
//   ...
//
// --epoch anchors the node's protocol timeline at the given UNIX time, so
// processes started seconds apart still agree on beacon-period boundaries
// and µTESLA interval indices.
#include <chrono>
#include <csignal>
#include <iostream>
#include <string>
#include <vector>

#include "fault/injector.h"
#include "fault/transport.h"
#include "metrics/report.h"
#include "net/node.h"
#include "net/prom_exporter.h"
#include "net/reactor.h"
#include "net/telemetry_link.h"
#include "net/udp.h"
#include "runner/cli.h"
#include "runner/harness.h"
#include "runner/run_output.h"

namespace {

volatile std::sig_atomic_t g_interrupted = 0;
volatile std::sig_atomic_t g_dump_requested = 0;

void on_signal(int) { g_interrupted = 1; }
void on_sigusr1(int) { g_dump_requested = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace sstsp;

  constexpr auto kTool = run::ConfigTool::kNode;
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string error;
  auto cli = run::parse_cli(args, kTool, &error);
  if (cli && !cli->help) {
    // This tool's own checks, after the shared parse.
    const run::LiveOptions& live = cli->live;
    if (live.id >= static_cast<mac::NodeId>(cli->scenario.num_nodes)) {
      error = "--id must be < --nodes";
    } else if (live.udp.multicast_group.empty() && live.udp.peers.empty()) {
      error = "need at least one --peer or a --multicast group";
    }
    if (!error.empty()) cli.reset();
  }
  if (!cli) {
    std::cerr << "error: " << error << "\n\n" << run::cli_usage(kTool);
    return 2;
  }
  if (cli->help) {
    std::cout << run::cli_usage(kTool);
    return 0;
  }
  run::Scenario& scenario = cli->scenario;
  const run::LiveOptions& live = cli->live;

  // Timeline anchor: sim time 0 is the epoch; this process enters at
  // `start_s` on that timeline (0 when no epoch was given).
  double start_s = 0.0;
  if (live.epoch_unix_s >= 0.0) {
    const double now_unix =
        std::chrono::duration<double>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    start_s = now_unix - live.epoch_unix_s;
    if (start_s < 0.0) {
      std::cerr << "error: --epoch lies in the future\n";
      return 2;
    }
  }
  if (scenario.sstsp.chain_length == 0) {
    // The chain must cover every interval since the epoch, not just the
    // run: indices are absolute on the shared timeline.
    scenario.sstsp.chain_length =
        run::chain_length_for(start_s + scenario.duration_s);
  }
  net::NodeConfig node_cfg = net::node_config(scenario, live.id);
  node_cfg.wire_latency_us = live.swarm.wire_latency_us;
  node_cfg.start_as_reference = live.reference;
  node_cfg.emulate_clock = live.emulate_clock;
  node_cfg.drift_ppm = live.drift_ppm;
  node_cfg.offset_us = live.offset_us;

  sim::Simulator sim(scenario.seed);
  net::Reactor reactor(sim);
  net::UdpConfig udp = live.udp;
  udp.bind_address = live.swarm.bind_address;
  auto transport = net::UdpTransport::open(reactor, udp, &error);
  if (!transport) {
    std::cerr << "error: " << error << '\n';
    return 1;
  }

  // Observability: the run harness's observer set, scoped to one node
  // (DESIGN.md §10-11).  Its telemetry sink takes this node's samples.
  std::unique_ptr<run::ObserverSet> observers;
  try {
    observers = std::make_unique<run::ObserverSet>(scenario, sim);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  observers->hook(sim);

  // Fault plan: decorate the transport so packet directives apply to this
  // node's received datagrams; clock faults fire against the emulated
  // oscillator on this node's timeline.  Node crash/pause directives need
  // an orchestrator that owns every process — sstsp_swarm — and are
  // ignored here.
  std::unique_ptr<fault::FaultyTransport> faulty;
  net::Transport* endpoint = transport.get();
  if (fault::FaultInjector* injector = observers->injector()) {
    faulty = std::make_unique<fault::FaultyTransport>(*transport, sim,
                                                      *injector, live.id);
    endpoint = faulty.get();
  }

  net::NodeRuntime node(sim, *endpoint, node_cfg);
  node.set_wall_clock([&reactor] { return reactor.wall_sim_now(); });
  node.attach(observers->attachment());
  if (observers->injector() != nullptr) {
    fault::FaultHooks hooks;
    hooks.clock_fault = [&node](mac::NodeId id, double step_us,
                                double drift_delta_ppm) {
      if (id == node.config().id) {
        node.station().inject_clock_fault(step_us, drift_delta_ppm);
      }
    };
    fault::schedule_fault_events(sim, scenario.faults, observers->injector(),
                                 std::move(hooks));
  }
  obs::FlightRecorder* flight = observers->flight();
  std::unique_ptr<net::TelemetryExporter> telemetry_exporter;
  if (!live.telemetry_udp.host.empty()) {
    telemetry_exporter = net::TelemetryExporter::open(
        live.telemetry_udp.host, live.telemetry_udp.port, &error);
    if (!telemetry_exporter) {
      std::cerr << "error: --telemetry-udp: " << error << '\n';
      return 1;
    }
  }

  run::RunOutput output(cli->output);
  if (!output.begin(observers->trace(), &error)) {
    std::cerr << "error: " << error << '\n';
    return 1;
  }
  output.attach_profiler(observers->profiler());

  std::unique_ptr<net::PromExporter> prom;
  if (live.swarm.prom_port >= 0) {
    prom = std::make_unique<net::PromExporter>();
    const auto body = [&] {
      if (auto* sampler = observers->phase_sampler()) sampler->publish_live();
      std::vector<std::pair<std::string, double>> extra;
      extra.emplace_back("node_id", static_cast<double>(live.id));
      extra.emplace_back("node_sim_time_seconds", sim.now().to_sec());
      extra.emplace_back("reactor_wait_seconds",
                         static_cast<double>(reactor.wait_ns()) * 1e-9);
      extra.emplace_back("reactor_work_seconds",
                         static_cast<double>(reactor.work_ns()) * 1e-9);
      return net::prometheus_body(observers->registry().snapshot(), extra);
    };
    if (!prom->open(reactor,
                    static_cast<std::uint16_t>(live.swarm.prom_port), body,
                    &error)) {
      std::cerr << "error: --prom-port: " << error << '\n';
      return 1;
    }
    std::cout << "prometheus /metrics on 127.0.0.1:" << prom->port() << '\n';
  }

  std::cout << "node " << live.id << "/" << scenario.num_nodes
            << " on " << transport->describe() << ", timeline t="
            << metrics::fmt(start_s, 2) << " s, running "
            << scenario.duration_s << " s ...\n";

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  reactor.set_interrupt_flag(&g_interrupted);

  // Re-read the wall clock immediately before anchoring: the start_s
  // computed at argv time is stale by however long this process spent on
  // startup (socket open, µTESLA chain precompute, trace setup), and that
  // span differs per process — anchoring with it would shift each node's
  // timeline by its own startup cost, a constant ms-scale inter-process
  // clock error no receive-side compensation can see.  The earlier value
  // still sized the key chain; headroom there covers the drift.
  if (live.epoch_unix_s >= 0.0) {
    start_s = std::chrono::duration<double>(
                  std::chrono::system_clock::now().time_since_epoch())
                  .count() -
              live.epoch_unix_s;
  }
  const auto start_sim = sim::SimTime::from_sec_double(start_s);
  const auto end_sim =
      start_sim + sim::SimTime::from_sec_double(scenario.duration_s);
  sim.at(start_sim, [&] {
    node.start();
    if (!scenario.telemetry_out.empty() || telemetry_exporter || flight) {
      // Scheduled from the start instant so the first tick lands one
      // interval into the run, not at a stale pre-epoch time.
      obs::TelemetrySampler::Options topts;
      topts.interval_s = scenario.telemetry_interval_s;
      topts.source = "node";
      topts.process_stats = true;  // wall-paced: RSS + wall clock apply
      node.start_telemetry(
          topts, end_sim, [&](const obs::TelemetrySample& sample) {
            observers->write_telemetry(sample);
            if (telemetry_exporter) telemetry_exporter->publish(sample);
            // SIGUSR1 poll, piggybacked on the telemetry tick (the only
            // periodic event this tool owns).
            observers->poll_dump_request(sim.now().to_sec());
          });
    }
  });
  if (flight) {
    std::signal(SIGUSR1, on_sigusr1);
    observers->set_dump_request_flag(&g_dump_requested);
  }
  reactor.anchor(start_sim);

  const auto wall_start = std::chrono::steady_clock::now();
  obs::PhaseSampler* phase_sampler = observers->phase_sampler();
  if (phase_sampler) {
    std::string live_error;
    if (!phase_sampler->start_live(&live_error)) {
      std::cerr << "warning: live phase sampler: " << live_error << '\n';
    }
  }
  reactor.run_until(end_sim);
  if (phase_sampler) phase_sampler->stop_live();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  if (g_interrupted != 0) {
    std::cout << "(interrupted — reporting the partial run)\n";
  }

  run::RunResult result;
  result.channel = node.channel().stats();
  result.honest = node.station().protocol().stats();
  result.net = node.net_stats();
  obs::Registry& registry = observers->registry();
  registry.gauge("reactor.wait_seconds")
      .set(static_cast<double>(reactor.wait_ns()) * 1e-9);
  registry.gauge("reactor.work_seconds")
      .set(static_cast<double>(reactor.work_ns()) * 1e-9);
  result.events_processed = sim.events_processed();
  result.wall_seconds = wall_seconds;
  observers->report(result);
  // No pairwise series from a single vantage point: sync_latency_s and the
  // steady stats stay null in the report.

  const auto& protocol = node.station().protocol();
  std::cout << "\nrole: "
            << (protocol.is_reference()      ? "reference"
                : protocol.is_synchronized() ? "synchronized"
                                             : "unsynchronized")
            << ", network time "
            << metrics::fmt(protocol.network_time_us(sim.now()), 1)
            << " us\n";

  return output.finish(std::cout, std::cerr, scenario, result,
                       observers->trace());
}
