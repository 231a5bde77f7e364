#include "net/swarm.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace sstsp::net {

const char* transport_kind_name(TransportKind kind) {
  switch (kind) {
    case TransportKind::kLoopback:
      return "loopback";
    case TransportKind::kUdp:
      return "udp";
  }
  return "?";
}

namespace {

run::Scenario scenario_of(const SwarmConfig& c) {
  run::Scenario s;
  s.protocol = run::ProtocolKind::kSstsp;
  s.num_nodes = c.nodes;
  s.duration_s = c.duration_s;
  s.seed = c.seed;
  s.phy = c.phy;
  s.sstsp = c.sstsp;
  s.initial_offset_us = c.initial_offset_us;
  s.max_drift_ppm = c.max_drift_ppm;
  s.preestablished_reference = c.preestablished_reference;
  s.faults = c.faults;
  s.sample_period_s = c.sample_period_s;
  s.trace_capacity = c.trace_capacity;
  s.collect_metrics = c.collect_metrics;
  s.profile = c.profile;
  s.monitor = c.monitor;
  s.telemetry_out = c.telemetry_out;
  s.telemetry_interval_s = c.telemetry_interval_s;
  s.telemetry_per_node = c.telemetry_per_node;
  s.flight_recorder_out = c.flight_recorder_out;
  s.flight_capacity = c.flight_capacity;
  s.phase_sampler = c.phase_sampler;
  s.phase_sampler_interval_s = c.phase_sampler_interval_s;
  return s;
}

}  // namespace

Swarm::Swarm(const SwarmConfig& config)
    : config_(config),
      scenario_(scenario_of(config)),
      sim_(config.seed),
      observers_(scenario_, sim_, [this] {
        run::ObserverHost host;
        host.telemetry_source = "swarm";
        // Process stats (RSS, wall clock) only on the wall-paced
        // transport; a virtual-time loopback run stays bit-reproducible.
        host.process_stats = config_.transport == TransportKind::kUdp;
        host.diverge_threshold_us =
            config_.monitor_diverge_us < 0.0 &&
                    config_.transport == TransportKind::kUdp
                ? kUdpDivergeThresholdUs
                : config_.monitor_diverge_us;
        if (config_.watch) {
          host.on_sample = [this](const obs::TelemetrySample& sample) {
            print_watch_line(sample);
          };
        }
        return host;
      }()),
      harness_(scenario_, sim_, observers_) {
  observers_.hook(sim_);
}

std::unique_ptr<Swarm> Swarm::create(const SwarmConfig& config,
                                     std::string* error) {
  auto fail = [error](std::string message) -> std::unique_ptr<Swarm> {
    if (error != nullptr) *error = std::move(message);
    return nullptr;
  };
  if (config.nodes < 1) return fail("swarm needs at least one node");
  if (config.nodes > 250) {
    // One UDP socket and one private channel per node; the cap is a sanity
    // bound well past the paper's 100-node deployments.
    return fail("swarm is capped at 250 nodes");
  }
  if (config.duration_s <= 0.0) return fail("duration must be positive");

  std::unique_ptr<Swarm> swarm;
  try {
    swarm.reset(new Swarm(config));
  } catch (const std::runtime_error& e) {
    return fail(e.what());  // an unopenable telemetry / flight output
  }
  if (!swarm->init(error)) return nullptr;
  return swarm;
}

bool Swarm::init(std::string* error) {
  std::vector<Transport*> endpoints;
  endpoints.reserve(static_cast<std::size_t>(config_.nodes));

  if (config_.transport == TransportKind::kUdp) {
    reactor_ = std::make_unique<Reactor>(sim_);
    for (int i = 0; i < config_.nodes; ++i) {
      UdpConfig uc;
      uc.bind_address = config_.bind_address;
      uc.bind_port =
          config_.base_port == 0
              ? std::uint16_t{0}
              : static_cast<std::uint16_t>(config_.base_port + i);
      std::string udp_error;
      auto transport = UdpTransport::open(*reactor_, uc, &udp_error);
      if (!transport) {
        if (error != nullptr) {
          *error = "node " + std::to_string(i) + ": " + udp_error;
        }
        return false;
      }
      udp_.push_back(std::move(transport));
    }
    // Every socket is bound (ephemeral ports resolved) — wire the full
    // unicast mesh.
    for (int i = 0; i < config_.nodes; ++i) {
      std::vector<UdpEndpoint> peers;
      peers.reserve(static_cast<std::size_t>(config_.nodes - 1));
      for (int j = 0; j < config_.nodes; ++j) {
        if (j == i) continue;
        peers.push_back(UdpEndpoint{
            config_.bind_address,
            udp_[static_cast<std::size_t>(j)]->local_port()});
      }
      std::string peer_error;
      if (!udp_[static_cast<std::size_t>(i)]->set_peers(peers,
                                                        &peer_error)) {
        if (error != nullptr) *error = std::move(peer_error);
        return false;
      }
      endpoints.push_back(udp_[static_cast<std::size_t>(i)].get());
    }
  } else {
    hub_ = std::make_unique<LoopbackHub>(sim_, config_.loopback);
    for (int i = 0; i < config_.nodes; ++i) {
      endpoints.push_back(&hub_->create_endpoint());
    }
  }

  if (fault::FaultInjector* injector = observers_.injector()) {
    // Decorate every endpoint: the node installs its rx handler on the
    // decorator, which consults the injector per arriving datagram —
    // identical verdict semantics to the simulated channel's hook.
    for (int i = 0; i < config_.nodes; ++i) {
      faulty_.push_back(std::make_unique<fault::FaultyTransport>(
          *endpoints[static_cast<std::size_t>(i)], sim_, *injector,
          static_cast<mac::NodeId>(i)));
      endpoints[static_cast<std::size_t>(i)] =
          faulty_.back().get();
    }
  }

  double wire_latency_us = config_.wire_latency_us;
  if (wire_latency_us < 0.0) {
    wire_latency_us =
        config_.transport == TransportKind::kLoopback
            ? 0.5 * (config_.loopback.latency_min.to_us() +
                     config_.loopback.latency_max.to_us())
            : kUdpWireLatencyUs;
  }

  for (int i = 0; i < config_.nodes; ++i) {
    NodeConfig nc;
    nc.id = static_cast<mac::NodeId>(i);
    nc.total_nodes = config_.nodes;
    nc.seed = config_.seed;
    nc.sstsp = config_.sstsp;
    nc.phy = config_.phy;
    nc.max_drift_ppm = config_.max_drift_ppm;
    nc.initial_offset_us = config_.initial_offset_us;
    nc.wire_latency_us = wire_latency_us;
    nc.start_as_reference = config_.preestablished_reference && i == 0;
    nodes_.push_back(std::make_unique<NodeRuntime>(
        sim_, *endpoints[static_cast<std::size_t>(i)], nc));
  }

  std::vector<proto::Station*> stations;
  for (auto& node : nodes_) {
    if (reactor_ != nullptr) {
      // Wall-paced mode: let every node measure its own tx dispatch
      // lateness and reconstruct datagram arrivals (see
      // NodeRuntime::set_wall_clock).
      node->set_wall_clock(
          [reactor = reactor_.get()] { return reactor->wall_sim_now(); });
    }
    node->attach(observers_.attachment());
    stations.push_back(&node->station());
  }
  harness_.set_stations(std::move(stations), nodes_.size());
  expected_down_.assign(nodes_.size(), false);

  if (config_.prom_port >= 0) {
    if (reactor_ == nullptr) {
      if (error != nullptr) {
        *error = "--prom-port needs the udp transport (a loopback run has "
                 "no live reactor to serve scrapes)";
      }
      return false;
    }
    prom_ = std::make_unique<PromExporter>();
    if (!prom_->open(
            *reactor_, static_cast<std::uint16_t>(config_.prom_port),
            [this] { return prometheus_scrape_body(); }, error)) {
      return false;
    }
  }
  return init_telemetry_link(error);
}

std::string Swarm::prometheus_scrape_body() {
  // Fold the SIGPROF hit counters in first so a scrape always sees current
  // totals, then attach the cluster-state gauges the registry does not
  // carry (they are instantaneous derivations, not recorded metrics).
  if (auto* sampler = observers_.phase_sampler()) sampler->publish_live();
  std::vector<std::pair<std::string, double>> extra;
  int awake = 0;
  int synced = 0;
  for (const auto& node : nodes_) {
    const proto::Station& st = node->station();
    if (!st.awake()) continue;
    ++awake;
    if (st.protocol().is_synchronized()) ++synced;
  }
  extra.emplace_back("swarm_nodes_total", static_cast<double>(config_.nodes));
  extra.emplace_back("swarm_nodes_awake", static_cast<double>(awake));
  extra.emplace_back("swarm_nodes_synced", static_cast<double>(synced));
  if (const auto diff = instant_max_diff_us()) {
    extra.emplace_back("swarm_max_offset_us", *diff);
  }
  extra.emplace_back("swarm_sim_time_seconds", sim_.now().to_sec());
  if (reactor_ != nullptr) {
    extra.emplace_back("reactor_wait_seconds",
                       static_cast<double>(reactor_->wait_ns()) * 1e-9);
    extra.emplace_back("reactor_work_seconds",
                       static_cast<double>(reactor_->work_ns()) * 1e-9);
  }
  return prometheus_body(observers_.registry().snapshot(), extra);
}

bool Swarm::init_telemetry_link(std::string* error) {
  if (observers_.telemetry() == nullptr ||
      config_.transport != TransportKind::kUdp) {
    return true;
  }
  // Live export path: each node publishes its sample as one datagram to
  // the swarm's collector socket on the reactor — the same path an
  // external collector would use — and the collector folds whatever
  // arrives into the aggregate JSONL stream.
  std::string link_error;
  collector_ = TelemetryCollector::open(
      *reactor_, "127.0.0.1", 0,
      [this](const obs::TelemetrySample& sample) {
        observers_.write_telemetry(sample);
      },
      &link_error);
  if (collector_ == nullptr) {
    if (error != nullptr) *error = "telemetry collector: " + link_error;
    return false;
  }
  for (int i = 0; i < config_.nodes; ++i) {
    auto exporter = TelemetryExporter::open(
        "127.0.0.1", collector_->local_port(), &link_error);
    if (exporter == nullptr) {
      if (error != nullptr) {
        *error = "telemetry exporter " + std::to_string(i) + ": " + link_error;
      }
      return false;
    }
    exporters_.push_back(std::move(exporter));
  }
  return true;
}

void Swarm::arm() {
  if (armed_) return;
  armed_ = true;
  for (auto& node : nodes_) node->start();
  if (const obs::TelemetrySampler* sampler = observers_.telemetry()) {
    // Per-node samplers ride the hosting timeline: wall-paced through the
    // reactor in UDP mode (published as datagrams), virtual-time in
    // loopback mode (folded straight into the aggregate stream).
    const auto until = sim::SimTime::from_sec_double(config_.duration_s);
    obs::TelemetrySampler::Options node_opts = sampler->options();
    node_opts.source = "node";
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      obs::TelemetrySampler::EmitFn emit;
      if (!exporters_.empty()) {
        emit = [exporter = exporters_[i].get()](
                   const obs::TelemetrySample& sample) {
          exporter->publish(sample);
        };
      } else {
        emit = [this](const obs::TelemetrySample& sample) {
          observers_.write_telemetry(sample);
        };
      }
      nodes_[i]->start_telemetry(node_opts, until, std::move(emit));
    }
  }
  harness_.arm([this](mac::NodeId id, bool powered) {
    expected_down_[id] = !powered;
  });
}

void Swarm::print_watch_line(const obs::TelemetrySample& sample) {
  std::string ref = sample.reference >= 0
                        ? std::to_string(sample.reference)
                        : std::string("-");
  std::string err = "-";
  if (std::isfinite(sample.max_offset_us)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", sample.max_offset_us);
    err = buf;
  }
  std::fprintf(stderr,
               "\r[swarm %7.1fs] synced %d/%d ref %s max %s us rx %llu "
               "audit %llu   ",
               sample.t_s, sample.nodes_synced, sample.nodes_total,
               ref.c_str(), err.c_str(),
               static_cast<unsigned long long>(sample.beacons_rx),
               static_cast<unsigned long long>(sample.audit_records));
  std::fflush(stderr);
}

void Swarm::run() {
  // Anchor before arming so any frame transmitted during power-on already
  // measures its dispatch lateness against a live wall mapping.
  if (config_.transport == TransportKind::kUdp) reactor_->anchor(sim_.now());
  arm();
  const auto wall_start = std::chrono::steady_clock::now();
  const auto horizon = sim::SimTime::from_sec_double(config_.duration_s);
  if (config_.transport == TransportKind::kUdp) {
    // Wall-paced runs add the statistical SIGPROF sampler on top of the
    // dispatch-gated one: ITIMER_PROF fires on consumed CPU time, so
    // reactor sleeps are invisible to it (the wait/work gauges cover them).
    obs::PhaseSampler* sampler = observers_.phase_sampler();
    if (sampler != nullptr) {
      std::string live_error;
      if (!sampler->start_live(&live_error)) {
        std::fprintf(stderr, "warning: live phase sampler: %s\n",
                     live_error.c_str());
      }
    }
    reactor_->run_until(horizon);
    if (sampler != nullptr) sampler->stop_live();
  } else {
    sim_.run_until(horizon);
  }
  wall_seconds_ = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();
  if (config_.watch) std::fputc('\n', stderr);
}

run::RunResult Swarm::collect() {
  run::RunResult result;
  result.max_diff = harness_.max_diff();
  result.honest = harness_.honest_stats();
  for (const auto& node : nodes_) {
    const mac::ChannelStats& ch = node->channel().stats();
    // Per-node private channels: transmissions are the node's own beacons;
    // "deliveries" are wire-tap handoffs (1:1 with transmissions), not
    // over-the-air receptions — those live in RunResult::net.
    result.channel.transmissions += ch.transmissions;
    result.channel.collided_transmissions += ch.collided_transmissions;
    result.channel.deliveries += ch.deliveries;
    result.channel.per_drops += ch.per_drops;
    result.channel.half_duplex_suppressed += ch.half_duplex_suppressed;
    result.channel.bytes_on_air += ch.bytes_on_air;
  }

  NetRunStats net;
  for (const auto& node : nodes_) {
    const NetRunStats snapshot = node->net_stats();
    net.transport.datagrams_sent += snapshot.transport.datagrams_sent;
    net.transport.bytes_sent += snapshot.transport.bytes_sent;
    net.transport.send_errors += snapshot.transport.send_errors;
    net.transport.datagrams_received +=
        snapshot.transport.datagrams_received;
    net.transport.bytes_received += snapshot.transport.bytes_received;
    net.transport.recv_errors += snapshot.transport.recv_errors;
    net.frames_sent += snapshot.frames_sent;
    net.frames_received += snapshot.frames_received;
    net.self_frames_dropped += snapshot.self_frames_dropped;
    net.decode_errors += snapshot.decode_errors;
    net.stale_frames_dropped += snapshot.stale_frames_dropped;
  }
  result.net = net;

  if (reactor_ != nullptr) {
    obs::Registry& registry = observers_.registry();
    registry.gauge("reactor.wait_seconds")
        .set(static_cast<double>(reactor_->wait_ns()) * 1e-9);
    registry.gauge("reactor.work_seconds")
        .set(static_cast<double>(reactor_->work_ns()) * 1e-9);
  }
  result.events_processed = sim_.events_processed();
  result.wall_seconds = wall_seconds_;
  observers_.report(result);

  // A node that died or stayed deaf without a planned fault must not pass
  // as a clean (just quieter) run: flag it as a node-failure audit record
  // and report it through failed_nodes() so the tool exits nonzero.
  // "Deaf" = it decoded not a single frame while its peers were clearly
  // beaconing.  The whole-run peer-frame count only witnesses against a
  // node when those frames were actually deliverable to it: under a
  // declared partition the plan itself drops cross-group frames, so an
  // isolated side's reference legitimately hears nothing while the other
  // side beacons — the heuristic stands down for partition plans rather
  // than misread planned isolation as a wedged process.
  failed_nodes_.clear();
  const bool plan_partitions = !config_.faults.partitions.empty();
  std::uint64_t frames_on_wire = 0;
  for (const auto& node : nodes_) {
    frames_on_wire += node->net_stats().frames_sent;
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (expected_down_[i]) continue;
    const auto& node = *nodes_[i];
    const std::uint64_t peer_frames =
        frames_on_wire - node.net_stats().frames_sent;
    const bool dead = !node.station().awake();
    const bool deaf = !plan_partitions &&
                      node.net_stats().frames_received == 0 &&
                      peer_frames > 10;
    if (!dead && !deaf) continue;
    const mac::NodeId id = node.config().id;
    failed_nodes_.push_back(id);
    if (!result.audit) result.audit.emplace();
    obs::AuditRecord record;
    record.kind = obs::InvariantKind::kNodeFailure;
    record.severity = obs::Severity::kCritical;
    record.node = id;
    record.count = 1;
    record.first_t_s = record.last_t_s = sim_.now().to_sec();
    record.detail = dead ? "node is down with no planned fault"
                         : "node received no frame while peers sent " +
                               std::to_string(peer_frames);
    if (obs::FlightRecorder* flight = observers_.flight()) {
      // Unplanned death is exactly what the flight recorder exists for:
      // dump the recent history with the failure record attached (never
      // rate-limited, unlike audit-triggered dumps).
      flight->dump(sim_.now().to_sec(), "node-failure", &record);
    }
    result.audit->records.push_back(std::move(record));
  }

  run::derive_series_stats(result, config_.duration_s);
  return result;
}

}  // namespace sstsp::net
