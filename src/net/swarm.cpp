#include "net/swarm.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>

#include "core/discipline.h"

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

Swarm::Swarm(const SwarmConfig& config)
    : config_(config), sim_(config.seed) {
  if (config_.collect_metrics) {
    instruments_ = std::make_unique<obs::Instruments>(registry_);
    sim_.set_instruments(instruments_.get());
    if (config_.sstsp.discipline.effective_name() != "paper") {
      instruments_->enable_discipline(
          config_.sstsp.discipline.effective_name(),
          core::discipline_verdict_names());
    }
  }
  if (config_.profile) {
    profiler_ = std::make_unique<obs::Profiler>();
    sim_.set_profiler(profiler_.get());
  }
  if (config_.phase_sampler) {
    obs::PhaseSampler::Options opt;
    if (config_.phase_sampler_interval_s > 0.0) {
      opt.interval_s = config_.phase_sampler_interval_s;
    }
    phase_sampler_ = std::make_unique<obs::PhaseSampler>(opt, registry_);
    phase_sampler_->attach_profiler(profiler_.get());
    sim_.set_phase_sampler(phase_sampler_.get());
  }
  if (config_.monitor) {
    obs::InvariantConfig cfg;
    cfg.sstsp_checks = true;
    cfg.bp_us = config_.phy.beacon_period.to_us();
    cfg.m = config_.sstsp.m;
    cfg.l = config_.sstsp.l;
    cfg.t0_us = config_.sstsp.t0_us;
    cfg.interval_slack_us = config_.sstsp.interval_slack_us;
    cfg.k_min = config_.sstsp.k_min;
    cfg.k_max = config_.sstsp.k_max;
    double diverge_us = config_.monitor_diverge_us;
    if (diverge_us < 0.0 && config_.transport == TransportKind::kUdp) {
      diverge_us = kUdpDivergeThresholdUs;
    }
    if (diverge_us >= 0.0) cfg.diverge_threshold_us = diverge_us;
    monitor_ = std::make_unique<obs::InvariantMonitor>(cfg);
    lifecycle_ = std::make_unique<trace::BeaconLifecycle>(registry_);
  }
  if (!config_.faults.empty()) {
    // Same substream discipline as run::Network: the injector draws only
    // from its own stream, so attaching a plan never perturbs the nodes'
    // seeded clock/latency draws.
    injector_ = std::make_unique<fault::FaultInjector>(
        config_.faults, sim_.substream("faults", config_.faults.seed));
    recovery_ = std::make_unique<fault::RecoveryTracker>(
        config_.phy.beacon_period.to_us() * 1e-6,
        /*sync_threshold_us=*/25.0);
    if (monitor_ != nullptr) {
      for (const auto& p : config_.faults.partitions) {
        monitor_->add_disturbance(
            sim::SimTime::from_sec_double(p.start_s),
            p.end_s < 0.0 ? sim::SimTime::never()
                          : sim::SimTime::from_sec_double(p.end_s));
      }
      for (const auto& f : config_.faults.node_faults) {
        monitor_->add_disturbance(
            sim::SimTime::from_sec_double(f.at_s),
            f.restart_s < 0.0 ? sim::SimTime::from_sec_double(f.at_s)
                              : sim::SimTime::from_sec_double(f.restart_s));
      }
      for (const auto& c : config_.faults.clock_faults) {
        monitor_->add_disturbance(sim::SimTime::from_sec_double(c.at_s),
                                  sim::SimTime::from_sec_double(c.at_s));
      }
    }
  }
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

  auto swarm = std::unique_ptr<Swarm>(new Swarm(config));
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

  if (injector_ != nullptr) {
    // Decorate every endpoint: the node installs its rx handler on the
    // decorator, which consults the injector per arriving datagram —
    // identical verdict semantics to the simulated channel's hook.
    for (int i = 0; i < config_.nodes; ++i) {
      faulty_.push_back(std::make_unique<fault::FaultyTransport>(
          *endpoints[static_cast<std::size_t>(i)], sim_, *injector_,
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

  if (config_.trace_capacity > 0) {
    trace_ = std::make_unique<trace::EventTrace>(config_.trace_capacity);
  }
  for (auto& node : nodes_) {
    if (reactor_ != nullptr) {
      // Wall-paced mode: let every node measure its own tx dispatch
      // lateness and reconstruct datagram arrivals (see
      // NodeRuntime::set_wall_clock).
      node->set_wall_clock(
          [reactor = reactor_.get()] { return reactor->wall_sim_now(); });
    }
    node->set_trace(trace_.get());
    node->set_instruments(instruments_.get());
    node->set_profiler(profiler_.get());
    node->set_monitor(monitor_.get());
    node->set_lifecycle(lifecycle_.get());
    node->set_recovery(recovery_.get());
  }
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
  return init_telemetry(error);
}

std::string Swarm::prometheus_scrape_body() {
  // Fold the SIGPROF hit counters in first so a scrape always sees current
  // totals, then attach the cluster-state gauges the registry does not
  // carry (they are instantaneous derivations, not recorded metrics).
  if (phase_sampler_ != nullptr) phase_sampler_->publish_live();
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
  return prometheus_body(registry_.snapshot(), extra);
}

bool Swarm::init_telemetry(std::string* error) {
  if (!config_.flight_recorder_out.empty()) {
    flight_sink_ = std::make_unique<obs::JsonlSink>();
    std::string sink_error;
    if (!flight_sink_->open(config_.flight_recorder_out, &sink_error)) {
      if (error != nullptr) *error = std::move(sink_error);
      return false;
    }
    obs::FlightRecorder::Config fc;
    fc.event_capacity = config_.flight_capacity;
    flight_ =
        std::make_unique<obs::FlightRecorder>(fc, flight_sink_.get());
    for (auto& node : nodes_) node->set_flight(flight_.get());
    if (monitor_ != nullptr) {
      monitor_->set_on_new_record(
          [this](sim::SimTime now, const obs::AuditRecord& rec) {
            flight_->on_audit_record(now.to_sec(), rec);
          });
    }
  }

  const bool want_telemetry = !config_.telemetry_out.empty() || config_.watch;
  if (!want_telemetry) return true;
  if (!config_.telemetry_out.empty()) {
    telemetry_sink_ = std::make_unique<obs::JsonlSink>();
    std::string sink_error;
    if (!telemetry_sink_->open(config_.telemetry_out, &sink_error)) {
      if (error != nullptr) *error = std::move(sink_error);
      return false;
    }
  }

  // Process stats (RSS, wall clock) only on the wall-paced transport; a
  // virtual-time loopback run stays bit-reproducible.
  const bool wall_paced = config_.transport == TransportKind::kUdp;
  obs::TelemetrySampler::Options opts;
  opts.interval_s =
      config_.telemetry_interval_s > 0.0 ? config_.telemetry_interval_s : 1.0;
  opts.source = "swarm";
  opts.process_stats = wall_paced;
  sampler_ = std::make_unique<obs::TelemetrySampler>(
      opts, [this](const obs::TelemetrySample& sample) {
        write_sample(sample);
        if (flight_ != nullptr) flight_->on_sample(sample);
        if (config_.watch) print_watch_line(sample);
      });

  if (wall_paced) {
    // Live export path: each node publishes its sample as one datagram to
    // the swarm's collector socket on the reactor — the same path an
    // external collector would use — and the collector folds whatever
    // arrives into the aggregate JSONL stream.
    std::string link_error;
    collector_ = TelemetryCollector::open(
        *reactor_, "127.0.0.1", 0,
        [this](const obs::TelemetrySample& sample) { write_sample(sample); },
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
          *error = "telemetry exporter " + std::to_string(i) + ": " +
                   link_error;
        }
        return false;
      }
      exporters_.push_back(std::move(exporter));
    }
  }
  return true;
}

void Swarm::arm() {
  if (armed_) return;
  armed_ = true;
  for (auto& node : nodes_) node->start();
  if (sampler_ != nullptr) {
    // Per-node samplers ride the hosting timeline: wall-paced through the
    // reactor in UDP mode (published as datagrams), virtual-time in
    // loopback mode (folded straight into the aggregate stream).
    const auto until = sim::SimTime::from_sec_double(config_.duration_s);
    const bool wall_paced = config_.transport == TransportKind::kUdp;
    obs::TelemetrySampler::Options node_opts = sampler_->options();
    node_opts.source = "node";
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      obs::TelemetrySampler::EmitFn emit;
      if (wall_paced) {
        emit = [exporter = exporters_[i].get()](
                   const obs::TelemetrySample& sample) {
          exporter->publish(sample);
        };
      } else {
        emit = [this](const obs::TelemetrySample& sample) {
          write_sample(sample);
        };
      }
      nodes_[i]->start_telemetry(node_opts, until, std::move(emit));
    }
  }
  schedule_faults();
  schedule_sampling();
}

void Swarm::schedule_faults() {
  if (injector_ == nullptr) return;
  fault::FaultHooks hooks;
  hooks.current_reference = [this] { return current_reference(); };
  hooks.set_power = [this](mac::NodeId id, bool powered) {
    const auto idx = static_cast<std::size_t>(id);
    if (idx >= nodes_.size()) return;
    expected_down_[idx] = !powered;
    if (powered) {
      nodes_[idx]->start();
    } else {
      nodes_[idx]->stop();
    }
  };
  hooks.clock_fault = [this](mac::NodeId id, double step_us,
                             double drift_delta_ppm) {
    const auto idx = static_cast<std::size_t>(id);
    if (idx >= nodes_.size()) return;
    nodes_[idx]->station().inject_clock_fault(step_us, drift_delta_ppm);
  };
  if (recovery_ != nullptr) {
    hooks.on_node_fault = [this](const fault::NodeFault& f, mac::NodeId id) {
      if (f.reference) {
        recovery_->expect_reelection(f.kind == fault::NodeFaultKind::kCrash
                                         ? "reference-crash"
                                         : "reference-pause",
                                     id, sim_.now().to_sec());
      }
    };
    hooks.on_clock_fault = [this](const fault::ClockFault&, mac::NodeId id) {
      recovery_->expect_resync("clock-fault", id, sim_.now().to_sec());
    };
    for (const auto& p : config_.faults.partitions) {
      if (p.end_s >= 0.0 && p.end_s < config_.duration_s) {
        const double heal_s = p.end_s;
        sim_.at(sim::SimTime::from_sec_double(heal_s), [this, heal_s] {
          recovery_->expect_resync("partition-heal", mac::kNoNode, heal_s);
        });
      }
    }
  }
  fault::schedule_fault_events(sim_, config_.faults, injector_.get(),
                               std::move(hooks));
}

void Swarm::schedule_sampling() {
  sim_.at(sim::SimTime::from_sec_double(config_.sample_period_s),
          [this] { sampling_tick(); });
}

void Swarm::sampling_tick() {
  // Each sample schedules the next through this member, so no closure has
  // to own itself.
  sample_clock_spread();
  const auto period = sim::SimTime::from_sec_double(config_.sample_period_s);
  if (sim_.now() + period <=
      sim::SimTime::from_sec_double(config_.duration_s)) {
    sim_.after(period, [this] { sampling_tick(); });
  }
}

void Swarm::sample_clock_spread() {
  sample_values_.clear();
  const sim::SimTime now = sim_.now();
  for (const auto& node : nodes_) {
    const proto::Station& st = node->station();
    if (!st.awake() || !st.protocol().is_synchronized()) continue;
    sample_values_.push_back(st.protocol().network_time_us(now));
  }
  const bool have = !sample_values_.empty();
  double lo = 0.0;
  double hi = 0.0;
  double sum = 0.0;
  if (have) {
    lo = hi = sample_values_.front();
    for (const double v : sample_values_) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      sum += v;
    }
    const double diff = hi - lo;
    max_diff_.push(now.to_sec(), diff);
    if (monitor_ != nullptr) monitor_->on_max_diff_sample(now, diff);
    if (recovery_ != nullptr) {
      recovery_->on_max_diff_sample(now.to_sec(), diff);
    }
    if (instruments_ != nullptr) {
      instruments_->on_max_diff_sample(diff);
      const double mean = sum / static_cast<double>(sample_values_.size());
      for (const double v : sample_values_) {
        instruments_->on_node_error_sample(std::fabs(v - mean));
      }
    }
  }
  if (sampler_ != nullptr && sampler_->due(now.to_sec())) {
    emit_telemetry(now, have, lo, hi, sum);
  }
  if (dump_flag_ != nullptr && *dump_flag_ != 0 && flight_ != nullptr) {
    *dump_flag_ = 0;
    flight_->dump(now.to_sec(), "dump-request", nullptr);
  }
}

void Swarm::emit_telemetry(sim::SimTime now, bool have, double lo, double hi,
                           double sum) {
  obs::TelemetrySample s;
  s.nodes_total = config_.nodes;
  for (const auto& node : nodes_) {
    if (node->station().awake()) ++s.nodes_awake;
  }
  s.nodes_synced = static_cast<int>(sample_values_.size());
  if (const auto ref = current_reference()) {
    s.reference = static_cast<std::int64_t>(*ref);
  }
  const double mean =
      have ? sum / static_cast<double>(sample_values_.size()) : 0.0;
  if (sample_values_.size() >= 2) {
    s.max_offset_us = hi - lo;
    double dev = 0.0;
    for (const double v : sample_values_) dev += std::fabs(v - mean);
    s.mean_offset_us = dev / static_cast<double>(sample_values_.size());
  }
  s.queue_depth = sim_.events_pending();
  if (monitor_ != nullptr) s.audit_records = monitor_->total_violations();
  s.recovery_pending = recovery_ != nullptr && recovery_->pending();

  const bool per_node =
      config_.telemetry_per_node > 0 ||
      (config_.telemetry_per_node < 0 && config_.nodes <= 64);
  obs::TelemetryCumulative cum;
  for (const auto& node : nodes_) {
    const proto::Station& st = node->station();
    const proto::ProtocolStats& ps = st.protocol().stats();
    cum.beacons_tx += ps.beacons_sent;
    cum.beacons_rx += ps.beacons_received;
    cum.adjustments += ps.adjustments + ps.adoptions;
    cum.coarse_steps += ps.coarse_steps;
    cum.rejects += ps.rejected_interval + ps.rejected_key + ps.rejected_mac +
                   ps.rejected_guard;
    cum.elections += ps.elections_won;
    if (per_node && have && st.awake() && st.protocol().is_synchronized()) {
      obs::TelemetrySample::NodeError ne;
      ne.node = static_cast<std::int64_t>(node->config().id);
      ne.err_us = st.protocol().network_time_us(now) - mean;
      ne.synced = true;
      s.node_errors.push_back(ne);
    }
  }
  cum.events = sim_.events_processed();
  sampler_->emit(now.to_sec(), std::move(s), cum);
}

void Swarm::write_sample(const obs::TelemetrySample& sample) {
  if (telemetry_sink_ != nullptr) {
    telemetry_sink_->write_line(obs::telemetry_to_jsonl(sample));
  }
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
    if (phase_sampler_ != nullptr) {
      std::string live_error;
      if (!phase_sampler_->start_live(&live_error)) {
        std::fprintf(stderr, "warning: live phase sampler: %s\n",
                     live_error.c_str());
      }
    }
    reactor_->run_until(horizon);
    if (phase_sampler_ != nullptr) phase_sampler_->stop_live();
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
  result.max_diff = max_diff_;
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

    const proto::ProtocolStats& s = node->station().protocol().stats();
    result.honest.beacons_sent += s.beacons_sent;
    result.honest.beacons_received += s.beacons_received;
    result.honest.adoptions += s.adoptions;
    result.honest.adjustments += s.adjustments;
    result.honest.rejected_interval += s.rejected_interval;
    result.honest.rejected_key += s.rejected_key;
    result.honest.rejected_mac += s.rejected_mac;
    result.honest.rejected_guard += s.rejected_guard;
    result.honest.elections_won += s.elections_won;
    result.honest.demotions += s.demotions;
    result.honest.coarse_steps += s.coarse_steps;
    result.honest.solver_rejections += s.solver_rejections;
    for (std::size_t v = 0; v < result.honest.discipline_verdicts.size();
         ++v) {
      result.honest.discipline_verdicts[v] += s.discipline_verdicts[v];
    }
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
    registry_.gauge("reactor.wait_seconds")
        .set(static_cast<double>(reactor_->wait_ns()) * 1e-9);
    registry_.gauge("reactor.work_seconds")
        .set(static_cast<double>(reactor_->work_ns()) * 1e-9);
  }
  result.metrics = registry_.snapshot();
  result.events_processed = sim_.events_processed();
  result.wall_seconds = wall_seconds_;
  if (profiler_ != nullptr) {
    result.profile =
        profiler_->snapshot(result.events_processed, wall_seconds_);
  }
  if (monitor_ != nullptr) result.audit = monitor_->report();
  if (recovery_ != nullptr) {
    recovery_->finalize(injector_->stats());
    result.recovery = recovery_->report();
  }

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
    if (flight_ != nullptr) {
      // Unplanned death is exactly what the flight recorder exists for:
      // dump the recent history with the failure record attached (never
      // rate-limited, unlike audit-triggered dumps).
      flight_->dump(sim_.now().to_sec(), "node-failure", &record);
    }
    result.audit->records.push_back(std::move(record));
  }

  run::derive_series_stats(result, config_.duration_s);
  return result;
}

run::Scenario Swarm::reporting_scenario() const {
  run::Scenario s;
  s.protocol = run::ProtocolKind::kSstsp;
  s.num_nodes = config_.nodes;
  s.duration_s = config_.duration_s;
  s.seed = config_.seed;
  s.phy = config_.phy;
  s.sstsp = config_.sstsp;
  s.initial_offset_us = config_.initial_offset_us;
  s.max_drift_ppm = config_.max_drift_ppm;
  s.preestablished_reference = config_.preestablished_reference;
  s.faults = config_.faults;
  s.sample_period_s = config_.sample_period_s;
  s.trace_capacity = config_.trace_capacity;
  s.collect_metrics = config_.collect_metrics;
  s.profile = config_.profile;
  s.monitor = config_.monitor;
  s.telemetry_out = config_.telemetry_out;
  s.telemetry_interval_s = config_.telemetry_interval_s;
  s.telemetry_per_node = config_.telemetry_per_node;
  s.flight_recorder_out = config_.flight_recorder_out;
  s.flight_capacity = config_.flight_capacity;
  s.phase_sampler = config_.phase_sampler;
  s.phase_sampler_interval_s = config_.phase_sampler_interval_s;
  return s;
}

std::optional<mac::NodeId> Swarm::current_reference() const {
  for (const auto& node : nodes_) {
    if (node->station().awake() &&
        node->station().protocol().is_reference()) {
      return node->config().id;
    }
  }
  return std::nullopt;
}

std::optional<double> Swarm::instant_max_diff_us() const {
  double lo = 0.0;
  double hi = 0.0;
  bool any = false;
  const sim::SimTime now = sim_.now();
  for (const auto& node : nodes_) {
    const proto::Station& st = node->station();
    if (!st.awake() || !st.protocol().is_synchronized()) continue;
    const double v = st.protocol().network_time_us(now);
    if (!any) {
      lo = hi = v;
      any = true;
    } else {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  if (!any) return std::nullopt;
  return hi - lo;
}

}  // namespace sstsp::net
