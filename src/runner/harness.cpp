#include "runner/harness.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "attack/adversary.h"
#include "cluster/sstsp_cluster.h"
#include "core/discipline.h"
#include "core/sstsp.h"
#include "obs/json.h"
#include "protocols/tsf_family.h"

namespace sstsp::run {

namespace {

std::unique_ptr<obs::JsonlSink> open_sink(const std::string& path) {
  auto sink = std::make_unique<obs::JsonlSink>();
  std::string err;
  if (!sink->open(path, &err)) throw std::runtime_error(err);
  return sink;
}

obs::InvariantConfig invariant_config(const Scenario& s,
                                      double diverge_threshold_us) {
  obs::InvariantConfig cfg;
  cfg.sstsp_checks = s.protocol == ProtocolKind::kSstsp;
  cfg.bp_us = s.phy.beacon_period.to_us();
  cfg.m = s.sstsp.m;
  cfg.l = s.sstsp.l;
  cfg.t0_us = s.sstsp.t0_us;
  cfg.interval_slack_us = s.sstsp.interval_slack_us;
  cfg.k_min = s.sstsp.k_min;
  cfg.k_max = s.sstsp.k_max;
  if (diverge_threshold_us >= 0.0) {
    cfg.diverge_threshold_us = diverge_threshold_us;
  }
  if (s.cluster.enabled()) {
    // The global spread now includes the inter-cluster translation error,
    // so the single-domain Lemma-1 thresholds widen by the documented
    // cross-cluster bound; the dedicated cluster-spread check enforces the
    // bound itself.
    const double bound = s.cluster.cross_cluster_bound_us();
    cfg.converged_threshold_us += bound;
    cfg.diverge_threshold_us += bound;
    cfg.cluster_max_depth = s.cluster.max_depth();
    cfg.cluster_hop_bound_us = s.cluster.hop_bound_us;
  }
  return cfg;
}

}  // namespace

ObserverSet::ObserverSet(const Scenario& s, const sim::Simulator& timeline,
                         ObserverHost host)
    : host_(std::move(host)) {
  if (s.collect_metrics) {
    instruments_ = std::make_unique<obs::Instruments>(registry_);
    if (s.sstsp.discipline.effective_name() != "paper") {
      // Per-verdict counters only for non-default disciplines: the default
      // path's registry snapshot (and with it the seeded run JSON) must
      // stay byte-identical (DESIGN.md §14).
      instruments_->enable_discipline(s.sstsp.discipline.effective_name(),
                                      core::discipline_verdict_names());
    }
  }
  if (s.profile) profiler_ = std::make_unique<obs::Profiler>();
  if (s.phase_sampler) {
    obs::PhaseSampler::Options opt;
    if (s.phase_sampler_interval_s > 0.0) {
      opt.interval_s = s.phase_sampler_interval_s;
    }
    phase_sampler_ = std::make_unique<obs::PhaseSampler>(opt, registry_);
    phase_sampler_->attach_profiler(profiler_.get());
  }
  if (s.monitor) {
    monitor_ = std::make_unique<obs::InvariantMonitor>(
        invariant_config(s, host_.diverge_threshold_us));
    lifecycle_ = std::make_unique<trace::BeaconLifecycle>(registry_);
    if (s.cluster.enabled()) {
      std::vector<obs::NodeDomainInfo> topo(
          static_cast<std::size_t>(s.num_nodes));
      for (int i = 0; i < s.num_nodes; ++i) {
        const int c =
            cluster::cluster_of(s.cluster, static_cast<mac::NodeId>(i));
        topo[static_cast<std::size_t>(i)].cluster = c;
        topo[static_cast<std::size_t>(i)].phase_us =
            cluster::phase_of(s.cluster, c);
      }
      monitor_->set_cluster_topology(std::move(topo));
    }
  }
  if (!s.faults.empty()) {
    // The injector owns its RNG substream, keyed by the plan's seed: no
    // other draw sequence is touched, so attaching a plan never perturbs
    // the baseline run and the same (plan, seed) pair replays
    // bit-identically.
    injector_ = std::make_unique<fault::FaultInjector>(
        s.faults, timeline.substream("faults", s.faults.seed));
    recovery_ = std::make_unique<fault::RecoveryTracker>(
        s.phy.beacon_period.to_us() * 1e-6, /*sync_threshold_us=*/25.0);
    if (monitor_ != nullptr) {
      // Planned partitions and node outages are disturbances, not
      // violations: suspend the invariants a healthy network is *supposed*
      // to break while recovering (one reference per partition, Lemma 1
      // restart).
      const auto at = [](double t_s) {
        return sim::SimTime::from_sec_double(t_s);
      };
      for (const auto& p : s.faults.partitions) {
        monitor_->add_disturbance(
            at(p.start_s), p.end_s < 0.0 ? sim::SimTime::never() : at(p.end_s));
      }
      for (const auto& f : s.faults.node_faults) {
        monitor_->add_disturbance(
            at(f.at_s), f.restart_s < 0.0 ? at(f.at_s) : at(f.restart_s));
      }
      for (const auto& c : s.faults.clock_faults) {
        monitor_->add_disturbance(at(c.at_s), at(c.at_s));
      }
    }
  }
  if (!s.flight_recorder_out.empty()) {
    flight_sink_ = open_sink(s.flight_recorder_out);
    obs::FlightRecorder::Config cfg;
    cfg.event_capacity = s.flight_capacity;
    flight_ = std::make_unique<obs::FlightRecorder>(cfg, flight_sink_.get());
    if (monitor_ != nullptr) {
      // Dump the retained history the instant a *new* violation class
      // appears — the post-mortem is written before the failure cascades.
      monitor_->set_on_new_record(
          [this](sim::SimTime now, const obs::AuditRecord& rec) {
            flight_->on_audit_record(now.to_sec(), rec);
          });
    }
  }
  if (!s.telemetry_out.empty()) telemetry_sink_ = open_sink(s.telemetry_out);
  if (telemetry_sink_ != nullptr || host_.on_sample) {
    obs::TelemetrySampler::Options opt;
    opt.interval_s =
        s.telemetry_interval_s > 0.0 ? s.telemetry_interval_s : 1.0;
    opt.source = host_.telemetry_source;
    opt.process_stats = host_.process_stats;
    sampler_ = std::make_unique<obs::TelemetrySampler>(
        opt, [this](const obs::TelemetrySample& sample) {
          write_telemetry(sample);
          if (flight_ != nullptr) flight_->on_sample(sample);
          if (host_.on_sample) host_.on_sample(sample);
        });
  }
  if (s.trace_capacity > 0) {
    trace_ = std::make_unique<trace::EventTrace>(s.trace_capacity);
  }

  attachment_ = proto::Observers{trace_.get(),     instruments_.get(),
                                 profiler_.get(),  monitor_.get(),
                                 lifecycle_.get(), recovery_.get(),
                                 flight_.get()};
  attached_ = trace_ || instruments_ || profiler_ || monitor_ || lifecycle_ ||
              recovery_ || flight_;
}

void ObserverSet::hook(sim::Simulator& sim) const {
  sim.set_instruments(instruments_.get());
  sim.set_profiler(profiler_.get());
  sim.set_phase_sampler(phase_sampler_.get());
}

void ObserverSet::write_telemetry(const obs::TelemetrySample& sample) {
  if (telemetry_sink_ != nullptr) {
    telemetry_sink_->write_line(obs::telemetry_to_jsonl(sample));
  }
}

void ObserverSet::poll_dump_request(double now_s) {
  if (dump_flag_ == nullptr || *dump_flag_ == 0) return;
  *dump_flag_ = 0;
  if (flight_ != nullptr) flight_->dump(now_s, "dump-request", nullptr);
}

void ObserverSet::report(RunResult& result) {
  result.metrics = registry_.snapshot();
  if (profiler_ != nullptr) {
    result.profile =
        profiler_->snapshot(result.events_processed, result.wall_seconds);
  }
  if (monitor_ != nullptr) result.audit = monitor_->report();
  if (recovery_ != nullptr) {
    recovery_->finalize(injector_->stats());
    result.recovery = recovery_->report();
  }
}

void Harness::set_stations(std::vector<proto::Station*> stations,
                           std::size_t honest) {
  stations_ = std::move(stations);
  honest_ = honest;
}

void Harness::arm(std::function<void(mac::NodeId, bool)> on_power) {
  schedule_environment();
  schedule_faults(std::move(on_power));
  timeline_.at(sim::SimTime::from_sec_double(scenario_.sample_period_s),
               [this] { sampling_tick(); });
}

void Harness::schedule_environment() {
  const auto at = [](double t_s) { return sim::SimTime::from_sec_double(t_s); };
  // Churn: `fraction` of the honest, non-reference stations leave at each
  // multiple of period_s and return absence_s later.
  if (scenario_.churn) {
    const ChurnSpec churn = *scenario_.churn;
    std::uint64_t churn_index = 0;
    for (double t = churn.period_s; t < scenario_.duration_s;
         t += churn.period_s) {
      // Substreams are keyed by the churn-event index, not the (truncated)
      // event time: churn events less than 1 s apart would otherwise reuse
      // the same substream and pick identical leaver sets.
      const std::uint64_t event_index = churn_index++;
      timeline_.at(at(t), [this, churn, event_index, at] {
        sim::Rng pick = timeline_.substream("churn", event_index);
        const auto ref = current_reference();
        const auto leavers = static_cast<std::size_t>(
            std::lround(churn.fraction * static_cast<double>(honest_)));
        std::size_t left = 0;
        std::size_t guardrail = 0;
        while (left < leavers && guardrail++ < honest_ * 20) {
          const auto idx =
              static_cast<std::size_t>(pick.uniform_int(0, honest_ - 1));
          proto::Station* st = stations_[idx];
          if (!st->awake()) continue;
          if (ref && *ref == idx) continue;  // ref departures are separate
          st->power_off();
          timeline_.after(at(churn.absence_s), [st] { st->power_on(); });
          ++left;
        }
      });
    }
  }

  // Reference departures (SSTSP experiments).
  for (const double t : scenario_.reference_departures_s) {
    timeline_.at(at(t), [this, at] {
      const auto ref = current_reference();
      if (!ref) return;
      proto::Station* st = stations_[*ref];
      st->power_off();
      timeline_.after(at(scenario_.departure_absence_s),
                      [st] { st->power_on(); });
    });
  }

  // Oscillator stressors (clock/drift_model.h): periodic per-honest-node
  // frequency deltas via inject_clock_fault, so phase stays continuous.
  if (scenario_.clock_stress.enabled()) {
    stressors_.reserve(honest_);
    for (std::size_t i = 0; i < honest_; ++i) {
      stressors_.emplace_back(scenario_.clock_stress,
                              timeline_.substream("clock-stress", i));
    }
    timeline_.at(at(scenario_.clock_stress.period_s),
                 [this] { clock_stress_tick(); });
  }
}

void Harness::clock_stress_tick() {
  // Each tick schedules the next through this member, so no closure has to
  // own itself.
  const double dt_s = scenario_.clock_stress.period_s;
  const auto period = sim::SimTime::from_sec_double(dt_s);
  const double t_s = timeline_.now().to_sec();
  for (std::size_t i = 0; i < stressors_.size(); ++i) {
    const double delta = stressors_[i].step_delta_ppm(t_s, dt_s);
    if (delta != 0.0) stations_[i]->inject_clock_fault(0.0, delta);
  }
  if (timeline_.now() + period <=
      sim::SimTime::from_sec_double(scenario_.duration_s)) {
    timeline_.after(period, [this] { clock_stress_tick(); });
  }
}

void Harness::schedule_faults(
    std::function<void(mac::NodeId, bool)> on_power) {
  const fault::FaultPlan& plan = scenario_.faults;
  if (plan.empty()) return;
  fault::FaultHooks hooks;
  hooks.current_reference = [this] { return current_reference(); };
  hooks.set_power = [this, on_power = std::move(on_power)](mac::NodeId id,
                                                           bool powered) {
    if (id >= honest_) return;  // attackers stay up
    if (on_power) on_power(id, powered);
    if (powered) {
      stations_[id]->power_on();
    } else {
      stations_[id]->power_off();
    }
  };
  hooks.clock_fault = [this](mac::NodeId id, double step_us,
                             double drift_delta_ppm) {
    if (id >= stations_.size()) return;
    stations_[id]->inject_clock_fault(step_us, drift_delta_ppm);
  };
  if (fault::RecoveryTracker* recovery = observers_.recovery()) {
    hooks.on_node_fault = [this, recovery](const fault::NodeFault& f,
                                           mac::NodeId id) {
      const bool crash = f.kind == fault::NodeFaultKind::kCrash;
      // Losing the reference forces a re-election (the paper's l-BP
      // silence tolerance, §3.3); losing a follower only dents coverage.
      if (f.reference) {
        recovery->expect_reelection(
            crash ? "reference-crash" : "reference-pause", id,
            timeline_.now().to_sec());
      } else if (scenario_.cluster.enabled() &&
                 cluster::is_gateway(scenario_.cluster, id)) {
        // Losing a gateway severs a cluster's translation path: wait for
        // the attach fraction to dip (stale-tau detachment) and return.
        recovery->expect_reattach(crash ? "gateway-crash" : "gateway-pause",
                                  id, timeline_.now().to_sec());
      }
    };
    hooks.on_clock_fault = [this, recovery](const fault::ClockFault&,
                                            mac::NodeId id) {
      recovery->expect_resync("clock-fault", id, timeline_.now().to_sec());
    };
    // Partition heals that happen inside the run are re-sync deadlines.
    for (const auto& p : plan.partitions) {
      if (p.end_s >= 0.0 && p.end_s < scenario_.duration_s) {
        const double heal_s = p.end_s;
        timeline_.at(sim::SimTime::from_sec_double(heal_s),
                     [recovery, heal_s] {
                       recovery->expect_resync("partition-heal", mac::kNoNode,
                                               heal_s);
                     });
      }
    }
  }
  fault::schedule_fault_events(timeline_, plan, observers_.injector(),
                               std::move(hooks));
}

void Harness::sampling_tick() {
  // Each sample schedules the next through this member, so no closure has
  // to own itself.
  sample();
  const auto period = sim::SimTime::from_sec_double(scenario_.sample_period_s);
  if (timeline_.now() + period <=
      sim::SimTime::from_sec_double(scenario_.duration_s)) {
    timeline_.after(period, [this] { sampling_tick(); });
  }
}

void Harness::sample() {
  // The sharded kernel advanced every shard clock to this timeline
  // instant, so each protocol reads a consistent now() on its own shard.
  const sim::SimTime now = timeline_.now();
  values_.clear();
  for (std::size_t i = 0; i < honest_; ++i) {
    const proto::Station& st = *stations_[i];
    if (!st.awake() || !st.protocol().is_synchronized()) continue;
    values_.push_back(st.protocol().network_time_us(now));
  }
  double lo = 0.0;
  double hi = 0.0;
  double sum = 0.0;
  if (!values_.empty()) {
    lo = hi = values_.front();
    for (const double v : values_) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      sum += v;
    }
    const double diff = hi - lo;
    max_diff_.push(now.to_sec(), diff);
    if (auto* monitor = observers_.monitor()) {
      monitor->on_max_diff_sample(now, diff);
    }
    if (auto* recovery = observers_.recovery()) {
      recovery->on_max_diff_sample(now.to_sec(), diff);
    }
    if (auto* instruments = observers_.instruments()) {
      instruments->on_max_diff_sample(diff);
      const double mean = sum / static_cast<double>(values_.size());
      for (const double v : values_) {
        instruments->on_node_error_sample(std::fabs(v - mean));
      }
    }
  }
  if (extra_sampler_) extra_sampler_(now);
  // Telemetry rides the same tick — no extra events, so a seeded run's
  // event/RNG sequence is identical with telemetry on or off.
  if (observers_.telemetry() != nullptr &&
      observers_.telemetry()->due(now.to_sec())) {
    emit_telemetry(now, lo, hi, sum);
  }
  observers_.poll_dump_request(now.to_sec());
}

void Harness::emit_telemetry(sim::SimTime now, double lo, double hi,
                             double sum) {
  obs::TelemetrySample s;
  s.nodes_total = scenario_.num_nodes;
  for (std::size_t i = 0; i < honest_; ++i) {
    if (stations_[i]->awake()) ++s.nodes_awake;
  }
  const std::size_t count = values_.size();
  s.nodes_synced = static_cast<int>(count);
  if (const auto ref = current_reference()) {
    s.reference = static_cast<std::int64_t>(*ref);
  }
  const double mean = count > 0 ? sum / static_cast<double>(count) : 0.0;
  if (count >= 2) {
    s.max_offset_us = hi - lo;
    double abs_dev = 0.0;
    for (const double v : values_) abs_dev += std::fabs(v - mean);
    s.mean_offset_us = abs_dev / static_cast<double>(count);
  }
  s.queue_depth = timeline_.events_pending();
  if (auto* monitor = observers_.monitor()) {
    s.audit_records = monitor->total_violations();
  }
  s.recovery_pending =
      observers_.recovery() != nullptr && observers_.recovery()->pending();

  // Per-node rows list every honest node, with its synced flag.
  const bool per_node =
      scenario_.telemetry_per_node > 0 ||
      (scenario_.telemetry_per_node < 0 && scenario_.num_nodes <= 64);
  if (per_node && count > 0) {
    for (std::size_t i = 0; i < honest_; ++i) {
      const proto::Station& st = *stations_[i];
      obs::TelemetrySample::NodeError e;
      e.node = static_cast<std::int64_t>(st.id());
      e.synced = st.awake() && st.protocol().is_synchronized();
      if (e.synced) e.err_us = st.protocol().network_time_us(now) - mean;
      s.node_errors.push_back(e);
    }
  }
  observers_.telemetry()->emit(
      now.to_sec(), std::move(s),
      telemetry_totals(honest_stats(), timeline_.events_processed()));
}

std::optional<mac::NodeId> Harness::current_reference() const {
  for (std::size_t i = 0; i < honest_; ++i) {
    const proto::Station& st = *stations_[i];
    if (!st.awake() || !st.protocol().is_reference()) continue;
    // Cluster runs elect one reference per cluster; "the" reference — the
    // one fault plans and departures target — is the root cluster's.
    if (scenario_.cluster.enabled() &&
        cluster::cluster_of(scenario_.cluster, st.id()) != 0) {
      continue;
    }
    return st.id();
  }
  return std::nullopt;
}

std::optional<double> Harness::instant_max_diff_us() const {
  const sim::SimTime now = timeline_.now();
  std::optional<double> lo;
  double hi = 0.0;
  for (std::size_t i = 0; i < honest_; ++i) {
    const proto::Station& st = *stations_[i];
    if (!st.awake() || !st.protocol().is_synchronized()) continue;
    const double v = st.protocol().network_time_us(now);
    if (!lo) {
      lo = hi = v;
    } else {
      lo = std::min(*lo, v);
      hi = std::max(hi, v);
    }
  }
  if (!lo) return std::nullopt;
  return hi - *lo;
}

proto::ProtocolStats Harness::honest_stats() const {
  proto::ProtocolStats agg;
  for (std::size_t i = 0; i < honest_; ++i) {
    agg += stations_[i]->protocol().stats();
  }
  return agg;
}

const proto::ProtocolStats* Harness::attacker_stats() const {
  if (honest_ >= stations_.size()) return nullptr;
  return &stations_[honest_]->protocol().stats();
}

obs::TelemetryCumulative telemetry_totals(const proto::ProtocolStats& stats,
                                          std::uint64_t events) {
  obs::TelemetryCumulative cum;
  cum.beacons_tx = stats.beacons_sent;
  cum.beacons_rx = stats.beacons_received;
  cum.adjustments = stats.adjustments + stats.adoptions;
  cum.coarse_steps = stats.coarse_steps;
  cum.rejects = stats.rejected_interval + stats.rejected_key +
                stats.rejected_mac + stats.rejected_guard;
  cum.elections = stats.elections_won;
  cum.events = events;
  return cum;
}

std::vector<NodeDraw> draw_nodes(const Scenario& s,
                                 const sim::Simulator& timeline) {
  const bool has_attacker = !s.attack.empty();
  const int total = s.num_nodes + (has_attacker ? 1 : 0);
  sim::Rng placement = timeline.substream("placement", 0);
  sim::Rng clocks = timeline.substream("clocks", 0);
  std::vector<NodeDraw> draws;
  draws.reserve(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    const auto id = static_cast<mac::NodeId>(i);
    mac::Position pos;
    if (!s.cluster.enabled()) {
      // Uniform position in the deployment disc.
      const double r =
          s.phy.placement_radius_m * std::sqrt(placement.uniform());
      const double theta = placement.uniform(0.0, 2.0 * M_PI);
      pos = {r * std::cos(theta), r * std::sin(theta)};
    } else if (cluster::is_gateway(s.cluster, id)) {
      // Deterministic (no placement draw): gateways must sit where both
      // clusters are in range, not wherever the disc sampler lands.
      pos = cluster::gateway_position(s.cluster, id);
    } else {
      const double r = s.cluster.radius_m * std::sqrt(placement.uniform());
      const double theta = placement.uniform(0.0, 2.0 * M_PI);
      const mac::Position center = cluster::cluster_center(
          s.cluster, cluster::cluster_of(s.cluster, id));
      pos = {center.x_m + r * std::cos(theta),
             center.y_m + r * std::sin(theta)};
    }
    auto drift = clk::DriftModel::uniform(clocks, s.max_drift_ppm);
    const double offset =
        clocks.uniform(-s.initial_offset_us, s.initial_offset_us);
    if (has_attacker && i == s.num_nodes) {
      // Some adversaries bring deliberately tuned oscillator hardware
      // (e.g. the TSF attacker's fast clock that wins every contention,
      // §5); the registry publishes the factor, NaN = honest draw.
      const double factor = attack::adversary_drift_factor(s.attack);
      if (!std::isnan(factor)) {
        drift = clk::DriftModel::from_ppm(factor * s.max_drift_ppm);
      }
    }
    draws.push_back(NodeDraw{pos, drift, offset});
  }
  return draws;
}

std::unique_ptr<proto::SyncProtocol> make_protocol(
    const Scenario& s, proto::Station& st, core::KeyDirectory& directory) {
  const mac::NodeId id = st.id();
  if (!s.attack.empty() && id == static_cast<mac::NodeId>(s.num_nodes)) {
    std::optional<obs::json::Value> params;
    if (!s.attack_params_json.empty()) {
      params = obs::json::parse(s.attack_params_json);
      if (!params) {
        throw std::runtime_error("invalid attack params JSON: " +
                                 s.attack_params_json);
      }
    }
    attack::AdversaryContext ctx{st,           directory,
                                 s.sstsp,      s.tsf_attack,
                                 s.sstsp_attack, params ? &*params : nullptr};
    auto adversary = attack::make_adversary(s.attack, ctx);
    if (adversary == nullptr) {
      // CLI / config validation rejects unknown names before we get here;
      // a programmatic Scenario with a typo'd name should fail loudly, not
      // run attacker-less.
      throw std::runtime_error("unknown adversary: " + s.attack);
    }
    return adversary;
  }
  switch (s.protocol) {
    case ProtocolKind::kTsf:
      return std::make_unique<proto::Tsf>(st);
    case ProtocolKind::kAtsp:
      return std::make_unique<proto::Atsp>(st, s.atsp);
    case ProtocolKind::kTatsp:
      return std::make_unique<proto::Tatsp>(st, s.tatsp);
    case ProtocolKind::kSatsf:
      return std::make_unique<proto::Satsf>(st, s.satsf);
    case ProtocolKind::kRentelKunz:
      return std::make_unique<proto::RentelKunz>(st, s.rentel_kunz);
    case ProtocolKind::kSstsp:
      break;
  }
  if (s.cluster.enabled()) {
    const auto& spec = s.cluster;
    cluster::ClusterSstsp::Options copts;
    copts.spec = spec;
    copts.cluster = cluster::cluster_of(spec, id);
    copts.gateway = cluster::is_gateway(spec, id);
    // Preestablished references: the first non-gateway member of every
    // cluster (gateways must stay followers — their chain is spent on the
    // bridge, and a reference cannot also be passive uplink prey to guard
    // resets).
    copts.start_as_reference =
        s.preestablished_reference &&
        cluster::member_index(spec, id) ==
            (copts.cluster == 0 ? 0 : spec.gateways);
    return std::make_unique<cluster::ClusterSstsp>(st, s.sstsp, directory,
                                                   copts);
  }
  core::Sstsp::Options opts;
  opts.calibrated_boot = true;
  opts.start_as_reference = s.preestablished_reference && id == 0;
  return std::make_unique<core::Sstsp>(st, s.sstsp, directory, opts);
}

}  // namespace sstsp::run
