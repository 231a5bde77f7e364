#include "runner/network.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "attack/adversary.h"
#include "cluster/sstsp_cluster.h"
#include "core/sstsp.h"
#include "crypto/hash_chain.h"
#include "obs/json.h"
#include "protocols/tsf_family.h"

namespace sstsp::run {

Network::Network(const Scenario& scenario)
    : scenario_(scenario),
      sim_(scenario.seed),
      channel_(sim_, scenario.phy),
      attacker_index_(0) {
  if (scenario_.cluster.enabled()) {
    const auto& c = scenario_.cluster;
    if (scenario_.protocol != ProtocolKind::kSstsp) {
      throw std::runtime_error("cluster scenarios require the SSTSP protocol");
    }
    if (!scenario_.attack.empty()) {
      throw std::runtime_error(
          "cluster scenarios do not support attacker stations");
    }
    if (scenario_.num_nodes != c.total_nodes()) {
      throw std::runtime_error(
          "cluster scenarios require num_nodes == clusters * "
          "nodes_per_cluster");
    }
    if (c.gateways < 1 || c.gateways >= c.nodes_per_cluster) {
      throw std::runtime_error(
          "cluster scenarios need 1 <= gateways < nodes_per_cluster");
    }
    // The geometry contract (cluster/cluster_config.h): members hear their
    // reference, gateways hear both clusters, and bridge announcements of
    // cluster c reach the gateways of c+1.
    const double range = scenario_.phy.radio_range_m;
    if (range > 0.0 &&
        (2.0 * c.radius_m > range || c.spacing_m / 2.0 + c.radius_m > range ||
         c.spacing_m > range)) {
      throw std::runtime_error(
          "cluster geometry violates the radio-range contract "
          "(need 2*radius, spacing/2 + radius and spacing <= range)");
    }
  }
  if (scenario_.collect_metrics) {
    instruments_ = std::make_unique<obs::Instruments>(registry_);
    sim_.set_instruments(instruments_.get());
    channel_.set_instruments(instruments_.get());
    if (scenario_.sstsp.discipline.effective_name() != "paper") {
      // Per-verdict counters only for non-default disciplines: the default
      // path's registry snapshot (and with it the seeded run JSON) must
      // stay byte-identical (DESIGN.md §14).
      instruments_->enable_discipline(
          scenario_.sstsp.discipline.effective_name(),
          core::discipline_verdict_names());
    }
  }
  if (scenario_.profile) {
    profiler_ = std::make_unique<obs::Profiler>();
    sim_.set_profiler(profiler_.get());
    channel_.set_profiler(profiler_.get());
  }
  if (scenario_.phase_sampler) {
    obs::PhaseSampler::Options opt;
    if (scenario_.phase_sampler_interval_s > 0.0) {
      opt.interval_s = scenario_.phase_sampler_interval_s;
    }
    phase_sampler_ = std::make_unique<obs::PhaseSampler>(opt, registry_);
    phase_sampler_->attach_profiler(profiler_.get());
    sim_.set_phase_sampler(phase_sampler_.get());
  }
  if (scenario_.monitor) {
    obs::InvariantConfig cfg;
    cfg.sstsp_checks = scenario_.protocol == ProtocolKind::kSstsp;
    cfg.bp_us = scenario_.phy.beacon_period.to_us();
    cfg.m = scenario_.sstsp.m;
    cfg.l = scenario_.sstsp.l;
    cfg.t0_us = scenario_.sstsp.t0_us;
    cfg.interval_slack_us = scenario_.sstsp.interval_slack_us;
    cfg.k_min = scenario_.sstsp.k_min;
    cfg.k_max = scenario_.sstsp.k_max;
    if (scenario_.cluster.enabled()) {
      // The global spread now includes the inter-cluster translation error,
      // so the single-domain Lemma-1 thresholds widen by the documented
      // cross-cluster bound; the dedicated cluster-spread check enforces
      // the bound itself.
      const double bound = scenario_.cluster.cross_cluster_bound_us();
      cfg.converged_threshold_us += bound;
      cfg.diverge_threshold_us += bound;
      cfg.cluster_max_depth = scenario_.cluster.max_depth();
      cfg.cluster_hop_bound_us = scenario_.cluster.hop_bound_us;
    }
    monitor_ = std::make_unique<obs::InvariantMonitor>(cfg);
    lifecycle_ = std::make_unique<trace::BeaconLifecycle>(registry_);
    if (scenario_.cluster.enabled()) {
      std::vector<obs::NodeDomainInfo> topo(
          static_cast<std::size_t>(scenario_.num_nodes));
      for (int i = 0; i < scenario_.num_nodes; ++i) {
        const int c = cluster::cluster_of(scenario_.cluster,
                                          static_cast<mac::NodeId>(i));
        topo[static_cast<std::size_t>(i)].cluster = c;
        topo[static_cast<std::size_t>(i)].phase_us =
            cluster::phase_of(scenario_.cluster, c);
      }
      monitor_->set_cluster_topology(std::move(topo));
    }
  }
  if (!scenario_.faults.empty()) {
    // The injector owns its RNG substream, keyed by the plan's seed: the
    // channel's own draw sequence is untouched, so attaching a plan never
    // perturbs the baseline run and the same (plan, seed) pair replays
    // bit-identically.
    injector_ = std::make_unique<fault::FaultInjector>(
        scenario_.faults, sim_.substream("faults", scenario_.faults.seed));
    channel_.set_fault_injector(injector_.get());
    recovery_ = std::make_unique<fault::RecoveryTracker>(
        scenario_.phy.beacon_period.to_us() * 1e-6,
        /*sync_threshold_us=*/25.0);
    if (monitor_ != nullptr) {
      // Planned partitions and node outages are disturbances, not
      // violations: suspend the invariants a healthy network is *supposed*
      // to break while recovering (one reference per partition, Lemma 1
      // restart).
      for (const auto& p : scenario_.faults.partitions) {
        monitor_->add_disturbance(
            sim::SimTime::from_sec_double(p.start_s),
            p.end_s < 0.0 ? sim::SimTime::never()
                          : sim::SimTime::from_sec_double(p.end_s));
      }
      for (const auto& f : scenario_.faults.node_faults) {
        monitor_->add_disturbance(
            sim::SimTime::from_sec_double(f.at_s),
            f.restart_s < 0.0 ? sim::SimTime::from_sec_double(f.at_s)
                              : sim::SimTime::from_sec_double(f.restart_s));
      }
      for (const auto& c : scenario_.faults.clock_faults) {
        monitor_->add_disturbance(sim::SimTime::from_sec_double(c.at_s),
                                  sim::SimTime::from_sec_double(c.at_s));
      }
    }
  }
  if (!scenario_.flight_recorder_out.empty()) {
    flight_sink_ = std::make_unique<obs::JsonlSink>();
    std::string err;
    if (!flight_sink_->open(scenario_.flight_recorder_out, &err)) {
      throw std::runtime_error(err);
    }
    obs::FlightRecorder::Config cfg;
    cfg.event_capacity = scenario_.flight_capacity;
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
  if (!scenario_.telemetry_out.empty()) {
    telemetry_sink_ = std::make_unique<obs::JsonlSink>();
    std::string err;
    if (!telemetry_sink_->open(scenario_.telemetry_out, &err)) {
      throw std::runtime_error(err);
    }
    obs::TelemetrySampler::Options opt;
    opt.interval_s =
        scenario_.telemetry_interval_s > 0.0 ? scenario_.telemetry_interval_s
                                             : 1.0;
    opt.source = "sim";
    sampler_ = std::make_unique<obs::TelemetrySampler>(
        opt, [this](const obs::TelemetrySample& sample) {
          telemetry_sink_->write_line(obs::telemetry_to_jsonl(sample));
          if (flight_ != nullptr) flight_->on_sample(sample);
        });
  }
  build_stations();
}

void Network::build_stations() {
  const int n = scenario_.num_nodes;
  const bool has_attacker = !scenario_.attack.empty();
  const int total = n + (has_attacker ? 1 : 0);
  attacker_index_ = has_attacker ? static_cast<std::size_t>(n)
                                 : static_cast<std::size_t>(total);

  sim::Rng placement = sim_.substream("placement", 0);
  sim::Rng clocks = sim_.substream("clocks", 0);

  const bool is_sstsp = scenario_.protocol == ProtocolKind::kSstsp;

  const bool cluster_mode = scenario_.cluster.enabled();
  for (int i = 0; i < total; ++i) {
    mac::Position pos;
    if (cluster_mode) {
      const auto cid = static_cast<mac::NodeId>(i);
      if (cluster::is_gateway(scenario_.cluster, cid)) {
        // Deterministic (no placement draw): gateways must sit where both
        // clusters are in range, not wherever the disc sampler lands.
        pos = cluster::gateway_position(scenario_.cluster, cid);
      } else {
        const double r =
            scenario_.cluster.radius_m * std::sqrt(placement.uniform());
        const double theta = placement.uniform(0.0, 2.0 * M_PI);
        const mac::Position center = cluster::cluster_center(
            scenario_.cluster, cluster::cluster_of(scenario_.cluster, cid));
        pos = {center.x_m + r * std::cos(theta),
               center.y_m + r * std::sin(theta)};
      }
    } else {
      // Uniform position in the deployment disc.
      const double r =
          scenario_.phy.placement_radius_m * std::sqrt(placement.uniform());
      const double theta = placement.uniform(0.0, 2.0 * M_PI);
      pos = {r * std::cos(theta), r * std::sin(theta)};
    }

    auto drift = clk::DriftModel::uniform(clocks, scenario_.max_drift_ppm);
    const double offset = clocks.uniform(-scenario_.initial_offset_us,
                                         scenario_.initial_offset_us);
    const auto id = static_cast<mac::NodeId>(i);
    if (has_attacker && static_cast<std::size_t>(i) == attacker_index_) {
      // Some adversaries bring deliberately tuned oscillator hardware
      // (e.g. the TSF attacker's fast clock that wins every contention,
      // §5); the registry publishes the factor, NaN = honest draw.
      const double factor =
          attack::adversary_drift_factor(scenario_.attack);
      if (!std::isnan(factor)) {
        drift = clk::DriftModel::from_ppm(factor * scenario_.max_drift_ppm);
      }
    }

    auto station = std::make_unique<proto::Station>(
        sim_, channel_, id, clk::HardwareClock(drift, offset), pos);

    if (is_sstsp) {
      // Every node (including the internal attacker) owns a published
      // chain; see core/key_directory.h for the trust-bootstrap model.
      directory_.register_node(
          id, crypto::ChainParams{crypto::derive_seed(scenario_.seed, id),
                                  scenario_.sstsp.chain_length});
    }
    stations_.push_back(std::move(station));
  }

  for (int i = 0; i < total; ++i) {
    proto::Station& st = *stations_[static_cast<std::size_t>(i)];
    const bool is_attacker =
        has_attacker && static_cast<std::size_t>(i) == attacker_index_;

    std::unique_ptr<proto::SyncProtocol> proto;
    if (is_attacker) {
      std::optional<obs::json::Value> params;
      if (!scenario_.attack_params_json.empty()) {
        params = obs::json::parse(scenario_.attack_params_json);
        if (!params) {
          throw std::runtime_error("invalid attack params JSON: " +
                                   scenario_.attack_params_json);
        }
      }
      attack::AdversaryContext ctx{st,
                                   directory_,
                                   scenario_.sstsp,
                                   scenario_.tsf_attack,
                                   scenario_.sstsp_attack,
                                   params ? &*params : nullptr};
      proto = attack::make_adversary(scenario_.attack, ctx);
      if (proto == nullptr) {
        // CLI / config validation rejects unknown names before we get
        // here; a programmatic Scenario with a typo'd name should fail
        // loudly, not run attacker-less.
        throw std::runtime_error("unknown adversary: " + scenario_.attack);
      }
    } else {
      switch (scenario_.protocol) {
        case ProtocolKind::kTsf:
          proto = std::make_unique<proto::Tsf>(st);
          break;
        case ProtocolKind::kAtsp:
          proto = std::make_unique<proto::Atsp>(st, scenario_.atsp);
          break;
        case ProtocolKind::kTatsp:
          proto = std::make_unique<proto::Tatsp>(st, scenario_.tatsp);
          break;
        case ProtocolKind::kSatsf:
          proto = std::make_unique<proto::Satsf>(st, scenario_.satsf);
          break;
        case ProtocolKind::kRentelKunz:
          proto = std::make_unique<proto::RentelKunz>(st,
                                                      scenario_.rentel_kunz);
          break;
        case ProtocolKind::kSstsp: {
          if (scenario_.cluster.enabled()) {
            const auto& spec = scenario_.cluster;
            const auto cid = static_cast<mac::NodeId>(i);
            cluster::ClusterSstsp::Options copts;
            copts.spec = spec;
            copts.cluster = cluster::cluster_of(spec, cid);
            copts.gateway = cluster::is_gateway(spec, cid);
            // Preestablished references: the first non-gateway member of
            // every cluster (gateways must stay followers — their chain is
            // spent on the bridge, and a reference cannot also be passive
            // uplink prey to guard resets).
            copts.start_as_reference =
                scenario_.preestablished_reference &&
                cluster::member_index(spec, cid) ==
                    (copts.cluster == 0 ? 0 : spec.gateways);
            proto = std::make_unique<cluster::ClusterSstsp>(
                st, scenario_.sstsp, directory_, copts);
            break;
          }
          core::Sstsp::Options opts;
          opts.calibrated_boot = true;
          opts.start_as_reference =
              scenario_.preestablished_reference && i == 0;
          proto = std::make_unique<core::Sstsp>(st, scenario_.sstsp,
                                                directory_, opts);
          break;
        }
      }
    }
    st.set_protocol(std::move(proto));
  }

  if (scenario_.trace_capacity > 0) {
    trace_ = std::make_unique<trace::EventTrace>(scenario_.trace_capacity);
    for (auto& station : stations_) station->set_trace(trace_.get());
  }
  for (auto& station : stations_) {
    station->set_instruments(instruments_.get());
    station->set_profiler(profiler_.get());
    station->set_monitor(monitor_.get());
    station->set_lifecycle(lifecycle_.get());
    station->set_recovery(recovery_.get());
    station->set_flight(flight_.get());
  }
}

void Network::arm() {
  if (armed_) return;
  armed_ = true;
  for (auto& st : stations_) st->power_on();
  schedule_environment();
  schedule_faults();
  schedule_sampling();
}

void Network::schedule_faults() {
  if (scenario_.faults.empty()) return;
  fault::FaultHooks hooks;
  hooks.current_reference = [this]() -> std::optional<mac::NodeId> {
    const auto idx = current_reference_index();
    if (!idx) return std::nullopt;
    // Station channel indices double as node ids in the scenario runner.
    return static_cast<mac::NodeId>(*idx);
  };
  hooks.set_power = [this](mac::NodeId id, bool powered) {
    const auto idx = static_cast<std::size_t>(id);
    if (idx >= stations_.size() || idx == attacker_index_) return;
    if (powered) {
      stations_[idx]->power_on();
    } else {
      stations_[idx]->power_off();
    }
  };
  hooks.clock_fault = [this](mac::NodeId id, double step_us,
                             double drift_delta_ppm) {
    const auto idx = static_cast<std::size_t>(id);
    if (idx >= stations_.size()) return;
    stations_[idx]->inject_clock_fault(step_us, drift_delta_ppm);
  };
  if (recovery_ != nullptr) {
    hooks.on_node_fault = [this](const fault::NodeFault& f, mac::NodeId id) {
      // Losing the reference forces a re-election (the paper's l-BP
      // silence tolerance, §3.3); losing a follower only dents coverage.
      if (f.reference) {
        recovery_->expect_reelection(f.kind == fault::NodeFaultKind::kCrash
                                         ? "reference-crash"
                                         : "reference-pause",
                                     id, sim_.now().to_sec());
      } else if (scenario_.cluster.enabled() &&
                 cluster::is_gateway(scenario_.cluster, id)) {
        // Losing a gateway severs a cluster's translation path: wait for
        // the attach fraction to dip (stale-tau detachment) and return.
        recovery_->expect_reattach(f.kind == fault::NodeFaultKind::kCrash
                                       ? "gateway-crash"
                                       : "gateway-pause",
                                   id, sim_.now().to_sec());
      }
    };
    hooks.on_clock_fault = [this](const fault::ClockFault&, mac::NodeId id) {
      recovery_->expect_resync("clock-fault", id, sim_.now().to_sec());
    };
    // Partition heals that happen inside the run are re-sync deadlines.
    for (const auto& p : scenario_.faults.partitions) {
      if (p.end_s >= 0.0 && p.end_s < scenario_.duration_s) {
        const double heal_s = p.end_s;
        sim_.at(sim::SimTime::from_sec_double(heal_s), [this, heal_s] {
          recovery_->expect_resync("partition-heal", mac::kNoNode, heal_s);
        });
      }
    }
  }
  fault::schedule_fault_events(sim_, scenario_.faults, injector_.get(),
                               std::move(hooks));
}

void Network::schedule_environment() {
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
      sim_.at(sim::SimTime::from_sec_double(t), [this, churn, event_index] {
        sim::Rng pick = sim_.substream("churn", event_index);
        const auto ref = current_reference_index();
        const auto honest_count = std::min(
            stations_.size(), attacker_index_);
        const auto leavers = static_cast<std::size_t>(
            std::lround(churn.fraction * static_cast<double>(honest_count)));
        std::size_t left = 0;
        std::size_t guardrail = 0;
        while (left < leavers && guardrail++ < honest_count * 20) {
          const auto idx = static_cast<std::size_t>(
              pick.uniform_int(0, honest_count - 1));
          if (!stations_[idx]->awake()) continue;
          if (ref && *ref == idx) continue;  // ref departures are separate
          stations_[idx]->power_off();
          sim_.after(sim::SimTime::from_sec_double(churn.absence_s),
                     [this, idx] { stations_[idx]->power_on(); });
          ++left;
        }
      });
    }
  }

  // Reference departures (SSTSP experiments).
  for (const double t : scenario_.reference_departures_s) {
    sim_.at(sim::SimTime::from_sec_double(t), [this] {
      const auto ref = current_reference_index();
      if (!ref) return;
      const std::size_t idx = *ref;
      stations_[idx]->power_off();
      sim_.after(sim::SimTime::from_sec_double(scenario_.departure_absence_s),
                 [this, idx] { stations_[idx]->power_on(); });
    });
  }

  schedule_clock_stress();
}

void Network::schedule_clock_stress() {
  // Oscillator stressors (clock/drift_model.h): periodic per-honest-node
  // frequency deltas via inject_clock_fault, so phase stays continuous.
  if (!scenario_.clock_stress.enabled()) return;
  const auto honest_count = std::min(stations_.size(), attacker_index_);
  stressors_.reserve(honest_count);
  for (std::size_t i = 0; i < honest_count; ++i) {
    stressors_.emplace_back(scenario_.clock_stress,
                            sim_.substream("clock-stress", i));
  }
  sim_.at(sim::SimTime::from_sec_double(scenario_.clock_stress.period_s),
          [this] { clock_stress_tick(); });
}

void Network::clock_stress_tick() {
  // Each tick schedules the next through this member, so no closure has to
  // own itself.
  const double dt_s = scenario_.clock_stress.period_s;
  const auto period = sim::SimTime::from_sec_double(dt_s);
  const double t_s = sim_.now().to_sec();
  for (std::size_t i = 0; i < stressors_.size(); ++i) {
    const double delta = stressors_[i].step_delta_ppm(t_s, dt_s);
    if (delta != 0.0) stations_[i]->inject_clock_fault(0.0, delta);
  }
  if (sim_.now() + period <=
      sim::SimTime::from_sec_double(scenario_.duration_s)) {
    sim_.after(period, [this] { clock_stress_tick(); });
  }
}

void Network::schedule_sampling() {
  sim_.at(sim::SimTime::from_sec_double(scenario_.sample_period_s),
          [this] { sampling_tick(); });
}

void Network::sampling_tick() {
  // Each sample schedules the next through this member, so no closure has
  // to own itself.
  sample_clock_spread();
  const auto period = sim::SimTime::from_sec_double(scenario_.sample_period_s);
  if (sim_.now() + period <=
      sim::SimTime::from_sec_double(scenario_.duration_s)) {
    sim_.after(period, [this] { sampling_tick(); });
  }
}

void Network::sample_clock_spread() {
  sample_values_.clear();
  const sim::SimTime now = sim_.now();
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    if (i == attacker_index_) continue;  // honest clocks only
    const proto::Station& st = *stations_[i];
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
  if (scenario_.cluster.enabled()) sample_cluster(now);
  // Telemetry rides the same tick — no extra events, so a seeded run's
  // event/RNG sequence is identical with telemetry on or off.
  if (sampler_ != nullptr && sampler_->due(now.to_sec())) {
    emit_telemetry(now, have, lo, hi, sum);
  }
  if (dump_flag_ != nullptr && *dump_flag_ != 0) {
    *dump_flag_ = 0;
    if (flight_ != nullptr) {
      flight_->dump(now.to_sec(), "dump-request", nullptr);
    }
  }
}

void Network::sample_cluster(sim::SimTime now) {
  const auto& spec = scenario_.cluster;
  cluster_sum_.assign(static_cast<std::size_t>(spec.clusters), 0.0);
  cluster_n_.assign(static_cast<std::size_t>(spec.clusters), 0);
  int awake = 0;
  int attached = 0;
  for (const auto& station : stations_) {
    const proto::Station& st = *station;
    if (!st.awake()) continue;
    ++awake;
    // Cluster scenarios reject attackers and run ClusterSstsp on every
    // station, so the downcast is total.
    const auto& cs =
        static_cast<const cluster::ClusterSstsp&>(st.protocol());
    if (!cs.is_synchronized()) continue;
    ++attached;
    const auto c = static_cast<std::size_t>(cs.cluster());
    cluster_sum_[c] += cs.network_time_us(now);
    ++cluster_n_[c];
  }
  bool have = false;
  double lo = 0.0;
  double hi = 0.0;
  for (std::size_t c = 0; c < cluster_sum_.size(); ++c) {
    if (cluster_n_[c] == 0) continue;
    const double mean = cluster_sum_[c] / static_cast<double>(cluster_n_[c]);
    if (!have) {
      lo = hi = mean;
      have = true;
    } else {
      lo = std::min(lo, mean);
      hi = std::max(hi, mean);
    }
  }
  if (have) {
    const double spread = hi - lo;
    cluster_spread_.push(now.to_sec(), spread);
    if (monitor_ != nullptr) monitor_->on_cluster_spread_sample(now, spread);
  }
  const double fraction =
      awake > 0 ? static_cast<double>(attached) / static_cast<double>(awake)
                : 0.0;
  attach_fraction_.push(now.to_sec(), fraction);
  if (recovery_ != nullptr) {
    recovery_->on_cluster_attach_sample(now.to_sec(), fraction);
  }
}

void Network::emit_telemetry(sim::SimTime now, bool have, double lo,
                             double hi, double sum) {
  obs::TelemetrySample s;
  s.nodes_total = scenario_.num_nodes;
  int awake = 0;
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    if (i == attacker_index_) continue;
    if (stations_[i]->awake()) ++awake;
  }
  s.nodes_awake = awake;
  s.nodes_synced = static_cast<int>(sample_values_.size());
  const auto ref = current_reference_index();
  if (ref) s.reference = static_cast<std::int64_t>(*ref);
  const auto count = sample_values_.size();
  const double mean = have ? sum / static_cast<double>(count) : 0.0;
  if (count >= 2) {
    s.max_offset_us = hi - lo;
    double abs_dev = 0.0;
    for (const double v : sample_values_) abs_dev += std::fabs(v - mean);
    s.mean_offset_us = abs_dev / static_cast<double>(count);
  }
  s.queue_depth = sim_.events_pending();
  if (monitor_ != nullptr) s.audit_records = monitor_->total_violations();
  s.recovery_pending = recovery_ != nullptr && recovery_->pending();

  const bool per_node =
      scenario_.telemetry_per_node > 0 ||
      (scenario_.telemetry_per_node < 0 && scenario_.num_nodes <= 64);
  if (per_node && have) {
    for (std::size_t i = 0; i < stations_.size(); ++i) {
      if (i == attacker_index_) continue;
      const proto::Station& st = *stations_[i];
      obs::TelemetrySample::NodeError e;
      e.node = static_cast<std::int64_t>(st.id());
      e.synced = st.awake() && st.protocol().is_synchronized();
      if (e.synced) e.err_us = st.protocol().network_time_us(now) - mean;
      s.node_errors.push_back(e);
    }
  }

  obs::TelemetryCumulative cum;
  const proto::ProtocolStats hs = honest_stats();
  cum.beacons_tx = hs.beacons_sent;
  cum.beacons_rx = hs.beacons_received;
  cum.adjustments = hs.adjustments + hs.adoptions;
  cum.coarse_steps = hs.coarse_steps;
  cum.rejects = hs.rejected_interval + hs.rejected_key + hs.rejected_mac +
                hs.rejected_guard;
  cum.elections = hs.elections_won;
  cum.events = sim_.events_processed();
  sampler_->emit(now.to_sec(), std::move(s), cum);
}

std::optional<std::size_t> Network::current_reference_index() const {
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    if (i == attacker_index_) continue;
    if (stations_[i]->awake() && stations_[i]->protocol().is_reference()) {
      // Cluster runs elect one reference per cluster; "the" reference —
      // the one fault plans and departures target — is the root cluster's
      // (the network timescale's origin).
      if (scenario_.cluster.enabled() &&
          cluster::cluster_of(scenario_.cluster,
                              static_cast<mac::NodeId>(i)) != 0) {
        continue;
      }
      return i;
    }
  }
  return std::nullopt;
}

std::optional<double> Network::instant_max_diff_us() const {
  double lo = 0.0;
  double hi = 0.0;
  bool any = false;
  const sim::SimTime now = sim_.now();
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    if (i == attacker_index_) continue;  // honest clocks only
    const proto::Station& st = *stations_[i];
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

void Network::run() { run_until(scenario_.duration_s); }

void Network::run_until(double horizon_s) {
  arm();
  sim_.run_until(sim::SimTime::from_sec_double(horizon_s));
}

const mac::ChannelStats& Network::channel_stats() const {
  return channel_.stats();
}

proto::ProtocolStats Network::honest_stats() const {
  proto::ProtocolStats agg;
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    if (i == attacker_index_) continue;
    const auto& s = stations_[i]->protocol().stats();
    agg.beacons_sent += s.beacons_sent;
    agg.beacons_received += s.beacons_received;
    agg.adoptions += s.adoptions;
    agg.adjustments += s.adjustments;
    agg.rejected_interval += s.rejected_interval;
    agg.rejected_key += s.rejected_key;
    agg.rejected_mac += s.rejected_mac;
    agg.rejected_guard += s.rejected_guard;
    agg.elections_won += s.elections_won;
    agg.demotions += s.demotions;
    agg.coarse_steps += s.coarse_steps;
    agg.solver_rejections += s.solver_rejections;
    for (std::size_t v = 0; v < agg.discipline_verdicts.size(); ++v) {
      agg.discipline_verdicts[v] += s.discipline_verdicts[v];
    }
  }
  return agg;
}

const proto::ProtocolStats* Network::attacker_stats() const {
  if (attacker_index_ >= stations_.size()) return nullptr;
  return &stations_[attacker_index_]->protocol().stats();
}

}  // namespace sstsp::run
