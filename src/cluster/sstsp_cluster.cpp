#include "cluster/sstsp_cluster.h"

#include <algorithm>
#include <cmath>

namespace sstsp::cluster {

namespace {
/// Spacing between co-gateway announcement slots inside the bridge stagger
/// window: comfortably beyond one beacon's air time, so co-gateways never
/// systematically overlap even before CSMA deference.
constexpr double kAnnounceSlotUs = 200.0;
}  // namespace

ClusterSstsp::ClusterSstsp(proto::Station& station,
                           const core::SstspConfig& base_cfg,
                           core::KeyDirectory& directory, Options options)
    : SyncProtocol(station),
      options_(options),
      home_schedule_{base_cfg.t0_us + phase_of(options.spec, options.cluster),
                     station.channel().phy().beacon_period.to_us(),
                     base_cfg.chain_length},
      directory_(directory) {
  const double bp = home_schedule_.interval_us;
  tau_stale_us_ = static_cast<double>(options_.spec.tau_stale_bps) * bp;

  core::SstspConfig home_cfg = base_cfg;
  home_cfg.t0_us = home_schedule_.t0_us;
  core::Sstsp::Options member_opts;
  member_opts.calibrated_boot = options_.calibrated_boot;
  member_opts.start_as_reference = options_.start_as_reference;
  member_opts.domain = member_domain(options_.cluster);
  // A gateway sits at the geometric midpoint between clusters, where the
  // two parents' beacons are mutually hidden terminals: letting it contend
  // would hand it the home reference role on every phase-crossing collision
  // burst.  Its member half therefore only listens; the µTESLA chain is
  // spent on bridge announcements instead.
  member_opts.passive = options_.gateway;
  // Adjacent clusters' references drift through each other's slots (the
  // phase stagger only separates them at boot); defer-and-retry across one
  // beacon air time instead of silently dropping intervals.  The retry
  // window stays inside the receivers' interval slack.
  member_opts.busy_retries = 8;
  member_opts.busy_retry_step_us =
      std::max(50.0, base_cfg.interval_slack_us / 8.0);
  member_ = std::make_unique<core::Sstsp>(station, home_cfg, directory,
                                          member_opts);

  if (options_.cluster > 0) {
    home_tau_.emplace(directory, home_schedule_, base_cfg.interval_slack_us,
                      tau_stale_us_);
  }
  if (options_.gateway) {
    const int parent = parent_of(options_.spec, options_.cluster);
    core::SstspConfig parent_cfg = base_cfg;
    parent_cfg.t0_us = base_cfg.t0_us + phase_of(options_.spec, parent);
    core::Sstsp::Options uplink_opts;
    uplink_opts.calibrated_boot = options_.calibrated_boot;
    uplink_opts.domain = member_domain(parent);
    uplink_opts.passive = true;
    uplink_ = std::make_unique<core::Sstsp>(station, parent_cfg, directory,
                                            uplink_opts);
    if (parent > 0) {
      const crypto::MuTeslaSchedule parent_schedule{parent_cfg.t0_us, bp,
                                                    base_cfg.chain_length};
      parent_tau_.emplace(directory, parent_schedule,
                          base_cfg.interval_slack_us, tau_stale_us_);
    }
    bridge_ = std::make_unique<GatewayBridge>(
        station, directory, home_schedule_,
        GatewayBridge::Config{bridge_domain(options_.cluster),
                              static_cast<std::uint8_t>(depth())});
    announce_offset_us_ =
        options_.spec.bridge_stagger_us +
        static_cast<double>(member_index(options_.spec, station.id())) *
            kAnnounceSlotUs;
  }
}

void ClusterSstsp::start() {
  running_ = true;
  last_announce_j_ = INT64_MIN;
  if (home_tau_) home_tau_->reset();
  if (parent_tau_) parent_tau_->reset();
  member_->start();
  if (uplink_) uplink_->start();
  if (bridge_) schedule_announce();
}

void ClusterSstsp::stop() {
  running_ = false;
  if (announce_event_ != 0) {
    station_.sim().cancel(announce_event_);
    announce_event_ = 0;
  }
  member_->stop();
  if (uplink_) uplink_->stop();
}

void ClusterSstsp::schedule_announce() {
  if (announce_event_ != 0) station_.sim().cancel(announce_event_);
  const double c_now = member_->adjusted().read_us(station_.sim().now());
  std::int64_t next_j =
      std::max(last_announce_j_ + 1, home_schedule_.interval_of(c_now));
  while (home_schedule_.emission_time(next_j) + announce_offset_us_ <=
         c_now + 1.0) {
    ++next_j;
  }
  if (next_j > static_cast<std::int64_t>(home_schedule_.n)) return;
  const double tx_time =
      home_schedule_.emission_time(next_j) + announce_offset_us_;
  announce_event_ = station_.sim().at(
      member_->adjusted().real_at(tx_time),
      [this, next_j] { handle_announce(next_j); });
}

void ClusterSstsp::handle_announce(std::int64_t j) {
  announce_event_ = 0;
  if (!running_) return;
  last_announce_j_ = j;
  // Announce only from the uplink path: re-broadcasting a tau learned from
  // a co-gateway's announcement would feed translation error back into the
  // very plane it was learned from.
  if (j >= 1 && member_->is_synchronized()) {
    if (const auto global = uplink_global_us(station_.sim().now())) {
      bridge_->announce(j, *global);
    }
  }
  schedule_announce();
}

std::optional<double> ClusterSstsp::uplink_global_us(sim::SimTime real) const {
  if (!uplink_ || !uplink_->is_synchronized()) return std::nullopt;
  const double up = uplink_->adjusted().read_us(real);
  if (!parent_tau_) return up;  // parent IS the root: tau = 0
  if (!parent_tau_->fresh(up)) return std::nullopt;
  const auto tau = parent_tau_->tau_us(up);
  if (!tau) return std::nullopt;
  return up + *tau;
}

double ClusterSstsp::network_time_us(sim::SimTime real) const {
  const double local = member_->adjusted().read_us(real);
  if (options_.cluster == 0) return local;  // the root timescale itself
  if (const auto global = uplink_global_us(real)) return *global;
  if (home_tau_ && home_tau_->fresh(local)) {
    if (const auto tau = home_tau_->tau_us(local)) return local + *tau;
  }
  // Detached: the cluster-local reading (excluded from spread metrics via
  // is_synchronized(), but still a monotone clock for local consumers).
  return local;
}

bool ClusterSstsp::attached() const {
  if (options_.cluster == 0) return true;
  const sim::SimTime now = station_.sim().now();
  if (uplink_global_us(now)) return true;
  const double local = member_->adjusted().read_us(now);
  return home_tau_ && home_tau_->fresh(local);
}

bool ClusterSstsp::is_synchronized() const {
  return member_->is_synchronized() && attached();
}

void ClusterSstsp::on_receive(const mac::Frame& frame, const mac::RxInfo& rx) {
  if (!frame.is_sstsp()) return;
  const std::uint8_t d = frame.domain;
  if (d == member_domain(options_.cluster)) {
    member_->on_receive(frame, rx);
    return;
  }
  if (uplink_ &&
      d == member_domain(parent_of(options_.spec, options_.cluster))) {
    uplink_->on_receive(frame, rx);
    return;
  }
  if (home_tau_ && d == bridge_domain(options_.cluster)) {
    ingest_bridge(*home_tau_, member_->adjusted(), frame, rx);
    return;
  }
  if (parent_tau_ &&
      d == bridge_domain(parent_of(options_.spec, options_.cluster))) {
    ingest_bridge(*parent_tau_, uplink_->adjusted(), frame, rx);
  }
  // Any other domain: out-of-cluster traffic, filtered like a foreign BSSID.
}

void ClusterSstsp::ingest_bridge(TauTracker& tracker,
                                 const clk::AdjustedClock& ctx,
                                 const mac::Frame& frame,
                                 const mac::RxInfo& rx) {
  ++stats_.beacons_received;
  const auto& body = frame.sstsp();
  const double local = ctx.read_us(rx.delivered);
  const double arrival_hw = station_.hw().read_us(rx.delivered);
  const double ts_est =
      static_cast<double>(body.timestamp_us) + rx.nominal_delay_us;
  station_.trace_event(trace::EventKind::kBeaconRx, frame.sender,
                       ts_est - local, frame.trace_id);
  const TauIngest res = tracker.ingest(body, frame.sender, arrival_hw, ts_est,
                                       local, frame.trace_id);
  if (!res.interval_ok) {
    ++stats_.rejected_interval;
    station_.trace_event(trace::EventKind::kRejectInterval, frame.sender,
                         ts_est - local, frame.trace_id);
    return;
  }
  if (!res.key_valid) {
    ++stats_.rejected_key;
    station_.trace_event(trace::EventKind::kRejectKey, frame.sender, 0.0,
                         frame.trace_id);
    return;
  }
  if (res.disclosed_index >= 1) {
    if (auto* mon = station_.monitor()) {
      mon->on_key_accepted(station_.id(), frame.sender, res.disclosed_index,
                           local, station_.sim().now());
    }
  }
}

const proto::ProtocolStats& ClusterSstsp::stats() const {
  merged_ = stats_;  // this wrapper's own bridge-plane receive counters
  merged_ += member_->stats();
  if (uplink_) merged_ += uplink_->stats();
  if (bridge_) merged_.beacons_sent += bridge_->announcements();
  return merged_;
}

}  // namespace sstsp::cluster
