// Recovery extension (paper §3.4 future work): local blacklisting of
// senders whose beacons repeatedly fail the security checks.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "attack/replay.h"
#include "clock/drift_model.h"
#include "core/sstsp.h"
#include "crypto/hash_chain.h"
#include "runner/experiment.h"
#include "runner/network.h"
#include "trace/event_trace.h"

namespace sstsp::run {
namespace {

/// Small SSTSP cell plus a replay attacker that re-transmits every beacon
/// three intervals late — a sustained stream of interval-check failures,
/// perfect material for the rejection-counting detector.
struct ReplayedCell {
  sim::Simulator sim{55};
  mac::PhyParams phy;
  std::unique_ptr<mac::Channel> channel;
  core::KeyDirectory directory;
  core::SstspConfig cfg;
  trace::EventTrace trace{1 << 16};
  proto::Observers observers{.trace = &trace};
  std::vector<std::unique_ptr<proto::Station>> stations;

  explicit ReplayedCell(int blacklist_threshold,
                        double penalty_s = 30.0) {
    phy.packet_error_rate = 0.0;
    cfg.chain_length = 1200;
    cfg.blacklist_threshold = blacklist_threshold;
    cfg.blacklist_penalty_s = penalty_s;
    channel = std::make_unique<mac::Channel>(sim, phy);
    for (int i = 0; i < 8; ++i) {
      auto& st = add_station(-60.0 + 18.0 * i, 6.0 * i);
      directory.register_node(
          st.id(), crypto::ChainParams{crypto::derive_seed(55, st.id()),
                                       cfg.chain_length});
      st.set_protocol(std::make_unique<core::Sstsp>(st, cfg, directory,
                                                    core::Sstsp::Options{}));
    }
    // The replayer is an *internal* identity (registered chain) so its
    // replayed frames reach the rejection counters rather than being
    // dropped as unknown.
    auto& rep = add_station(0.0, 0.0);
    directory.register_node(
        rep.id(), crypto::ChainParams{crypto::derive_seed(55, rep.id()),
                                      cfg.chain_length});
    rep.set_protocol(std::make_unique<attack::ReplayAttacker>(
        rep, attack::ReplayParams{/*start_s=*/5.0, /*end_s=*/55.0,
                                  /*delay_bps=*/3}));
  }

  proto::Station& add_station(double ppm, double offset_us) {
    const auto id = static_cast<mac::NodeId>(stations.size());
    stations.push_back(std::make_unique<proto::Station>(
        sim, *channel, id,
        clk::HardwareClock(clk::DriftModel::from_ppm(ppm), offset_us),
        mac::Position{static_cast<double>(id) * 2.0, 0.0}));
    stations.back()->attach(&observers);
    return *stations.back();
  }

  void run(double until_s) {
    for (auto& st : stations) {
      if (!st->awake()) st->power_on();
    }
    sim.run_until(sim::SimTime::from_sec_double(until_s));
  }

  [[nodiscard]] std::uint64_t interval_rejections() const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i + 1 < stations.size(); ++i) {
      total += stations[i]->protocol().stats().rejected_interval;
    }
    return total;
  }
};

TEST(Recovery, DisabledByDefault) {
  const core::SstspConfig defaults{};
  EXPECT_EQ(defaults.blacklist_threshold, 0);
}

/// Internal forger: a compromised identity with a valid published chain
/// that signs its beacons properly but stamps them a constant offset off —
/// every frame passes the interval and key checks and fails the guard.
/// This is the *attributable* malice the rejection counter is for: only
/// the chain owner can produce these frames.
class OffsetInternalForger final : public proto::SyncProtocol {
 public:
  OffsetInternalForger(proto::Station& station, core::KeyDirectory& directory,
                       const core::SstspConfig& cfg, double offset_us)
      : SyncProtocol(station),
        schedule_{cfg.t0_us, station.channel().phy().beacon_period.to_us(),
                  cfg.chain_length},
        signer_(directory.chain_of(station.id()).value(), schedule_),
        offset_us_(offset_us) {}

  void start() override {
    running_ = true;
    schedule_next();
  }
  void stop() override { running_ = false; }
  void on_receive(const mac::Frame&, const mac::RxInfo&) override {}
  [[nodiscard]] double network_time_us(sim::SimTime real) const override {
    return station_.hw().read_us(real);
  }
  [[nodiscard]] bool is_synchronized() const override { return false; }

 private:
  void schedule_next() {
    station_.sim().after(station_.channel().phy().beacon_period, [this] {
      if (!running_) return;
      emit();
      schedule_next();
    });
  }
  void emit() {
    const double now_us = station_.hw().read_us(station_.sim().now());
    const auto j = schedule_.interval_of(now_us);
    if (j < 1 || static_cast<std::size_t>(j) > schedule_.n) return;
    mac::Frame frame;
    frame.sender = station_.id();
    frame.air_bytes = station_.channel().phy().sstsp_beacon_bytes;
    frame.body = signer_.sign(
        j, static_cast<std::int64_t>(now_us + offset_us_), station_.id());
    station_.transmit(std::move(frame),
                      station_.channel().phy().sstsp_beacon_duration);
    ++stats_.beacons_sent;
  }

  crypto::MuTeslaSchedule schedule_;
  core::BeaconSigner signer_;
  double offset_us_;
  bool running_{false};
};

/// Cell with the offset forger instead of the replayer.
struct ForgedCell {
  sim::Simulator sim{56};
  mac::PhyParams phy;
  std::unique_ptr<mac::Channel> channel;
  core::KeyDirectory directory;
  core::SstspConfig cfg;
  trace::EventTrace trace{1 << 16};
  proto::Observers observers{.trace = &trace};
  std::vector<std::unique_ptr<proto::Station>> stations;

  explicit ForgedCell(int blacklist_threshold, double penalty_s = 30.0) {
    phy.packet_error_rate = 0.0;
    cfg.chain_length = 1200;
    cfg.blacklist_threshold = blacklist_threshold;
    cfg.blacklist_penalty_s = penalty_s;
    channel = std::make_unique<mac::Channel>(sim, phy);
    for (int i = 0; i < 8; ++i) {
      auto& st = add_station(-60.0 + 18.0 * i, 6.0 * i);
      directory.register_node(
          st.id(), crypto::ChainParams{crypto::derive_seed(56, st.id()),
                                       cfg.chain_length});
      st.set_protocol(std::make_unique<core::Sstsp>(st, cfg, directory,
                                                    core::Sstsp::Options{}));
    }
    auto& rogue = add_station(0.0, 0.0);
    directory.register_node(
        rogue.id(), crypto::ChainParams{crypto::derive_seed(56, rogue.id()),
                                        cfg.chain_length});
    rogue.set_protocol(std::make_unique<OffsetInternalForger>(
        rogue, directory, cfg, /*offset_us=*/5000.0));
  }

  proto::Station& add_station(double ppm, double offset_us) {
    const auto id = static_cast<mac::NodeId>(stations.size());
    stations.push_back(std::make_unique<proto::Station>(
        sim, *channel, id,
        clk::HardwareClock(clk::DriftModel::from_ppm(ppm), offset_us),
        mac::Position{static_cast<double>(id) * 2.0, 0.0}));
    stations.back()->attach(&observers);
    return *stations.back();
  }

  void run(double until_s) {
    for (auto& st : stations) {
      if (!st->awake()) st->power_on();
    }
    sim.run_until(sim::SimTime::from_sec_double(until_s));
  }

  [[nodiscard]] std::uint64_t guard_rejections() const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i + 1 < stations.size(); ++i) {
      total += stations[i]->protocol().stats().rejected_guard;
    }
    return total;
  }
};

TEST(Recovery, BlacklistMutesInternalForger) {
  ForgedCell without(/*blacklist_threshold=*/0);
  without.run(60.0);
  const auto rejections_without = without.guard_rejections();

  ForgedCell with(/*blacklist_threshold=*/3);
  with.run(60.0);
  const auto rejections_with = with.guard_rejections();

  // Without the extension every forged frame is processed and rejected
  // (~10/s x 7 victims x 60 s); with it each victim pays ~3 rejections and
  // then drops the rogue's frames unprocessed.
  EXPECT_GT(rejections_without, 1000u);
  EXPECT_LT(rejections_with, rejections_without / 10);
  EXPECT_GE(with.trace.count(trace::EventKind::kTakeover), 7u);
}

TEST(Recovery, BlacklistExpiresAndRearms) {
  ForgedCell cell(/*blacklist_threshold=*/3, /*penalty_s=*/5.0);
  cell.run(60.0);
  // ~60 s of forgeries / 5 s penalty: each victim cycles detect -> mute ->
  // expire repeatedly.
  EXPECT_GE(cell.trace.count(trace::EventKind::kTakeover), 3u * 7u);
}

TEST(Recovery, ReplayerCannotFrameTheReference) {
  // Replayed frames carry the *reference's* identity.  The detector counts
  // only consecutive rejections, and every genuine beacon acceptance resets
  // the counter — so a replayer must never get the honest reference
  // blacklisted (that would be an amplification attack against the
  // recovery mechanism itself).
  ReplayedCell cell(/*blacklist_threshold=*/3);
  cell.run(60.0);
  EXPECT_EQ(cell.trace.count(trace::EventKind::kTakeover), 0u);
  // The replays were still detected and discarded the paper's way.
  EXPECT_GT(cell.interval_rejections(), 1000u);
}

TEST(Recovery, HonestRefRejectionsNeverAccumulate) {
  // In a benign run with elections and churn the consecutive-rejection
  // counter must never reach the threshold (acceptances reset it).
  Scenario s;
  s.protocol = ProtocolKind::kSstsp;
  s.num_nodes = 20;
  s.duration_s = 90.0;
  s.seed = 4;
  s.sstsp.chain_length = 1100;
  s.sstsp.blacklist_threshold = 3;
  s.reference_departures_s = {40.0};
  s.churn = ChurnSpec{30.0, 0.15, 15.0};
  s.trace_capacity = 1 << 16;
  Network net(s);
  net.run();
  EXPECT_EQ(net.trace()->count(trace::EventKind::kTakeover), 0u);
  const auto diff = net.instant_max_diff_us();
  ASSERT_TRUE(diff.has_value());
  EXPECT_LT(*diff, kSyncThresholdUs);
}

}  // namespace
}  // namespace sstsp::run
