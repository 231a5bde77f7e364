// Multi-hop partition behaviour: when a cluster chain is physically
// severed at a gateway, the side still bridged to the root stays attached
// and tight while everything below the cut detaches (a partitioned network
// cannot — and must not pretend to — share one timeline).  The duel section
// covers the converse boundary: two timelines in ONE cluster (duelling boot
// references) must merge via RULE R without the duel leaking across a
// gateway boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "clock/drift_model.h"
#include "cluster/sstsp_cluster.h"
#include "crypto/hash_chain.h"
#include "runner/network.h"
#include "sim/simulator.h"

namespace sstsp::cluster {
namespace {

const ClusterSstsp& proto_of(run::Network& net, std::size_t i) {
  return static_cast<const ClusterSstsp&>(net.station(i).protocol());
}

TEST(MultiHopPartition, SeveredLineFormsTwoCoherentIslands) {
  run::Scenario s;
  s.cluster.clusters = 5;
  s.cluster.nodes_per_cluster = 4;
  s.num_nodes = s.cluster.total_nodes();
  s.duration_s = 30.0;
  s.seed = 61;
  s.phy.radio_range_m = 50.0;
  s.phy.packet_error_rate = 0.0;
  s.preestablished_reference = true;
  s.sstsp.chain_length = 600;
  const int k = s.cluster.nodes_per_cluster;

  run::Network net(s);
  net.arm();
  net.run_until(15.0);
  // The whole chain is one timescale first.
  for (std::size_t i = 0; i < net.station_count(); ++i) {
    ASSERT_TRUE(proto_of(net, i).is_synchronized()) << i;
  }

  // Sever the chain: cluster 2's gateway dies, so clusters 2-4 lose their
  // only translation path to the root.
  const auto cut = static_cast<std::size_t>(2 * k);
  ASSERT_TRUE(proto_of(net, cut).gateway());
  net.station(cut).power_off();

  // Detachment cascades down the chain one staleness horizon per gateway
  // hop; past the deepest one, check both islands every 0.5 s.
  const double settle_s = 15.0 + (s.cluster.clusters - 1) *
                                     s.cluster.tau_stale_bps *
                                     s.phy.beacon_period.to_sec();
  for (double t = settle_s; t <= s.duration_s; t += 0.5) {
    net.run_until(t);
    for (std::size_t i = 0; i < 2 * static_cast<std::size_t>(k); ++i) {
      ASSERT_TRUE(proto_of(net, i).is_synchronized()) << i << " at " << t;
    }
    for (std::size_t i = cut + 1; i < net.station_count(); ++i) {
      ASSERT_FALSE(proto_of(net, i).attached()) << i << " at " << t;
    }
  }
  // Detached clusters leave the spread metric, so from here on it is the
  // upstream island's, and it keeps the network's cross-cluster bound.
  const auto island_us =
      net.cluster_spread_series().max_in(settle_s, s.duration_s);
  ASSERT_TRUE(island_us.has_value());
  EXPECT_LT(*island_us, s.cluster.cross_cluster_bound_us());
}

// Two clusters on the chain layout; cluster 1 boots with TWO members
// holding the reference role — two timelines inside one broadcast domain.
struct ClusterDuelNet {
  sim::Simulator sim{97};
  mac::PhyParams phy;
  ClusterSpec spec;
  std::unique_ptr<mac::Channel> channel;
  core::KeyDirectory directory;
  core::SstspConfig cfg;
  std::vector<std::unique_ptr<proto::Station>> stations;
  std::vector<ClusterSstsp*> protos;
  bool armed = false;

  ClusterDuelNet() {
    phy.packet_error_rate = 0.0;
    phy.radio_range_m = 50.0;
    spec.clusters = 2;
    spec.nodes_per_cluster = 4;
    cfg.chain_length = 400;
    channel = std::make_unique<mac::Channel>(sim, phy);
    sim::Rng rng(97);
    for (int i = 0; i < spec.total_nodes(); ++i) {
      const auto id = static_cast<mac::NodeId>(i);
      auto st = std::make_unique<proto::Station>(
          sim, *channel, id,
          clk::HardwareClock(clk::DriftModel::uniform(rng),
                             rng.uniform(-40.0, 40.0)),
          position_of(id));
      directory.register_node(
          id, crypto::ChainParams{crypto::derive_seed(97, id),
                                  cfg.chain_length});
      ClusterSstsp::Options opts;
      opts.spec = spec;
      opts.cluster = cluster_of(spec, id);
      opts.gateway = is_gateway(spec, id);
      // The duel: both 5 and 6 claim cluster 1's reference role at boot.
      opts.start_as_reference = (i == 0 || i == 5 || i == 6);
      auto proto = std::make_unique<ClusterSstsp>(*st, cfg, directory, opts);
      protos.push_back(proto.get());
      st->set_protocol(std::move(proto));
      stations.push_back(std::move(st));
    }
  }

  [[nodiscard]] mac::Position position_of(mac::NodeId id) const {
    if (is_gateway(spec, id)) return gateway_position(spec, id);
    const mac::Position center = cluster_center(spec, cluster_of(spec, id));
    return {center.x_m + 3.0 * member_index(spec, id), center.y_m};
  }

  void run(double until_s) {
    if (!armed) {
      armed = true;
      for (auto& st : stations) st->power_on();
    }
    sim.run_until(sim::SimTime::from_sec_double(until_s));
  }
};

TEST(ClusterPartition, CrossTimelineRuleRStopsAtTheGatewayBoundary) {
  ClusterDuelNet net;
  net.run(20.0);

  // RULE R inside cluster 1: the duel collapses to exactly one reference
  // (the loser demotes on hearing the survivor's authenticated beacon).
  int cluster1_refs = 0;
  for (int i = 5; i <= 7; ++i) {
    if (net.protos[static_cast<std::size_t>(i)]->is_reference()) {
      ++cluster1_refs;
    }
  }
  EXPECT_EQ(cluster1_refs, 1);
  EXPECT_GE(net.protos[5]->stats().demotions + net.protos[6]->stats().demotions,
            1u);

  // The duel never crosses the boundary: beacons of both contenders are
  // domain-1 traffic, so cluster 0's reference is untouched even though it
  // sits inside radio range of the bridge plane.
  EXPECT_TRUE(net.protos[0]->is_reference());
  EXPECT_EQ(net.protos[0]->stats().demotions, 0u);
  // The gateway stays a follower in both planes throughout.
  EXPECT_FALSE(net.protos[4]->is_reference());

  // With the duel resolved the bridge carries one timescale: every node is
  // attached and the network-wide reading is tight across the boundary.
  double lo = 1e18;
  double hi = -1e18;
  for (std::size_t i = 0; i < net.protos.size(); ++i) {
    ASSERT_TRUE(net.protos[i]->is_synchronized()) << i;
    const double v = net.protos[i]->network_time_us(net.sim.now());
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_LT(hi - lo, 50.0);
}

}  // namespace
}  // namespace sstsp::cluster
