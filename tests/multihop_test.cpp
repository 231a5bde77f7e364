// Multi-hop SSTSP on the cluster hierarchy (src/cluster/): chains of
// broadcast-domain clusters built through run::Network, bridged by gateway
// tau announcements over a range-limited radio.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/sstsp_cluster.h"
#include "runner/experiment.h"
#include "runner/network.h"

namespace sstsp::cluster {
namespace {

/// A chain of `clusters` four-node broadcast domains, root reference
/// preestablished, loss-free 50 m radio (each gateway hears only its two
/// adjacent clusters).
run::Scenario chain(int clusters, double duration_s, std::uint64_t seed) {
  run::Scenario s;
  s.cluster.clusters = clusters;
  s.cluster.nodes_per_cluster = 4;
  s.num_nodes = s.cluster.total_nodes();
  s.duration_s = duration_s;
  s.seed = seed;
  s.phy.radio_range_m = 50.0;
  s.phy.packet_error_rate = 0.0;
  s.preestablished_reference = true;
  s.sstsp.chain_length = 600;
  return s;
}

// Cluster scenarios run ClusterSstsp on every station (no attackers), so
// the downcast is total.
const ClusterSstsp& proto_of(run::Network& net, std::size_t i) {
  return static_cast<const ClusterSstsp&>(net.station(i).protocol());
}

/// Index of the awake station holding cluster `c`'s reference role.
std::optional<std::size_t> reference_of(run::Network& net, int c) {
  for (std::size_t i = 0; i < net.station_count(); ++i) {
    if (net.station(i).awake() && proto_of(net, i).cluster() == c &&
        proto_of(net, i).is_reference()) {
      return i;
    }
  }
  return std::nullopt;
}

TEST(MultiHop, LineTopologySynchronizesEndToEnd) {
  const run::Scenario s = chain(6, 20.0, 5);
  run::Network net(s);
  net.run();
  for (std::size_t i = 0; i < net.station_count(); ++i) {
    EXPECT_TRUE(proto_of(net, i).attached()) << i;
    EXPECT_TRUE(proto_of(net, i).is_synchronized()) << i;
  }
  // Depth is the gateway-hop distance along the chain, and each gateway's
  // uplink follows its parent cluster's reference.
  for (int c = 1; c < s.cluster.clusters; ++c) {
    const auto gw = static_cast<std::size_t>(c * s.cluster.nodes_per_cluster);
    const ClusterSstsp& cs = proto_of(net, gw);
    ASSERT_TRUE(cs.gateway()) << c;
    EXPECT_EQ(cs.depth(), c);
    const auto parent_ref = reference_of(net, c - 1);
    ASSERT_TRUE(parent_ref.has_value()) << c;
    ASSERT_NE(cs.uplink(), nullptr) << c;
    EXPECT_EQ(cs.uplink()->current_reference(),
              static_cast<mac::NodeId>(*parent_ref))
        << c;
  }
}

TEST(MultiHop, ErrorGrowsWithHopCount) {
  // Each gateway hop adds its own translation error.
  const run::RunResult short_chain = run::run_scenario(chain(2, 30.0, 6));
  const run::RunResult long_chain = run::run_scenario(chain(7, 30.0, 6));
  ASSERT_TRUE(short_chain.cluster_steady_max_us.has_value());
  ASSERT_TRUE(long_chain.cluster_steady_max_us.has_value());
  EXPECT_GT(*long_chain.cluster_steady_max_us,
            *short_chain.cluster_steady_max_us);
}

TEST(MultiHop, SingleCellBehavesLikeSingleHop) {
  // One cluster is plain single-domain SSTSP: no gateways, no translation.
  run::Scenario s = chain(1, 15.0, 7);
  s.cluster.nodes_per_cluster = 12;
  s.num_nodes = s.cluster.total_nodes();
  run::Network net(s);
  net.run();
  for (std::size_t i = 0; i < net.station_count(); ++i) {
    EXPECT_TRUE(proto_of(net, i).is_synchronized()) << i;
    EXPECT_FALSE(proto_of(net, i).gateway()) << i;
  }
  const auto spread = net.instant_max_diff_us();
  ASSERT_TRUE(spread.has_value());
  EXPECT_LT(*spread, 25.0);
}

TEST(MultiHop, RelaysOnlyForwardFreshTime) {
  // The whole root cluster powers off: cluster 1's gateway must stop
  // announcing within the staleness horizon (stale time is never relayed)
  // and the subtree below it must detach instead of following a dead
  // timescale.
  const run::Scenario s = chain(4, 40.0, 8);
  const int k = s.cluster.nodes_per_cluster;
  const auto gw = static_cast<std::size_t>(k);
  run::Network net(s);
  net.arm();
  net.run_until(20.0);
  for (std::size_t i = 0; i < net.station_count(); ++i) {
    ASSERT_TRUE(proto_of(net, i).is_synchronized()) << i;
  }
  for (int i = 0; i < k; ++i) {
    net.station(static_cast<std::size_t>(i)).power_off();
  }
  const GatewayBridge* bridge = proto_of(net, gw).bridge();
  ASSERT_NE(bridge, nullptr);
  const std::uint64_t sent_before = bridge->announcements();

  const double bp_s = s.phy.beacon_period.to_sec();
  net.run_until(20.0 + (s.cluster.tau_stale_bps + 2) * bp_s);
  const std::uint64_t sent_after = bridge->announcements();
  EXPECT_LE(sent_after - sent_before,
            static_cast<std::uint64_t>(s.cluster.tau_stale_bps));
  net.run_until(25.0);
  EXPECT_EQ(bridge->announcements(), sent_after);
  for (std::size_t i = gw; i < net.station_count(); ++i) {
    EXPECT_FALSE(proto_of(net, i).attached()) << i;
    EXPECT_FALSE(proto_of(net, i).is_synchronized()) << i;
  }
}

TEST(MultiHop, LevelStaggeredTakeoverAfterReferenceLoss) {
  // The root reference powers off: one surviving root member takes the
  // role and the whole chain re-attaches to the rebuilt root timescale.
  const run::Scenario s = chain(4, 40.0, 9);
  run::Network net(s);
  net.arm();
  net.run_until(15.0);
  ASSERT_TRUE(proto_of(net, 0).is_reference());
  net.station(0).power_off();
  net.run_until(s.duration_s);

  int root_refs = 0;
  for (int i = 1; i < s.cluster.nodes_per_cluster; ++i) {
    if (proto_of(net, static_cast<std::size_t>(i)).is_reference()) ++root_refs;
  }
  EXPECT_EQ(root_refs, 1);
  for (std::size_t i = 1; i < net.station_count(); ++i) {
    EXPECT_TRUE(proto_of(net, i).is_synchronized()) << i;
  }
  ASSERT_FALSE(net.cluster_spread_series().empty());
  EXPECT_LT(net.cluster_spread_series().points().back().value_us,
            s.cluster.cross_cluster_bound_us());
}

TEST(MultiHop, BeaconsArePerHopAuthenticated) {
  // Every hop is authenticated against the sender's own hash chain: an
  // honest chain rejects nothing, and every non-root member accepts
  // bridged samples from its gateway.
  const run::Scenario s = chain(4, 15.0, 10);
  run::Network net(s);
  net.run();
  for (std::size_t i = 0; i < net.station_count(); ++i) {
    const ClusterSstsp& cs = proto_of(net, i);
    EXPECT_EQ(cs.stats().rejected_key, 0u) << i;
    EXPECT_EQ(cs.stats().rejected_mac, 0u) << i;
    if (cs.cluster() > 0 && !cs.gateway()) {
      ASSERT_NE(cs.home_tau(), nullptr) << i;
      EXPECT_GT(cs.home_tau()->samples_accepted(), 0u) << i;
    }
  }
}

TEST(MultiHop, AdjustedClocksNeverLeap) {
  const run::Scenario s = chain(3, 15.0, 11);
  run::Network net(s);
  net.arm();
  const std::size_t n = net.station_count();
  std::vector<double> prev_member(n, -1e18);
  std::vector<double> prev_network(n, -1e18);
  for (int step = 1; step <= 1500; ++step) {
    net.run_until(0.01 * step);
    const sim::SimTime now = net.simulator().now();
    for (std::size_t i = 0; i < n; ++i) {
      const ClusterSstsp& cs = proto_of(net, i);
      const double member = cs.member().adjusted().read_us(now);
      if (prev_member[i] > -1e17) {
        ASSERT_GT(member, prev_member[i]) << "station " << i;
        ASSERT_LT(member - prev_member[i], 10'200.0) << "station " << i;
      }
      prev_member[i] = member;
      if (!cs.attached()) {
        prev_network[i] = -1e18;
        continue;
      }
      const double network = cs.network_time_us(now);
      if (prev_network[i] > -1e17) {
        ASSERT_GT(network, prev_network[i]) << "station " << i;
        ASSERT_LT(network - prev_network[i], 10'200.0) << "station " << i;
      }
      prev_network[i] = network;
    }
  }
}

}  // namespace
}  // namespace sstsp::cluster
