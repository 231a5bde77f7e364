#include "runner/network.h"

#include <algorithm>
#include <stdexcept>

#include "cluster/sstsp_cluster.h"
#include "crypto/hash_chain.h"

namespace sstsp::run {

namespace {

/// Rejects cluster layouts the runner cannot build.  Runs before any member
/// construction, so no observer output file is opened for them.
const Scenario& validated(const Scenario& scenario) {
  if (scenario.cluster.enabled()) {
    const auto& c = scenario.cluster;
    if (scenario.protocol != ProtocolKind::kSstsp) {
      throw std::runtime_error("cluster scenarios require the SSTSP protocol");
    }
    if (!scenario.attack.empty()) {
      throw std::runtime_error(
          "cluster scenarios do not support attacker stations");
    }
    if (scenario.num_nodes != c.total_nodes()) {
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
    const double range = scenario.phy.radio_range_m;
    if (range > 0.0 &&
        (2.0 * c.radius_m > range || c.spacing_m / 2.0 + c.radius_m > range ||
         c.spacing_m > range)) {
      throw std::runtime_error(
          "cluster geometry violates the radio-range contract "
          "(need 2*radius, spacing/2 + radius and spacing <= range)");
    }
  }
  return scenario;
}

}  // namespace

Network::Network(const Scenario& scenario)
    : scenario_(validated(scenario)),
      sim_(scenario.seed),
      channel_(sim_, scenario.phy),
      observers_(scenario_, sim_),
      harness_(scenario_, sim_, observers_) {
  observers_.hook(sim_);
  channel_.set_instruments(observers_.instruments());
  channel_.set_profiler(observers_.profiler());
  channel_.set_fault_injector(observers_.injector());
  build_stations();
  if (scenario_.cluster.enabled()) {
    harness_.set_extra_sampler(
        [this](sim::SimTime now) { sample_cluster(now); });
  }
}

void Network::build_stations() {
  const std::vector<NodeDraw> draws = draw_nodes(scenario_, sim_);
  for (std::size_t i = 0; i < draws.size(); ++i) {
    const auto id = static_cast<mac::NodeId>(i);
    const NodeDraw& d = draws[i];
    stations_.push_back(std::make_unique<proto::Station>(
        sim_, channel_, id, clk::HardwareClock(d.drift, d.offset_us), d.pos));
    if (scenario_.protocol == ProtocolKind::kSstsp) {
      // Every node (including the internal attacker) owns a published
      // chain; see core/key_directory.h for the trust-bootstrap model.
      directory_.register_node(
          id, crypto::ChainParams{crypto::derive_seed(scenario_.seed, id),
                                  scenario_.sstsp.chain_length});
    }
  }
  std::vector<proto::Station*> all;
  for (auto& st : stations_) {
    st->set_protocol(make_protocol(scenario_, *st, directory_));
    all.push_back(st.get());
  }
  for (auto& st : stations_) st->attach(observers_.attachment());
  harness_.set_stations(std::move(all),
                        static_cast<std::size_t>(scenario_.num_nodes));
}

void Network::arm() {
  if (armed_) return;
  armed_ = true;
  for (auto& st : stations_) st->power_on();
  harness_.arm();
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
    if (auto* monitor = observers_.monitor()) {
      monitor->on_cluster_spread_sample(now, spread);
    }
  }
  const double fraction =
      awake > 0 ? static_cast<double>(attached) / static_cast<double>(awake)
                : 0.0;
  attach_fraction_.push(now.to_sec(), fraction);
  if (auto* recovery = observers_.recovery()) {
    recovery->on_cluster_attach_sample(now.to_sec(), fraction);
  }
}

void Network::run() { run_until(scenario_.duration_s); }

void Network::run_until(double horizon_s) {
  arm();
  sim_.run_until(sim::SimTime::from_sec_double(horizon_s));
}

}  // namespace sstsp::run
