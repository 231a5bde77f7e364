#include "runner/parallel_network.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "crypto/hash_chain.h"

namespace sstsp::run {

namespace {

[[noreturn]] void reject(const char* what) {
  throw std::runtime_error(std::string("the sharded kernel (--threads) does "
                                       "not support ") +
                           what + " yet; run with --threads 0");
}

/// Validates the scenario and derives the executor geometry.  Runs before
/// any member construction, so unsupported scenarios fail loudly instead
/// of half-building.
sim::ShardExecutor::Options exec_options(const Scenario& s) {
  if (s.monitor) reject("the invariant monitor (--monitor)");
  if (s.cluster.enabled()) reject("cluster scenarios (--clusters)");
  if (!s.faults.empty()) reject("fault plans");
  if (!s.telemetry_out.empty()) reject("telemetry streaming");
  if (!s.flight_recorder_out.empty()) reject("the flight recorder");
  if (s.phase_sampler) reject("the phase sampler");

  sim::ShardExecutor::Options opt;
  opt.threads = std::max(1, s.threads);
  opt.shards = s.shards > 0 ? s.shards : opt.threads;
  opt.lookahead = std::min(s.phy.cca_time, s.phy.rx_latency_min);
  if (!(opt.lookahead > sim::SimTime::zero())) {
    throw std::runtime_error(
        "the sharded kernel needs a positive conservative lookahead: "
        "min(cca_time, rx_latency_min) must be > 0");
  }
  return opt;
}

std::size_t vm_hwm_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %zu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

/// The sampling side observes with instruments only; the trace and the
/// profiler belong to the shards' stations.
Scenario control_scope(Scenario s) {
  s.trace_capacity = 0;
  s.profile = false;
  return s;
}

}  // namespace

ParallelNetwork::ParallelNetwork(const Scenario& scenario)
    : scenario_(scenario),
      exec_(exec_options(scenario), scenario.seed),
      control_observers_(control_scope(scenario_), exec_.control()),
      harness_(scenario_, exec_.control(), control_observers_) {
  const int shards = exec_.shard_count();
  std::vector<sim::Simulator*> sims;
  for (int s = 0; s < shards; ++s) {
    shard_observers_.push_back(
        std::make_unique<ObserverSet>(scenario_, exec_.shard(s)));
    // No queue-depth instruments on the simulators: the histogram would
    // describe per-shard queues and change with the partition, breaking
    // the any-shard-count bit-identity of the metrics snapshot.  Every
    // other instrument records quantities the exactness contract fixes.
    exec_.shard(s).set_profiler(shard_observers_.back()->profiler());
    sims.push_back(&exec_.shard(s));
  }
  if (scenario_.profile) exec_.set_collect_wall_stats(true);
  world_ = std::make_unique<mac::ShardedWorld>(scenario_.phy, std::move(sims));
  build_stations();
}

void ParallelNetwork::build_stations() {
  // Network's draws, from the control simulator's root RNG — same seed,
  // same substreams — so every node gets the position and oscillator it
  // would get on the single-threaded kernel.
  const std::vector<NodeDraw> draws = draw_nodes(scenario_, control());
  const int total = static_cast<int>(draws.size());
  std::vector<mac::Position> positions;
  positions.reserve(draws.size());
  for (const NodeDraw& d : draws) positions.push_back(d.pos);

  world_->partition(positions);
  const int shards = exec_.shard_count();
  for (int s = 0; s < shards; ++s) {
    directories_.push_back(std::make_unique<core::KeyDirectory>());
    world_->channel(s).set_instruments(
        shard_observers_[static_cast<std::size_t>(s)]->instruments());
  }
  if (scenario_.protocol == ProtocolKind::kSstsp) {
    // A shard verifies only frames its stations can hear, so each node's
    // chain goes into exactly the directories of its announce fan-out set
    // (all shards in the single-hop configuration) — memory stays linear
    // in the shard's audible population, not the whole deployment.
    std::vector<int> audible;
    for (int i = 0; i < total; ++i) {
      const auto id = static_cast<mac::NodeId>(i);
      const crypto::ChainParams params{
          crypto::derive_seed(scenario_.seed, id),
          scenario_.sstsp.chain_length};
      world_->audible_shards(positions[static_cast<std::size_t>(i)].x_m,
                             audible);
      for (const int s : audible) {
        directories_[static_cast<std::size_t>(s)]->register_node(id, params);
      }
    }
  }

  std::vector<proto::Station*> all;
  for (int i = 0; i < total; ++i) {
    const auto shard =
        static_cast<std::size_t>(world_->shard_of(static_cast<std::size_t>(i)));
    const NodeDraw& d = draws[static_cast<std::size_t>(i)];
    auto station = std::make_unique<proto::Station>(
        exec_.shard(static_cast<int>(shard)),
        world_->channel(static_cast<int>(shard)), static_cast<mac::NodeId>(i),
        clk::HardwareClock(d.drift, d.offset_us), d.pos);
    station->set_protocol(
        make_protocol(scenario_, *station, *directories_[shard]));
    station->attach(shard_observers_[shard]->attachment());
    all.push_back(station.get());
    stations_.push_back(std::move(station));
  }
  harness_.set_stations(std::move(all),
                        static_cast<std::size_t>(scenario_.num_nodes));
}

void ParallelNetwork::arm() {
  if (armed_) return;
  armed_ = true;
  for (auto& st : stations_) st->power_on();
  harness_.arm();
}

void ParallelNetwork::run() {
  arm();
  exec_.run(
      sim::SimTime::from_sec_double(scenario_.duration_s),
      [this](sim::SimTime end) { world_->exchange(end); },
      [this](int s, sim::SimTime end) {
        // Attribute barrier settlement (interference + delivery fan-out)
        // to the channel-delivery phase, like Channel::finish_transmission.
        obs::Span span(
            shard_observers_[static_cast<std::size_t>(s)]->profiler(),
            obs::Phase::kChannelDelivery);
        world_->settle(s, end);
      },
      [this](sim::SimTime end) { world_->commit(end); });
  if (scenario_.profile) publish_shard_metrics();
}

void ParallelNetwork::publish_shard_metrics() {
  obs::Registry& r = control_observers_.registry();
  r.gauge("shard.count").set(static_cast<double>(exec_.shard_count()));
  r.counter("shard.windows").inc(exec_.windows());
  r.counter("shard.announcements").inc(world_->announcements_total());
  r.gauge("run.peak_rss_kb").set(static_cast<double>(vm_hwm_kb()));
  const sim::ShardWallStats& ws = exec_.wall_stats();
  if (!ws.busy_ns.empty()) {
    r.gauge("shard.imbalance").set(ws.imbalance());
    r.gauge("shard.phase_wall_ns")
        .set(static_cast<double>(ws.phase_wall_ns));
  }
  for (int s = 0; s < exec_.shard_count(); ++s) {
    const std::string prefix = "shard." + std::to_string(s);
    const auto i = static_cast<std::size_t>(s);
    r.counter(prefix + ".events").inc(exec_.shard(s).events_processed());
    r.gauge(prefix + ".stations")
        .set(static_cast<double>(world_->channel(s).station_count()));
    r.gauge(prefix + ".peak_tx_records")
        .set(static_cast<double>(world_->channel(s).peak_tx_records()));
    r.counter(prefix + ".announcements")
        .inc(world_->channel(s).announcements_sent());
    if (!ws.busy_ns.empty()) {
      r.gauge(prefix + ".busy_ns").set(static_cast<double>(ws.busy_ns[i]));
      r.gauge(prefix + ".barrier_wait_ns")
          .set(static_cast<double>(ws.wait_ns[i]));
    }
  }
}

obs::RegistrySnapshot ParallelNetwork::metrics_snapshot() const {
  obs::Registry merged;
  merged.merge_from(control_observers_.registry());
  for (const auto& o : shard_observers_) merged.merge_from(o->registry());
  return merged.snapshot();
}

obs::ProfileSnapshot ParallelNetwork::profile_snapshot(
    double wall_seconds) const {
  obs::ProfileSnapshot snap;
  for (const auto& o : shard_observers_) {
    const obs::Profiler* p = o->profiler();
    if (p == nullptr) continue;
    for (std::size_t ph = 0; ph < obs::kPhaseCount; ++ph) {
      const obs::PhaseStats& st = p->stats(static_cast<obs::Phase>(ph));
      snap.phases[ph].exclusive_ns += st.exclusive_ns;
      snap.phases[ph].spans += st.spans;
      snap.total_ns += st.exclusive_ns;
    }
  }
  snap.events = events_processed();
  snap.wall_seconds = wall_seconds;
  return snap;
}

std::vector<trace::EventTrace*> ParallelNetwork::shard_traces() const {
  std::vector<trace::EventTrace*> traces;
  for (const auto& o : shard_observers_) {
    if (o->trace() != nullptr) traces.push_back(o->trace());
  }
  return traces;
}

std::unique_ptr<trace::EventTrace> ParallelNetwork::merged_trace() const {
  if (scenario_.trace_capacity == 0) return nullptr;
  std::vector<trace::TraceEvent> all;
  for (const trace::EventTrace* t : shard_traces()) {
    const auto events =
        t->select([](const trace::TraceEvent&) { return true; });
    all.insert(all.end(), events.begin(), events.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const trace::TraceEvent& a, const trace::TraceEvent& b) {
                     if (a.time < b.time) return true;
                     if (b.time < a.time) return false;
                     if (a.node != b.node) return a.node < b.node;
                     return static_cast<int>(a.kind) <
                            static_cast<int>(b.kind);
                   });
  auto merged =
      std::make_unique<trace::EventTrace>(scenario_.trace_capacity);
  for (const auto& e : all) merged->record(e);
  return merged;
}

RunResult collect_result(ParallelNetwork& net, double wall_seconds) {
  const Scenario& scenario = net.scenario();
  RunResult result;
  result.max_diff = net.max_diff_series();
  result.channel = net.channel_stats();
  result.honest = net.honest_stats();
  if (const auto* atk = net.attacker_stats()) result.attacker = *atk;
  result.metrics = net.metrics_snapshot();
  result.events_processed = net.events_processed();
  result.wall_seconds = wall_seconds;
  if (scenario.profile) {
    result.profile = net.profile_snapshot(wall_seconds);
  }
  derive_series_stats(result, scenario.duration_s);
  return result;
}

RunResult run_parallel_scenario(const Scenario& scenario) {
  ParallelNetwork net(scenario);
  const auto wall_start = std::chrono::steady_clock::now();
  net.run();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return collect_result(net, wall_seconds);
}

}  // namespace sstsp::run
