// ABL-MULTIHOP — the paper's §6 future work, quantified on the hierarchical
// cluster layer (src/cluster/): synchronization error vs gateway hop count
// for a chain of broadcast-domain clusters, each running the unmodified
// single-domain SSTSP and bridged by gateway tau announcements.
//
// Expected shape: per-hop error accumulation — the inter-cluster offset
// grows roughly linearly in the gateway depth (independent per-hop
// translation noise, bound hop_bound_us x depth), while each cluster's
// internal sync stays at the single-hop level.
#include <algorithm>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "runner/sweep.h"

namespace {

using namespace sstsp;

constexpr int kHops[] = {1, 2, 4, 6};
/// Seed 2006 is the reported run; the rest only feed the worst-case column.
constexpr std::uint64_t kSeeds[] = {2006, 1, 2, 3, 4};
constexpr std::size_t kSeedCount = std::size(kSeeds);

run::Scenario chain_scenario(int hops, std::uint64_t seed) {
  run::Scenario s;
  s.cluster.clusters = hops + 1;
  s.cluster.nodes_per_cluster = 8;
  s.num_nodes = s.cluster.total_nodes();
  s.duration_s = 90.0;
  s.seed = seed;
  s.phy.radio_range_m = 50.0;
  s.preestablished_reference = true;
  s.sstsp.chain_length = 1000;
  s.monitor = true;
  return s;
}

std::string fmt_opt(const std::optional<double>& v) {
  return v ? metrics::fmt(*v, 2) : std::string("n/a");
}

}  // namespace

int main() {
  using namespace sstsp;
  bench::banner("ABL-MULTIHOP",
                "Multi-hop SSTSP via hierarchical clusters: error vs "
                "gateway depth (chain of broadcast domains)",
                "per-hop error accumulation; each cluster's internal sync "
                "stays at the single-hop level");

  std::vector<run::Scenario> scenarios;
  for (const int hops : kHops) {
    for (const std::uint64_t seed : kSeeds) {
      scenarios.push_back(chain_scenario(hops, seed));
    }
  }
  const std::vector<run::RunResult> results = run::run_sweep(scenarios);

  bench::JsonReport report("abl_multihop");
  metrics::TextTable table({"gw hops", "inter-cluster max (us)",
                            "worst of 5 seeds (us)", "bound (us)",
                            "steady max (us)", "attach", "audit"});
  // Rows stop at depth 6: each gateway announces a fit of its parent's
  // already-extrapolated signal, so the per-hop noise compounds and an
  // 8-hop chain overshoots the linear extrapolation of the bound roughly 2x
  // (DESIGN.md §13).  The worst-of-seeds column shows where the linear
  // model already fails at shallower depths.
  for (std::size_t h = 0; h < std::size(kHops); ++h) {
    const run::Scenario& s = scenarios[h * kSeedCount];
    const run::RunResult& r = results[h * kSeedCount];
    report.add_run("hops" + std::to_string(kHops[h]), s, r);

    std::optional<double> worst;
    for (std::size_t k = 0; k < kSeedCount; ++k) {
      const auto& v = results[h * kSeedCount + k].cluster_steady_max_us;
      if (v) worst = std::max(worst.value_or(*v), *v);
    }
    if (worst) {
      report.add_values("hops" + std::to_string(kHops[h]) + "-worst",
                        {{"inter_cluster_max_us", *worst}});
    }

    const double attach = r.attach_fraction.empty()
                              ? 0.0
                              : r.attach_fraction.points().back().value_us;
    const bool audit_ok = r.audit && r.audit->critical_count() == 0;
    table.add_row({std::to_string(kHops[h]), fmt_opt(r.cluster_steady_max_us),
                   fmt_opt(worst),
                   metrics::fmt(s.cluster.cross_cluster_bound_us(), 0),
                   fmt_opt(r.steady_max_us), metrics::fmt(attach, 2),
                   audit_ok ? "clean" : "VIOLATIONS"});
  }
  table.print(std::cout);
  std::cout << "(inter-cluster max = steady max-min spread of per-cluster "
               "mean global readings, seed 2006;\n worst = the largest "
               "over seeds 2006, 1, 2, 3, 4; bound = hop_bound_us x gateway "
               "depth,\n the cross-cluster Lemma-1 analogue)\n";
  report.write();
  return 0;
}
