#include "workloads.h"

#include <array>
#include <cmath>

namespace perfbench {
namespace {

using sstsp::run::ProtocolKind;
using sstsp::run::RunResult;
using sstsp::run::Scenario;

Scenario base(std::uint64_t seed) {
  Scenario s;
  s.protocol = ProtocolKind::kSstsp;
  s.seed = seed;
  // Timed runs carry only the observers the workload is about; the traced
  // run turns metrics collection and the profiler on.
  s.collect_metrics = false;
  return s;
}

const std::array<Workload, 3> kWorkloads{{
    {"ibss-steady",
     "the paper's hot path at its n=500: serial kernel, beacon fan-out, "
     "uTESLA verify and (k,b) solve in one synchronized IBSS",
     [](std::uint64_t seed, const std::string&) {
       Scenario s = base(seed);
       s.num_nodes = 500;
       s.duration_s = 30.0;
       s.sstsp.chain_length = 2200;
       return s;
     },
     false,
     [](const RunResult& r) -> std::optional<std::string> {
       if (!r.sync_latency_s) return "never synchronized";
       if (!r.steady_max_us || *r.steady_max_us >= 20.0) {
         return "steady max not below the paper's 2*eps = 20 us";
       }
       return std::nullopt;
     },
     "synchronizes, steady max < 20 us"},
    {"mesh-coldstart",
     "sharded kernel (8 shards, 2 threads), spatial grid and the "
     "power-on contention storm at n=20000, which ibss-steady bypasses",
     [](std::uint64_t seed, const std::string&) {
       Scenario s = base(seed);
       s.num_nodes = 20000;
       s.duration_s = 2.0;
       s.sstsp.chain_length = 64;
       s.phy.radio_range_m = 25.0;
       s.phy.placement_radius_m = 50.0 * std::sqrt(s.num_nodes / 100.0);
       s.shards = 8;
       s.threads = 2;
       return s;
     },
     false,
     // Not synchronizing within the span is the expected outcome: the
     // bootstrap storm is what this workload measures.
     [](const RunResult&) -> std::optional<std::string> {
       return std::nullopt;
     },
     "bootstrap storm from power-on; not synchronized within the span"},
    {"forensics",
     "observer sinks: monitor, telemetry and a JSONL export of every "
     "protocol event to a file, which dominate this run",
     [](std::uint64_t seed, const std::string& out_dir) {
       Scenario s = base(seed);
       s.num_nodes = 100;
       s.duration_s = 50.0;
       s.monitor = true;
       s.telemetry_out = out_dir + "/forensics.telemetry.jsonl";
       s.trace_capacity = 4096;
       return s;
     },
     // The stream checks run in main.cpp, which owns the files.
     true,
     [](const RunResult&) -> std::optional<std::string> {
       return std::nullopt;
     },
     "one parseable JSONL line per trace event plus the summary record; "
     "every telemetry line parses"},
}};

}  // namespace

std::span<const Workload> workloads() { return kWorkloads; }

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
