// Metric derivation for the repository benchmark.
//
// Everything here is a pure function of values the simulator already
// exposes through its public API (RunResult pieces, profiler and registry
// snapshots) plus the benchmark's own host measurements, so the derivation
// is testable on fixed inputs (tests/metrics_test.cpp).
//
// Rule: a metric that does not apply to a run is omitted, never written
// as 0 or "-".  Which metrics apply is decided by what the run carries:
// an absent optional, an empty slice list or a zero base count.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mac/medium.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "protocols/sync_protocol.h"

namespace perfbench {

namespace obs = sstsp::obs;
namespace mac = sstsp::mac;
namespace proto = sstsp::proto;

struct Metric {
  std::string name;
  std::string unit;
  double value{0.0};
};

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

/// Every metric the derivations below can emit, in emission order; the
/// single source of each metric's unit.  The first kHostMetrics end-to-end
/// entries are host measurements (they go on the result line and carry
/// bounds in BENCHMARK.json); the rest are simulated outcomes, identical
/// for every repeat of one seed, that go in the report.
[[nodiscard]] std::span<const MetricSpec> end_to_end_catalogue();
[[nodiscard]] std::span<const MetricSpec> layer_catalogue();
inline constexpr std::size_t kHostMetrics = 5;

/// Medians of a workload's timed (untraced) repeats, plus the simulated
/// outcome, which is identical across repeats of one seed.
struct TimedSummary {
  double setup_s{0.0};
  double run_wall_s{0.0};
  double run_cpu_s{0.0};
  double deliveries_per_s{0.0};
  double peak_rss_mb{0.0};
  std::optional<double> sync_latency_s;
  std::optional<double> steady_max_us;
  std::optional<double> steady_p99_us;
};

/// End-to-end metrics: host cost first, then the simulated outcome.
[[nodiscard]] std::vector<Metric> end_to_end_metrics(const TimedSummary& s);

/// Byte, line and flush counts of the JSONL event stream, with the host
/// nanoseconds spent inside the stream's write and flush calls.
struct StreamStats {
  std::uint64_t bytes{0};
  std::uint64_t lines{0};
  std::uint64_t flushes{0};
  std::uint64_t write_ns{0};
  std::uint64_t flush_ns{0};
};

/// One traced run (profile and metrics collection on), with the untraced
/// repeat of the same seed it is compared against.
struct TracedRun {
  int nodes{0};
  int threads{0};  ///< 0: serial kernel
  double setup_s{0.0};
  double run_wall_s{0.0};
  double untraced_run_wall_s{0.0};
  double peak_rss_kb{0.0};
  obs::ProfileSnapshot profile;
  obs::RegistrySnapshot registry;
  mac::ChannelStats channel;
  proto::ProtocolStats honest;
  /// Wall time of each 1-simulated-second run_until slice; empty when the
  /// kernel runs the span in one call.
  std::vector<double> slice_wall_ms;
  std::optional<std::uint64_t> audit_critical;
  std::optional<std::uint64_t> audit_warning;
  std::optional<StreamStats> jsonl;
  std::optional<std::uint64_t> telemetry_lines;
};

/// Per-layer metrics of a traced run, grouped by module.
[[nodiscard]] std::vector<Metric> layer_metrics(const TracedRun& r);

/// Median of a non-empty sample (mean of the middle pair when even).
[[nodiscard]] double median(std::vector<double> values);

}  // namespace perfbench
