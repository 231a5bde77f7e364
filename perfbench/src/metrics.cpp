#include "metrics.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string_view>

namespace perfbench {
namespace {

using obs::Phase;

constexpr auto kEndToEnd = std::to_array<MetricSpec>({
    {"setup_s", "s"},
    {"run_wall_s", "s"},
    {"run_cpu_s", "s"},
    {"deliveries_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
    {"sync_latency_s", "s"},
    {"steady_max_us", "us"},
    {"steady_p99_us", "us"},
});

constexpr auto kLayer = std::to_array<MetricSpec>({
    {"runner.setup_ns_per_node", "ns/node"},
    {"runner.rss_kb_per_node", "KiB/node"},
    {"runner.slice_wall_ms_p50", "ms"},
    {"runner.slice_wall_ms_max", "ms"},
    {"sim.events", "count"},
    {"sim.events_per_delivery", "events/delivery"},
    {"sim.dispatch_ns_per_event", "ns/event"},
    {"sim.dispatch_share", "ratio"},
    {"sim.queue_depth_p50", "count"},
    {"sim.queue_depth_p99", "count"},
    {"sim.shard.windows", "count"},
    {"sim.shard.events_per_window", "events/window"},
    {"sim.shard.barrier_wait_share", "ratio"},
    {"sim.shard.imbalance", "ratio"},
    {"sim.shard.parallel_efficiency", "ratio"},
    {"sim.shard.announcements", "count"},
    {"mac.delivery_ns_per_tx", "ns/tx"},
    {"mac.delivery_ns_per_delivery", "ns/delivery"},
    {"mac.delivery_share", "ratio"},
    {"mac.transmissions", "count"},
    {"mac.deliveries", "count"},
    {"mac.collided_share", "ratio"},
    {"mac.per_drops", "count"},
    {"mac.half_duplex_suppressed", "count"},
    {"crypto.verify_ns_per_rx", "ns/rx"},
    {"crypto.verify_share", "ratio"},
    {"crypto.auth_ok_share", "ratio"},
    {"crypto.rejects", "count"},
    {"core.solve_ns_per_adjustment", "ns/adjustment"},
    {"core.solve_share", "ratio"},
    {"core.adjustments", "count"},
    {"core.elections", "count"},
    {"core.takeovers", "count"},
    {"core.coarse_steps", "count"},
    {"core.guard_reject_share", "ratio"},
    {"core.rx_adjust_share", "ratio"},
    {"obs.jsonl_lines", "count"},
    {"obs.jsonl_bytes", "bytes"},
    {"obs.jsonl_flushes_per_line", "flushes/line"},
    {"obs.jsonl_ns_per_line", "ns/line"},
    {"obs.sink_share", "ratio"},
    {"obs.telemetry_lines", "count"},
    {"obs.audit_critical", "count"},
    {"obs.audit_warning", "count"},
    {"obs.trace_overhead_share", "ratio"},
});

/// Collects metrics in emission order, taking each unit from a catalogue.
class Out {
 public:
  explicit Out(std::span<const MetricSpec> catalogue) : catalogue_(catalogue) {}

  void add(std::string_view name, double value) {
    for (const MetricSpec& spec : catalogue_) {
      if (spec.name == name) {
        metrics_.push_back(
            {std::string(spec.name), std::string(spec.unit), value});
        return;
      }
    }
    throw std::logic_error("metric not in catalogue: " + std::string(name));
  }
  template <typename T>
  void add(std::string_view name, const std::optional<T>& value) {
    if (value) add(name, static_cast<double>(*value));
  }
  /// num / den, omitted when the base count is zero.
  void ratio(std::string_view name, double num, double den) {
    if (den > 0.0) add(name, num / den);
  }
  std::vector<Metric> take() { return std::move(metrics_); }

 private:
  std::span<const MetricSpec> catalogue_;
  std::vector<Metric> metrics_;
};

std::optional<std::uint64_t> counter(const obs::RegistrySnapshot& r,
                                     std::string_view name) {
  for (const auto& [n, v] : r.counters) {
    if (n == name) return v;
  }
  return std::nullopt;
}

std::optional<double> gauge(const obs::RegistrySnapshot& r,
                            std::string_view name) {
  for (const auto& [n, v] : r.gauges) {
    if (n == name) return v;
  }
  return std::nullopt;
}

const obs::HistogramSnapshot* histogram(
    const obs::RegistrySnapshot& r, std::string_view name) {
  for (const auto& [n, h] : r.histograms) {
    if (n == name) return h.count > 0 ? &h : nullptr;
  }
  return nullptr;
}

/// Sum of the per-shard gauges "shard.<i>.<suffix>".
double shard_gauge_sum(const obs::RegistrySnapshot& r,
                       std::string_view suffix) {
  double sum = 0.0;
  for (const auto& [n, v] : r.gauges) {
    const std::string_view name(n);
    if (name.size() > suffix.size() + 6 && name.starts_with("shard.") &&
        name.ends_with(suffix)) {
      sum += v;
    }
  }
  return sum;
}

double phase_ns(const obs::ProfileSnapshot& p, Phase phase) {
  return static_cast<double>(
      p.phases[static_cast<std::size_t>(phase)].exclusive_ns);
}

}  // namespace

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::span<const MetricSpec> end_to_end_catalogue() { return kEndToEnd; }
std::span<const MetricSpec> layer_catalogue() { return kLayer; }

std::vector<Metric> end_to_end_metrics(const TimedSummary& s) {
  Out out(kEndToEnd);
  out.add("setup_s", s.setup_s);
  out.add("run_wall_s", s.run_wall_s);
  out.add("run_cpu_s", s.run_cpu_s);
  out.add("deliveries_per_s", s.deliveries_per_s);
  out.add("peak_rss_mb", s.peak_rss_mb);
  out.add("sync_latency_s", s.sync_latency_s);
  out.add("steady_max_us", s.steady_max_us);
  out.add("steady_p99_us", s.steady_p99_us);
  return out.take();
}

std::vector<Metric> layer_metrics(const TracedRun& r) {
  Out out(kLayer);
  const auto& reg = r.registry;
  const auto& ch = r.channel;
  const auto& h = r.honest;
  const double events = static_cast<double>(r.profile.events);
  const double total_ns = static_cast<double>(r.profile.total_ns);
  const double run_ns = r.run_wall_s * 1e9;

  // runner
  out.ratio("runner.setup_ns_per_node", r.setup_s * 1e9, r.nodes);
  if (r.peak_rss_kb > 0.0) {
    out.ratio("runner.rss_kb_per_node", r.peak_rss_kb, r.nodes);
  }
  if (!r.slice_wall_ms.empty()) {
    out.add("runner.slice_wall_ms_p50", median(r.slice_wall_ms));
    out.add("runner.slice_wall_ms_max",
            *std::max_element(r.slice_wall_ms.begin(), r.slice_wall_ms.end()));
  }

  // sim
  out.add("sim.events", events);
  out.ratio("sim.events_per_delivery", events, ch.deliveries);
  const double dispatch = phase_ns(r.profile, Phase::kDispatch);
  out.ratio("sim.dispatch_ns_per_event", dispatch, events);
  out.ratio("sim.dispatch_share", dispatch, total_ns);
  if (const auto* q = histogram(reg, "sim.event_queue_depth")) {
    out.add("sim.queue_depth_p50", q->p50);
    out.add("sim.queue_depth_p99", q->p99);
  }
  if (const auto windows = counter(reg, "shard.windows")) {
    out.add("sim.shard.windows", *windows);
    out.ratio("sim.shard.events_per_window", events, *windows);
    const auto phase_wall = gauge(reg, "shard.phase_wall_ns");
    if (phase_wall && r.threads > 0) {
      // Thread capacity during the parallel phases, and the part of it
      // the shards spent dispatching; the rest waited at window barriers.
      const double capacity = r.threads * *phase_wall;
      const double busy = shard_gauge_sum(reg, ".busy_ns");
      out.ratio("sim.shard.barrier_wait_share",
                std::max(0.0, capacity - busy), r.threads * run_ns);
      out.add("sim.shard.imbalance", gauge(reg, "shard.imbalance"));
      out.ratio("sim.shard.parallel_efficiency", busy, capacity);
    }
    out.add("sim.shard.announcements", counter(reg, "shard.announcements"));
  }

  // mac
  const double delivery = phase_ns(r.profile, Phase::kChannelDelivery);
  out.ratio("mac.delivery_ns_per_tx", delivery, ch.transmissions);
  out.ratio("mac.delivery_ns_per_delivery", delivery, ch.deliveries);
  out.ratio("mac.delivery_share", delivery, total_ns);
  out.add("mac.transmissions", ch.transmissions);
  out.add("mac.deliveries", ch.deliveries);
  out.ratio("mac.collided_share", ch.collided_transmissions,
            ch.transmissions);
  out.add("mac.per_drops", ch.per_drops);
  out.add("mac.half_duplex_suppressed", ch.half_duplex_suppressed);

  // crypto
  const double verify = phase_ns(r.profile, Phase::kCryptoVerify);
  out.ratio("crypto.verify_ns_per_rx", verify, h.beacons_received);
  out.ratio("crypto.verify_share", verify, total_ns);
  const auto auth_ok = counter(reg, "event.auth-ok");
  const auto beacon_rx = counter(reg, "event.beacon-rx");
  if (auth_ok && beacon_rx) {
    out.ratio("crypto.auth_ok_share", *auth_ok, *beacon_rx);
  }
  out.add("crypto.rejects",
          h.rejected_interval + h.rejected_key + h.rejected_mac);

  // core / filter
  const double solve = phase_ns(r.profile, Phase::kFilterEval);
  out.ratio("core.solve_ns_per_adjustment", solve, h.adjustments);
  out.ratio("core.solve_share", solve, total_ns);
  out.add("core.adjustments", h.adjustments);
  out.add("core.elections", h.elections_won);
  out.add("core.takeovers", counter(reg, "event.takeover"));
  out.add("core.coarse_steps", h.coarse_steps);
  out.ratio("core.guard_reject_share", h.rejected_guard, h.beacons_received);
  out.ratio("core.rx_adjust_share", h.adjustments, h.beacons_received);

  // obs
  if (r.jsonl) {
    const StreamStats& j = *r.jsonl;
    const double sink_ns = static_cast<double>(j.write_ns + j.flush_ns);
    out.add("obs.jsonl_lines", j.lines);
    out.add("obs.jsonl_bytes", j.bytes);
    out.ratio("obs.jsonl_flushes_per_line", j.flushes, j.lines);
    out.ratio("obs.jsonl_ns_per_line", sink_ns, j.lines);
    out.ratio("obs.sink_share", sink_ns, run_ns);
  }
  out.add("obs.telemetry_lines", r.telemetry_lines);
  out.add("obs.audit_critical", r.audit_critical);
  out.add("obs.audit_warning", r.audit_warning);
  out.ratio("obs.trace_overhead_share", r.run_wall_s - r.untraced_run_wall_s,
            r.untraced_run_wall_s);
  return out.take();
}

}  // namespace perfbench
