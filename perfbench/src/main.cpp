// perfbench: the repository benchmark's executable.
//
//   perfbench --workload NAME|all --seed N --seconds S --trace 0|1
//             --out-dir DIR
//
// --trace 0 times untraced repeats of the workload for S seconds and
// reports the end-to-end metrics (medians over the repeats).  --trace 1
// runs one untraced repeat and one traced repeat (profiler and metrics
// collection on, the span cut into 1-simulated-second run_until slices)
// and reports the per-layer metrics.  Every repeat's protocol outcome is
// checked, and every repeat must reproduce the first one's simulated
// fingerprint exactly.  The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// It uses only the simulator's public API; the spans it records
// are its own, around the calls into each layer, and are written to
// DIR/<workload>.seed<N>.spans.json when the traced run ends.
#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "host.h"
#include "metrics.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/provenance.h"
#include "runner/json_report.h"
#include "runner/network.h"
#include "runner/parallel_network.h"
#include "workloads.h"

namespace {

using namespace perfbench;
namespace run = sstsp::run;

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0.0};
  bool trace{false};
  std::string out_dir;
};

/// The simulated outcome of a run; a speed-only change leaves it identical.
struct Fingerprint {
  std::uint64_t events{0};
  std::uint64_t deliveries{0};
  std::uint64_t transmissions{0};
  std::uint64_t collided{0};
  std::uint64_t adjustments{0};
  std::uint64_t elections{0};
  std::uint64_t rejects{0};
  std::optional<double> steady_max_us;

  bool operator==(const Fingerprint&) const = default;

  [[nodiscard]] std::string str() const {
    std::ostringstream os;
    os << "events=" << events << " deliveries=" << deliveries
       << " transmissions=" << transmissions << " collided=" << collided
       << " adjustments=" << adjustments << " elections=" << elections
       << " rejects=" << rejects << " steady_max_us=";
    if (steady_max_us) {
      os << std::setprecision(17) << *steady_max_us;
    } else {
      os << "none";
    }
    return os.str();
  }
};

Fingerprint fingerprint(const run::RunResult& r) {
  const auto& h = r.honest;
  return {r.events_processed,
          r.channel.deliveries,
          r.channel.transmissions,
          r.channel.collided_transmissions,
          h.adjustments,
          h.elections_won,
          h.rejected_interval + h.rejected_key + h.rejected_mac +
              h.rejected_guard,
          r.steady_max_us};
}

struct SpanRecord {
  std::string name;
  int parent{-1};
  std::uint64_t start_ns{0};
  std::uint64_t end_ns{0};
  double sim_end_s{-1.0};                     ///< slices only
  std::optional<obs::ProfileSnapshot> phases;  ///< profile delta over span
};

struct Repeat {
  int threads{0};
  double setup_s{0.0};
  double run_wall_s{0.0};
  double run_cpu_s{0.0};
  double peak_rss_kb{0.0};
  run::RunResult result;
  std::vector<std::string> failures;
  std::vector<double> slice_wall_ms;
  std::optional<StreamStats> jsonl;
  std::optional<std::uint64_t> telemetry_lines;
  std::vector<SpanRecord> spans;
};

double secs(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

obs::ProfileSnapshot minus(const obs::ProfileSnapshot& a,
                           const obs::ProfileSnapshot& b) {
  obs::ProfileSnapshot d;
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    d.phases[i].exclusive_ns =
        a.phases[i].exclusive_ns - b.phases[i].exclusive_ns;
    d.phases[i].spans = a.phases[i].spans - b.phases[i].spans;
  }
  d.total_ns = a.total_ns - b.total_ns;
  d.events = a.events - b.events;
  d.wall_seconds = a.wall_seconds - b.wall_seconds;
  return d;
}

/// Checks that every line of `path` is a JSON object and returns the line
/// count, or the reason it is not a well-formed stream.
std::optional<std::string> parse_jsonl(const std::string& path,
                                       std::uint64_t* lines,
                                       std::string* last_type) {
  std::ifstream in(path);
  if (!in) return "cannot read " + path;
  std::string line;
  *lines = 0;
  while (std::getline(in, line)) {
    ++*lines;
    const auto v = obs::json::parse(line);
    if (!v || !v->is_object()) {
      return path + ": line " + std::to_string(*lines) + " does not parse";
    }
    const auto* type = v->find("type");
    *last_type = type != nullptr && type->is_string() ? type->string : "";
  }
  return std::nullopt;
}

/// Runs the span on the serial kernel; traced runs cut it into
/// 1-simulated-second run_until slices.
void run_serial(const run::Scenario& s, const Workload& w,
                const Options& o, bool traced, Repeat& rep) {
  const std::string jsonl_path =
      o.out_dir + "/" + std::string(w.name) + ".events.jsonl";
  std::filebuf file;
  std::optional<CountingBuf> counting;
  std::ostream jsonl(nullptr);
  if (w.jsonl_export) {
    if (file.open(jsonl_path, std::ios::out | std::ios::trunc) == nullptr) {
      throw std::runtime_error("cannot open " + jsonl_path);
    }
    if (traced) {
      counting.emplace(file);
      jsonl.rdbuf(&*counting);
    } else {
      jsonl.rdbuf(&file);
    }
  }

  const std::uint64_t t0 = now_ns();
  run::Network net(s);
  const std::uint64_t t1 = now_ns();
  if (w.jsonl_export) obs::attach_jsonl_sink(*net.trace(), jsonl);
  net.arm();
  const std::uint64_t t2 = now_ns();
  const double cpu0 = process_cpu_s();
  std::vector<SpanRecord> slices;
  if (traced) {
    const auto snap = [&net] {
      return net.profiler()->snapshot(net.simulator().events_processed(),
                                      0.0);
    };
    obs::ProfileSnapshot prev = snap();
    for (double end = 1.0;; end += 1.0) {
      const double horizon = std::min(end, s.duration_s);
      const std::uint64_t a = now_ns();
      net.run_until(horizon);
      const std::uint64_t b = now_ns();
      obs::ProfileSnapshot cur = snap();
      obs::ProfileSnapshot delta = minus(cur, prev);
      delta.wall_seconds = secs(b - a);
      prev = cur;
      rep.slice_wall_ms.push_back(static_cast<double>(b - a) * 1e-6);
      slices.push_back({"run_until", 0, a, b, horizon, delta});
      if (horizon >= s.duration_s) break;
    }
  } else {
    net.run();
  }
  const std::uint64_t t3 = now_ns();
  rep.run_cpu_s = process_cpu_s() - cpu0;
  rep.result = run::collect_result(net, secs(t3 - t2));
  const std::uint64_t t4 = now_ns();
  rep.setup_s = secs(t2 - t0);
  rep.run_wall_s = secs(t3 - t2);
  rep.peak_rss_kb = peak_rss_kb();

  if (w.jsonl_export) {
    net.trace()->set_sink({});
    run::write_summary_jsonl(jsonl, s, rep.result);
    jsonl.flush();
    if (!jsonl) rep.failures.push_back("JSONL stream write failed");
    if (counting) rep.jsonl = counting->stats();
    file.close();
    std::uint64_t lines = 0;
    std::string last_type;
    if (auto bad = parse_jsonl(jsonl_path, &lines, &last_type)) {
      rep.failures.push_back(*bad);
    } else if (lines != net.trace()->total_recorded() + 1 ||
               last_type != "summary") {
      rep.failures.push_back(
          "JSONL stream has " + std::to_string(lines) + " lines for " +
          std::to_string(net.trace()->total_recorded()) +
          " trace events, or no closing summary record");
    }
  }
  if (traced) {
    rep.spans.push_back({"workload", -1, t0, t4, -1.0, std::nullopt});
    rep.spans.push_back({"construct", 0, t0, t1, -1.0, std::nullopt});
    rep.spans.push_back({"arm", 0, t1, t2, -1.0, std::nullopt});
    for (auto& sl : slices) rep.spans.push_back(std::move(sl));
    rep.spans.push_back({"collect_result", 0, t3, t4, -1.0, std::nullopt});
  }
}

/// Runs the span on the sharded kernel, which arms inside run().
void run_sharded(const run::Scenario& s, bool traced, Repeat& rep) {
  const std::uint64_t t0 = now_ns();
  run::ParallelNetwork net(s);
  const std::uint64_t t1 = now_ns();
  const double cpu0 = process_cpu_s();
  net.run();
  const std::uint64_t t2 = now_ns();
  rep.run_cpu_s = process_cpu_s() - cpu0;
  rep.result = run::collect_result(net, secs(t2 - t1));
  const std::uint64_t t3 = now_ns();
  rep.setup_s = secs(t1 - t0);
  rep.run_wall_s = secs(t2 - t1);
  rep.peak_rss_kb = peak_rss_kb();
  if (traced) {
    rep.spans.push_back({"workload", -1, t0, t3, -1.0, std::nullopt});
    rep.spans.push_back({"construct", 0, t0, t1, -1.0, std::nullopt});
    rep.spans.push_back(
        {"run", 0, t1, t2, s.duration_s, rep.result.profile});
    rep.spans.push_back({"collect_result", 0, t2, t3, -1.0, std::nullopt});
  }
}

bool sharded(const run::Scenario& s) { return s.threads > 0 || s.shards > 0; }

Repeat run_repeat(const Workload& w, const Options& o, bool traced,
                  std::optional<int> threads = std::nullopt) {
  run::Scenario s = w.scenario(o.seed, o.out_dir);
  if (traced) {
    s.profile = true;
    s.collect_metrics = true;
  }
  if (threads) s.threads = *threads;
  Repeat rep;
  rep.threads = s.threads;
  reset_rss_peak();
  if (sharded(s)) {
    run_sharded(s, traced, rep);
  } else {
    run_serial(s, w, o, traced, rep);
  }
  if (!s.telemetry_out.empty()) {
    std::uint64_t lines = 0;
    std::string last_type;
    if (auto bad = parse_jsonl(s.telemetry_out, &lines, &last_type)) {
      rep.failures.push_back(*bad);
    } else if (lines == 0) {
      rep.failures.push_back("no telemetry lines");
    }
    rep.telemetry_lines = lines;
  }
  if (auto bad = w.check(rep.result)) rep.failures.push_back(*bad);
  return rep;
}

/// Construction plus arm() only, for extra set-up samples.
double setup_only(const Workload& w, const Options& o) {
  const run::Scenario s = w.scenario(o.seed, o.out_dir);
  const std::uint64_t t0 = now_ns();
  if (sharded(s)) {
    auto net = std::make_unique<run::ParallelNetwork>(s);
    const std::uint64_t t1 = now_ns();
    return secs(t1 - t0);
  }
  auto net = std::make_unique<run::Network>(s);
  net->arm();
  const std::uint64_t t1 = now_ns();
  return secs(t1 - t0);
}

std::string fmt(double v) {
  std::ostringstream os;
  os << std::setprecision(6) << v;
  return os.str();
}

void write_spans(const Workload& w, const Options& o,
                 const std::vector<SpanRecord>& spans,
                 const std::optional<StreamStats>& jsonl) {
  const std::string path = o.out_dir + "/" + std::string(w.name) + ".seed" +
                           std::to_string(o.seed) + ".spans.json";
  std::ofstream os(path);
  obs::json::Writer jw(os);
  jw.begin_object();
  jw.kv("workload", w.name);
  jw.kv("seed", o.seed);
  obs::append_provenance_json(jw);
  jw.key("spans").begin_array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& sp = spans[i];
    jw.begin_object();
    jw.kv("id", static_cast<std::uint64_t>(i));
    jw.kv("parent", sp.parent);
    jw.kv("name", sp.name);
    jw.kv("start_ns", sp.start_ns - spans.front().start_ns);
    jw.kv("end_ns", sp.end_ns - spans.front().start_ns);
    if (sp.sim_end_s >= 0.0) jw.kv("sim_end_s", sp.sim_end_s);
    if (sp.phases) {
      jw.key("profile");
      sp.phases->append_json(jw);
    }
    jw.end_object();
  }
  jw.end_array();
  if (jsonl) {
    jw.key("jsonl_stream").begin_object();
    jw.kv("bytes", jsonl->bytes);
    jw.kv("lines", jsonl->lines);
    jw.kv("flushes", jsonl->flushes);
    jw.kv("write_ns", jsonl->write_ns);
    jw.kv("flush_ns", jsonl->flush_ns);
    jw.end_object();
  }
  jw.end_object();
  os << '\n';
  if (!os) throw std::runtime_error("cannot write " + path);
}

struct WorkloadOutcome {
  bool correct{true};
  int attempted{0};
  int failed{0};
  std::vector<Metric> result_metrics;  ///< what the result line carries
};

WorkloadOutcome run_workload(const Workload& w, const Options& o) {
  const auto& prov = obs::provenance();
  const run::Scenario s = w.scenario(o.seed, o.out_dir);
  std::cout << "== " << w.name << " (seed " << o.seed << ", "
            << (o.trace ? "traced" : "timed") << ") ==\n"
            << "why: " << w.why << '\n'
            << "provenance: git " << prov.git_sha << ", " << prov.compiler
            << ", build " << prov.build_type << ", nproc "
            << std::thread::hardware_concurrency() << ", threads "
            << s.threads << ", shards " << s.shards << '\n';
  if (prov.build_type != "Release") {
    std::cout << "WARNING: not a Release build; host timings are not "
                 "comparable with Release numbers\n";
  }

  WorkloadOutcome out;
  const std::uint64_t start = now_ns();
  const auto elapsed = [start] { return secs(now_ns() - start); };
  std::optional<Fingerprint> reference;
  const auto account = [&](const Repeat& rep, const std::string& label) {
    std::vector<std::string> failures = rep.failures;
    const Fingerprint fp = fingerprint(rep.result);
    if (!reference) {
      reference = fp;
      std::cout << "fingerprint: " << fp.str() << '\n';
    } else if (fp != *reference) {
      failures.push_back("fingerprint differs: " + fp.str());
    }
    ++out.attempted;
    std::cout << label << ": threads " << rep.threads << ", setup "
              << fmt(rep.setup_s) << " s, run " << fmt(rep.run_wall_s)
              << " s wall, " << fmt(rep.run_cpu_s) << " s cpu, peak rss "
              << fmt(rep.peak_rss_kb / 1024.0) << " MiB: "
              << (failures.empty() ? "ok" : "FAILED") << '\n';
    for (const auto& f : failures) std::cout << "  failure: " << f << '\n';
    if (!failures.empty()) ++out.failed;
    std::cout.flush();
  };

  if (!o.trace) {
    // Set-up-only samples come first: they also warm the allocator.  Set-up
    // takes micro- to milliseconds, so up to 31 are made within 15 % of the
    // budget, and never fewer than three.
    std::vector<double> setups;
    do {
      setups.push_back(setup_only(w, o));
    } while (setups.size() < 3 ||
             (setups.size() < 31 &&
              elapsed() + setups.back() <= 0.15 * o.seconds));

    std::vector<double> wall, cpu, rate, rss;
    run::RunResult first;
    double last = 0.0;
    do {
      const std::uint64_t a = now_ns();
      Repeat rep = run_repeat(w, o, false);
      account(rep, "repeat " + std::to_string(wall.size() + 1));
      setups.push_back(rep.setup_s);
      wall.push_back(rep.run_wall_s);
      cpu.push_back(rep.run_cpu_s);
      rate.push_back(static_cast<double>(rep.result.channel.deliveries) /
                     rep.run_wall_s);
      rss.push_back(rep.peak_rss_kb);
      if (wall.size() == 1) first = std::move(rep.result);
      last = secs(now_ns() - a);
    } while (elapsed() + last <= o.seconds);

    TimedSummary t;
    t.setup_s = median(setups);
    t.run_wall_s = median(wall);
    t.run_cpu_s = median(cpu);
    t.deliveries_per_s = median(rate);
    t.peak_rss_mb = median(rss) / 1024.0;
    t.sync_latency_s = first.sync_latency_s;
    t.steady_max_us = first.steady_max_us;
    t.steady_p99_us = first.steady_p99_us;

    const auto metrics = end_to_end_metrics(t);
    std::cout << "end-to-end (median of " << wall.size() << " repeats, "
              << setups.size() << " set-ups):\n";
    for (const Metric& m : metrics) {
      std::cout << "  " << std::left << std::setw(20) << m.name
                << std::setprecision(10) << m.value << ' ' << m.unit << '\n';
    }
    if (!first.sync_latency_s) {
      std::cout << "  sync_latency_s       never synchronized\n";
    }
    std::cout << "  failed_share         " << out.failed << '/'
              << out.attempted << '\n';
    // The host metrics always come first and are always present.
    out.result_metrics.assign(metrics.begin(), metrics.begin() + kHostMetrics);
  } else {
    const Repeat untraced = run_repeat(w, o, false);
    account(untraced, "untraced");
    const Repeat traced = run_repeat(w, o, true);
    account(traced, "traced");
    if (traced.threads > 1) {
      // The sharded kernel's contract: the same realization at any thread
      // count, so a 1-thread traced run must match the timed fingerprint.
      account(run_repeat(w, o, true, 1), "traced, 1 thread");
    }

    TracedRun tr;
    tr.nodes = s.num_nodes;
    tr.threads = traced.threads;
    tr.setup_s = traced.setup_s;
    tr.run_wall_s = traced.run_wall_s;
    tr.untraced_run_wall_s = untraced.run_wall_s;
    tr.peak_rss_kb = traced.peak_rss_kb;
    const run::RunResult& r = traced.result;
    if (r.profile) tr.profile = *r.profile;
    tr.registry = r.metrics;
    tr.channel = r.channel;
    tr.honest = r.honest;
    tr.slice_wall_ms = traced.slice_wall_ms;
    if (r.audit) {
      tr.audit_critical = r.audit->critical_count();
      tr.audit_warning = r.audit->warning_count();
    }
    tr.jsonl = traced.jsonl;
    tr.telemetry_lines = traced.telemetry_lines;
    write_spans(w, o, traced.spans, traced.jsonl);

    const auto metrics = layer_metrics(tr);
    std::cout << "per-layer (traced run; n/a metrics read 0 on the result "
                 "line):\n";
    for (const MetricSpec& spec : layer_catalogue()) {
      const auto it = std::find_if(
          metrics.begin(), metrics.end(),
          [&spec](const Metric& m) { return m.name == spec.name; });
      std::cout << "  " << std::left << std::setw(32) << spec.name;
      if (it == metrics.end()) {
        std::cout << "n/a\n";
        out.result_metrics.push_back(
            {std::string(spec.name), std::string(spec.unit), 0.0});
      } else {
        std::cout << std::setprecision(10) << it->value << ' ' << it->unit
                  << '\n';
        out.result_metrics.push_back(*it);
      }
    }
  }
  out.correct = out.failed == 0;
  std::cout << "outcome: " << (out.correct ? "ok" : "FAILED")
            << " (expected: " << w.expected << ")\n";
  return out;
}

void print_result_line(const WorkloadOutcome& o) {
  obs::json::Writer jw(std::cout);
  jw.begin_object();
  jw.kv("correct", o.correct);
  jw.kv("attempted", o.attempted);
  jw.kv("failed", o.failed);
  jw.key("metrics").begin_object();
  for (const Metric& m : o.result_metrics) {
    jw.key(m.name).begin_object();
    jw.kv("value", m.value);
    jw.kv("unit", m.unit);
    jw.end_object();
  }
  jw.end_object();
  jw.end_object();
  std::cout << std::endl;
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME|all --seed N --seconds S "
               "--trace 0|1 --out-dir DIR\nworkloads:";
  for (const Workload& w : workloads()) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        o.workload = val;
      } else if (key == "--seed") {
        o.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        o.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
        o.trace = val == "1";
      } else if (key == "--out-dir") {
        o.out_dir = val;
      } else {
        return usage(("unknown option " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 != 1) return usage("every option takes one value");
  if (o.workload.empty() || !have_seed || !(o.seconds > 0.0) ||
      o.out_dir.empty()) {
    return usage("--workload, --seed, --seconds and --out-dir are required");
  }

  std::vector<const Workload*> selected;
  if (o.workload == "all") {
    for (const Workload& w : workloads()) selected.push_back(&w);
  } else if (const Workload* w = find_workload(o.workload)) {
    selected.push_back(w);
  } else {
    return usage(("unknown workload " + o.workload).c_str());
  }

  try {
    WorkloadOutcome total;
    for (const Workload* w : selected) {
      WorkloadOutcome one = run_workload(*w, o);
      if (selected.size() == 1) {
        total = std::move(one);
        break;
      }
      print_result_line(one);
      total.correct = total.correct && one.correct;
      total.attempted += one.attempted;
      total.failed += one.failed;
      for (Metric& m : one.result_metrics) {
        m.name = std::string(w->name) + "." + m.name;
        total.result_metrics.push_back(std::move(m));
      }
    }
    print_result_line(total);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
