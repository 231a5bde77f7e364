#include "runner/cli.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <sstream>

#include "attack/adversary.h"
#include "core/discipline.h"
#include "fault/plan.h"
#include "net/node.h"
#include "net/swarm.h"
#include "obs/json.h"

namespace sstsp::run {

namespace {

bool parse_double(const std::string& s, double* out) {
  try {
    std::size_t used = 0;
    *out = std::stod(s, &used);
    return used == s.size();
  } catch (...) {
    return false;
  }
}

bool parse_int(const std::string& s, long long* out) {
  const char* begin = s.data();
  const char* end = begin + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep)) parts.push_back(item);
  return parts;
}

/// Parses `v` into *out when it is an integer in [lo, hi].
template <typename T>
bool integer(const std::string& v, long long lo, long long hi, T* out) {
  long long n = 0;
  if (!parse_int(v, &n) || n < lo || n > hi) return false;
  *out = static_cast<T>(n);
  return true;
}

constexpr long long kMaxInt = std::numeric_limits<long long>::max();

bool any(double) { return true; }
bool positive(double d) { return d > 0; }
bool non_negative(double d) { return d >= 0; }
bool probability(double d) { return d >= 0 && d < 1; }

/// Parses `v` into *out when it is a number that `ok` accepts.
bool real(const std::string& v, double* out, bool (*ok)(double)) {
  double d = 0;
  if (!parse_double(v, &d) || !ok(d)) return false;
  *out = d;
  return true;
}

bool endpoint(const std::string& s, net::UdpEndpoint* out) {
  const auto colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == s.size()) {
    return false;
  }
  if (!integer(s.substr(colon + 1), 1, 65535, &out->port)) return false;
  out->host = s.substr(0, colon);
  return true;
}

std::optional<ProtocolKind> parse_protocol(const std::string& name) {
  if (name == "tsf") return ProtocolKind::kTsf;
  if (name == "atsp") return ProtocolKind::kAtsp;
  if (name == "tatsp") return ProtocolKind::kTatsp;
  if (name == "satsf") return ProtocolKind::kSatsf;
  if (name == "rentel-kunz" || name == "rk") return ProtocolKind::kRentelKunz;
  if (name == "sstsp") return ProtocolKind::kSstsp;
  return std::nullopt;
}

template <typename Names>
std::string join(const Names& names) {
  std::string joined;
  for (const auto& name : names) {
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  return joined;
}

/// The value of one flag and the options it writes into.
struct Arg {
  const std::string& v;
  CliOptions& opts;
  std::string error;  ///< set when "--name needs ..." would say too little

  Scenario& s() { return opts.scenario; }
  LiveOptions& live() { return opts.live; }
  OutputOptions& out() { return opts.output; }
  bool fail(std::string message) {
    error = std::move(message);
    return false;
  }
  /// Makes sure the run records a trace ring of at least `capacity`.
  bool keep_trace(std::size_t capacity) {
    s().trace_capacity = std::max(s().trace_capacity, capacity);
    return true;
  }
};

constexpr unsigned kSim = 1U;
constexpr unsigned kNode = 2U;
constexpr unsigned kSwarm = 4U;
constexpr unsigned kAll = kSim | kNode | kSwarm;

unsigned tool_bit(ConfigTool tool) {
  switch (tool) {
    case ConfigTool::kSim:
      return kSim;
    case ConfigTool::kNode:
      return kNode;
    case ConfigTool::kSwarm:
      return kSwarm;
  }
  return 0;
}

struct Flag {
  std::string_view name;   ///< without "--"; also the config key
  unsigned tools;          ///< kSim | kNode | kSwarm
  std::string_view needs;  ///< "--name needs <needs>"; empty: a bare flag
  bool (*apply)(Arg& a);   ///< false on a bad value
};

// The trace ring sizes: --trace and friends print the newest events, so
// keep plenty; the streaming sinks write at record time, so a modest ring
// suffices for them.
constexpr std::size_t kDumpRing = 1 << 18;
constexpr std::size_t kStreamRing = 1 << 12;

constexpr Flag kFlags[] = {
    // scenario / deployment
    {"protocol", kSim, "a value",
     [](Arg& a) {
       const auto kind = parse_protocol(a.v);
       if (!kind) return a.fail("unknown protocol: " + a.v);
       a.s().protocol = *kind;
       return true;
     }},
    {"nodes", kAll, "a positive integer (max 1000000)",
     [](Arg& a) { return integer(a.v, 1, 1000000, &a.s().num_nodes); }},
    {"duration", kAll, "a positive number of seconds",
     [](Arg& a) { return real(a.v, &a.s().duration_s, positive); }},
    {"seed", kAll, "an integer",
     [](Arg& a) {
       return integer(a.v, std::numeric_limits<long long>::min(), kMaxInt,
                      &a.s().seed);
     }},
    {"paper-env", kSim, "",
     [](Arg& a) {
       a.s().churn = ChurnSpec{};
       a.s().duration_s = 1000.0;
       if (a.s().protocol == ProtocolKind::kSstsp) {
         a.s().reference_departures_s = {300.0, 500.0, 800.0};
       }
       return true;
     }},
    {"threads", kSim, "an integer in [0, 1024]",
     [](Arg& a) { return integer(a.v, 0, 1024, &a.s().threads); }},
    {"shards", kSim, "an integer in [0, 4096]",
     [](Arg& a) { return integer(a.v, 0, 4096, &a.s().shards); }},
    {"radio-range", kSim, "a distance in metres >= 0",
     [](Arg& a) { return real(a.v, &a.s().phy.radio_range_m, non_negative); }},
    {"placement-radius", kSim, "a distance in metres > 0",
     [](Arg& a) {
       return real(a.v, &a.s().phy.placement_radius_m, positive);
     }},
    {"id", kNode, "a non-negative integer",
     [](Arg& a) {
       return integer(a.v, 0, std::numeric_limits<mac::NodeId>::max(),
                      &a.live().id);
     }},
    // protocol parameters
    {"m", kAll, "a positive integer",
     [](Arg& a) { return integer(a.v, 1, kMaxInt, &a.s().sstsp.m); }},
    {"l", kAll, "a positive integer",
     [](Arg& a) { return integer(a.v, 1, kMaxInt, &a.s().sstsp.l); }},
    {"guard", kAll, "a positive value in us",
     [](Arg& a) { return real(a.v, &a.s().sstsp.guard_fine_us, positive); }},
    {"chain-length", kAll, "an integer >= 10",
     [](Arg& a) {
       return integer(a.v, 10, kMaxInt, &a.s().sstsp.chain_length);
     }},
    {"per", kSim, "a probability in [0, 1)",
     [](Arg& a) {
       return real(a.v, &a.s().phy.packet_error_rate, probability);
     }},
    {"preestablished", kSim | kSwarm, "",
     [](Arg& a) { return a.s().preestablished_reference = true; }},
    {"reference", kNode, "",
     [](Arg& a) { return a.live().reference = true; }},
    // clusters (hierarchical multi-domain sync, DESIGN.md §13)
    {"clusters", kSim, "an integer in [0, 127]",
     [](Arg& a) { return integer(a.v, 0, 0x7f, &a.s().cluster.clusters); }},
    {"cluster-nodes", kSim, "an integer >= 2",
     [](Arg& a) {
       return integer(a.v, 2, kMaxInt, &a.s().cluster.nodes_per_cluster);
     }},
    {"cluster-gateways", kSim, "a positive integer",
     [](Arg& a) {
       return integer(a.v, 1, kMaxInt, &a.s().cluster.gateways);
     }},
    {"cluster-spacing", kSim, "a distance in metres > 0",
     [](Arg& a) { return real(a.v, &a.s().cluster.spacing_m, positive); }},
    {"cluster-radius", kSim, "a distance in metres > 0",
     [](Arg& a) { return real(a.v, &a.s().cluster.radius_m, positive); }},
    {"cluster-phase", kSim, "a us value >= 0",
     [](Arg& a) { return real(a.v, &a.s().cluster.phase_us, non_negative); }},
    {"cluster-hop-bound", kSim, "a positive us value",
     [](Arg& a) { return real(a.v, &a.s().cluster.hop_bound_us, positive); }},
    // environment
    {"churn", kSim, "period,fraction,absence",
     [](Arg& a) {
       const auto parts = split(a.v, ',');
       ChurnSpec churn;
       if (parts.size() != 3 || !parse_double(parts[0], &churn.period_s) ||
           !parse_double(parts[1], &churn.fraction) ||
           !parse_double(parts[2], &churn.absence_s)) {
         return false;
       }
       a.s().churn = churn;
       return true;
     }},
    {"departures", kSim, "t1,t2,...",
     [](Arg& a) {
       a.s().reference_departures_s.clear();
       for (const auto& part : split(a.v, ',')) {
         double t = 0;
         if (!parse_double(part, &t)) {
           return a.fail("--departures needs numeric times");
         }
         a.s().reference_departures_s.push_back(t);
       }
       return true;
     }},
    {"sample-period", kSim | kSwarm, "a positive number of seconds",
     [](Arg& a) { return real(a.v, &a.s().sample_period_s, positive); }},
    {"max-drift", kAll, "a ppm value >= 0",
     [](Arg& a) { return real(a.v, &a.s().max_drift_ppm, non_negative); }},
    {"initial-offset", kAll, "a us value >= 0",
     [](Arg& a) {
       return real(a.v, &a.s().initial_offset_us, non_negative);
     }},
    {"drift", kNode, "a value in ppm",
     [](Arg& a) {
       a.live().emulate_clock = false;
       return real(a.v, &a.live().drift_ppm, any);
     }},
    {"offset", kNode, "a value in us",
     [](Arg& a) {
       a.live().emulate_clock = false;
       return real(a.v, &a.live().offset_us, any);
     }},
    // attack + faults
    {"attack", kSim, "a kind",
     [](Arg& a) {
       if (!attack::adversary_known(a.v)) {
         return a.fail("unknown attack: " + a.v + " (known: " +
                       join(attack::adversary_names()) + ")");
       }
       a.s().attack = a.v;
       return true;
     }},
    {"attack-window", kSim, "start,end",
     [](Arg& a) {
       const auto parts = split(a.v, ',');
       double start = 0;
       double end = 0;
       if (parts.size() != 2 || !parse_double(parts[0], &start) ||
           !parse_double(parts[1], &end) || end <= start) {
         return a.fail("--attack-window needs start,end with end > start");
       }
       a.s().tsf_attack.start_s = start;
       a.s().tsf_attack.end_s = end;
       a.s().sstsp_attack.start_s = start;
       a.s().sstsp_attack.end_s = end;
       return true;
     }},
    {"attack-params", kSim, "a JSON object",
     [](Arg& a) {
       if (!obs::json::parse(a.v)) {
         return a.fail("--attack-params is not valid JSON: " + a.v);
       }
       a.s().attack_params_json = a.v;
       return true;
     }},
    {"skew", kSim, "a rate in us/s",
     [](Arg& a) {
       return real(a.v, &a.s().sstsp_attack.skew_rate_us_per_s, any);
     }},
    {"faults", kAll, "a path",
     [](Arg& a) {
       std::string plan_error;
       const auto plan = fault::load_plan(a.v, &plan_error);
       if (!plan) return a.fail(plan_error);
       a.s().faults = *plan;
       return true;
     }},
    {"faults-json", kAll, "JSON text",
     [](Arg& a) {
       std::string plan_error;
       const auto plan = fault::parse_plan_text(a.v, &plan_error);
       if (!plan) return a.fail("--faults-json: " + plan_error);
       a.s().faults = *plan;
       return true;
     }},
    // clock discipline + oscillator stress (DESIGN.md §14)
    {"discipline", kAll, "a name",
     [](Arg& a) {
       if (!core::discipline_known(a.v)) {
         return a.fail("unknown discipline: " + a.v + " (known: " +
                       join(core::discipline_names()) + ")");
       }
       a.s().sstsp.discipline.name = a.v;
       return true;
     }},
    {"discipline-params", kAll, "a JSON object",
     [](Arg& a) {
       const auto parsed = obs::json::parse(a.v);
       if (!parsed) {
         return a.fail("--discipline-params is not valid JSON: " + a.v);
       }
       std::string dsc_error;
       if (!core::apply_discipline_json(*parsed, &a.s().sstsp, &dsc_error)) {
         return a.fail("--discipline-params: " + dsc_error);
       }
       return true;
     }},
    {"clock-model", kSim, "a kind",
     [](Arg& a) {
       const auto kind = clock_model_kind_from_string(a.v);
       if (!kind) {
         return a.fail("unknown clock model: " + a.v +
                       " (known: none, temp-ramp, aging, random-walk)");
       }
       a.s().clock_stress.kind = *kind;
       return true;
     }},
    {"clock-model-params", kSim, "a JSON object",
     [](Arg& a) {
       const auto parsed = obs::json::parse(a.v);
       if (!parsed) {
         return a.fail("--clock-model-params is not valid JSON: " + a.v);
       }
       std::string clk_error;
       if (!apply_clock_model_json(*parsed, &a.s().clock_stress,
                                   &clk_error)) {
         return a.fail("--clock-model-params: " + clk_error);
       }
       return true;
     }},
    // live endpoints / pacing
    {"transport", kSwarm, "udp | loopback",
     [](Arg& a) {
       if (a.v == "udp") {
         a.live().swarm.transport = net::TransportKind::kUdp;
       } else if (a.v == "loopback") {
         a.live().swarm.transport = net::TransportKind::kLoopback;
       } else {
         return a.fail("unknown transport: " + a.v);
       }
       return true;
     }},
    {"bind", kNode | kSwarm, "an address",
     [](Arg& a) {
       a.live().swarm.bind_address = a.v;
       return true;
     }},
    {"port", kNode, "a port number",
     [](Arg& a) { return integer(a.v, 0, 65535, &a.live().udp.bind_port); }},
    {"base-port", kSwarm, "a port number",
     [](Arg& a) { return integer(a.v, 0, 65535, &a.live().swarm.base_port); }},
    {"peer", kNode, "HOST:PORT",
     [](Arg& a) {
       net::UdpEndpoint peer;
       if (!endpoint(a.v, &peer)) return false;
       a.live().udp.peers.push_back(peer);
       return true;
     }},
    {"multicast", kNode, "GROUP:PORT",
     [](Arg& a) {
       net::UdpEndpoint group;
       if (!endpoint(a.v, &group)) return false;
       a.live().udp.multicast_group = group.host;
       a.live().udp.multicast_port = group.port;
       return true;
     }},
    {"mcast-if", kNode, "an address",
     [](Arg& a) {
       a.live().udp.multicast_interface = a.v;
       return true;
     }},
    {"ttl", kNode, "a value in [0, 255]",
     [](Arg& a) { return integer(a.v, 0, 255, &a.live().udp.multicast_ttl); }},
    {"latency", kSwarm, "min,max in us",
     [](Arg& a) {
       const auto parts = split(a.v, ',');
       double lo = 0;
       double hi = 0;
       if (parts.size() != 2 || !parse_double(parts[0], &lo) ||
           !parse_double(parts[1], &hi) || lo < 0 || hi < lo) {
         return a.fail("--latency needs min,max in us with max >= min >= 0");
       }
       a.live().swarm.loopback.latency_min = sim::SimTime::from_us_double(lo);
       a.live().swarm.loopback.latency_max = sim::SimTime::from_us_double(hi);
       return true;
     }},
    {"drop", kSwarm, "a probability in [0, 1)",
     [](Arg& a) {
       return real(a.v, &a.live().swarm.loopback.drop_probability, probability);
     }},
    {"wire-latency", kNode | kSwarm, "a value in us",
     [](Arg& a) {
       return real(a.v, &a.live().swarm.wire_latency_us, non_negative);
     }},
    {"diverge-threshold", kSwarm, "a value in us",
     [](Arg& a) {
       return real(a.v, &a.live().swarm.diverge_threshold_us, non_negative);
     }},
    {"epoch", kNode, "a UNIX time in seconds",
     [](Arg& a) { return real(a.v, &a.live().epoch_unix_s, non_negative); }},
    // output / checks
    {"csv", kSim | kSwarm, "a path",
     [](Arg& a) {
       a.out().csv_path = a.v;
       return true;
     }},
    {"chart", kSim | kSwarm, "",
     [](Arg& a) { return a.out().ascii_chart = true; }},
    {"trace", kAll, "",
     [](Arg& a) {
       a.out().dump_trace = true;
       return a.keep_trace(kDumpRing);
     }},
    {"trace-limit", kAll, "a positive integer",
     [](Arg& a) {
       a.out().dump_trace = true;
       return integer(a.v, 1, kMaxInt, &a.out().trace_limit) &&
              a.keep_trace(kDumpRing);
     }},
    {"trace-kind", kAll, "an event kind",
     [](Arg& a) {
       const auto kind = trace::kind_from_string(a.v);
       if (!kind) {
         std::vector<std::string_view> valid;
         for (int k = 0; k < static_cast<int>(trace::kEventKindCount); ++k) {
           valid.push_back(trace::to_string(static_cast<trace::EventKind>(k)));
         }
         return a.fail("unknown event kind: " + a.v + " (valid kinds: " +
                       join(valid) + ")");
       }
       a.out().trace_kind = *kind;
       a.out().dump_trace = true;
       return a.keep_trace(kDumpRing);
     }},
    {"json-out", kAll, "a path",
     [](Arg& a) {
       a.out().json_out_path = a.v;
       return a.keep_trace(kStreamRing);
     }},
    {"metrics-out", kAll, "a path",
     [](Arg& a) {
       a.out().metrics_out_path = a.v;
       return true;
     }},
    {"profile", kAll, "", [](Arg& a) { return a.s().profile = true; }},
    {"monitor", kAll, "", [](Arg& a) { return a.s().monitor = true; }},
    {"expect-sync", kSwarm, "",
     [](Arg& a) { return a.live().expect_sync = true; }},
    // telemetry / flight recorder (DESIGN.md §10)
    {"telemetry-out", kAll, "a path",
     [](Arg& a) {
       a.s().telemetry_out = a.v;
       return true;
     }},
    {"telemetry-interval", kAll, "a positive number of seconds",
     [](Arg& a) { return real(a.v, &a.s().telemetry_interval_s, positive); }},
    {"telemetry-per-node", kSim | kSwarm, "0 or 1",
     [](Arg& a) { return integer(a.v, 0, 1, &a.s().telemetry_per_node); }},
    {"telemetry-udp", kNode, "HOST:PORT",
     [](Arg& a) { return endpoint(a.v, &a.live().telemetry_udp); }},
    {"flight-recorder", kAll, "a path",
     [](Arg& a) {
       a.s().flight_recorder_out = a.v;
       return true;
     }},
    {"flight-capacity", kAll, "an integer >= 16",
     [](Arg& a) {
       return integer(a.v, 16, kMaxInt, &a.s().flight_capacity);
     }},
    {"watch", kSwarm, "", [](Arg& a) { return a.live().swarm.watch = true; }},
    // performance observatory (DESIGN.md §11)
    {"timeline-out", kAll, "a path",
     [](Arg& a) {
       a.out().timeline_out_path = a.v;
       return a.keep_trace(kStreamRing);
     }},
    {"sampler", kAll, "", [](Arg& a) { return a.s().phase_sampler = true; }},
    {"sampler-interval", kAll, "a positive number of seconds",
     [](Arg& a) {
       a.s().phase_sampler = true;
       return real(a.v, &a.s().phase_sampler_interval_s, positive);
     }},
    {"prom-textfile", kAll, "a path",
     [](Arg& a) {
       a.out().prom_textfile_path = a.v;
       return true;
     }},
    {"prom-port", kNode | kSwarm, "a port number (0 = ephemeral)",
     [](Arg& a) { return integer(a.v, 0, 65535, &a.live().swarm.prom_port); }},
};

const Flag* find_flag(std::string_view name) {
  for (const auto& flag : kFlags) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

}  // namespace

CliOptions cli_defaults(ConfigTool tool) {
  CliOptions opts;
  if (tool == ConfigTool::kSim) {
    opts.scenario.num_nodes = 100;
    opts.scenario.duration_s = 200.0;
  } else {
    opts.scenario = net::live_scenario();
  }
  if (tool == ConfigTool::kNode) {
    opts.live.swarm.bind_address = net::UdpConfig{}.bind_address;
    opts.live.swarm.wire_latency_us = net::kUdpWireLatencyUs;
  }
  opts.scenario.sstsp.chain_length = 0;
  return opts;
}

std::size_t chain_length_for(double span_s) {
  return static_cast<std::size_t>(span_s * 10.0) + 200;
}

bool flag_known(std::string_view name) { return find_flag(name) != nullptr; }

bool flag_applies(std::string_view name, ConfigTool tool) {
  const Flag* flag = find_flag(name);
  return flag != nullptr && (flag->tools & tool_bit(tool)) != 0;
}

std::vector<std::string_view> flag_names(ConfigTool tool) {
  std::vector<std::string_view> names;
  for (const auto& flag : kFlags) {
    if ((flag.tools & tool_bit(tool)) != 0) names.push_back(flag.name);
  }
  return names;
}

std::optional<CliOptions> parse_cli(const std::vector<std::string>& args,
                                    ConfigTool tool,
                                    std::string* error) {
  CliOptions opts = cli_defaults(tool);
  bool config_loaded = false;

  auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };

  // --config splices the file's flags in place, so iterate a mutable copy.
  std::vector<std::string> argv = args;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      opts.help = true;
      return opts;
    }
    if (arg == "--config") {
      if (i + 1 >= argv.size()) return fail("--config needs a path");
      if (config_loaded) return fail("--config may be given only once");
      config_loaded = true;
      std::string cfg_error;
      const auto cfg_args = load_config_args(argv[++i], tool, &cfg_error);
      if (!cfg_args) return fail(cfg_error);
      argv.insert(argv.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                  cfg_args->begin(), cfg_args->end());
      continue;
    }

    // --monitor=strict is the one =-style spelling: --monitor, plus a
    // non-zero exit on any audit record.
    const bool strict = arg == "--monitor=strict";
    const Flag* flag = nullptr;
    if (arg.size() > 2 && arg.starts_with("--")) {
      flag = find_flag(strict ? "monitor" : std::string_view(arg).substr(2));
    }
    if (flag == nullptr || (flag->tools & tool_bit(tool)) == 0) {
      return fail("unknown option: " + arg);
    }
    const std::string needs =
        "--" + std::string(flag->name) + " needs " + std::string(flag->needs);
    std::string value;
    if (!flag->needs.empty()) {
      if (i + 1 >= argv.size()) return fail(needs);
      value = argv[++i];
    }
    Arg a{value, opts, {}};
    if (!flag->apply(a)) return fail(a.error.empty() ? needs : a.error);
    if (strict) opts.output.monitor_strict = true;
  }

  Scenario& s = opts.scenario;
  if (s.sstsp.chain_length == 0 && tool != ConfigTool::kNode) {
    s.sstsp.chain_length = chain_length_for(s.duration_s);
  }
  if (s.cluster.enabled()) {
    // The cluster layout fixes the node count; --nodes would silently
    // disagree with the cluster-major id arithmetic otherwise.
    s.num_nodes = s.cluster.total_nodes();
  }
  return opts;
}

std::string cli_usage(ConfigTool tool) {
  switch (tool) {
    case ConfigTool::kSim:
      return R"(usage: sstsp_sim [options]

scenario:
  --protocol P          tsf | atsp | tatsp | satsf | rentel-kunz | sstsp
                        (default sstsp)
  --nodes N             honest station count (default 100)
  --duration S          simulated seconds (default 200)
  --threads N           run on the sharded parallel kernel with N worker
                        threads (0 = legacy single-threaded kernel);
                        results are bit-identical for any thread count
  --shards N            shard count for the parallel kernel (default: the
                        thread count); pinning it keeps runs with
                        different --threads byte-identical
  --radio-range M       radio range in metres (0 = single-hop: everyone
                        hears everyone; finite ranges enable the spatial
                        partition large runs need)
  --placement-radius M  deployment disc radius in metres (default 50)
  --seed S              RNG seed; identical seeds reproduce bit-exactly
  --paper-env           the paper's §5 environment: 1000 s, 5% churn every
                        200 s, reference departures at 300/500/800 s

protocol parameters:
  --m M                 SSTSP aggressiveness (default 3)
  --l L                 SSTSP missed-beacon tolerance (default 1)
  --guard US            SSTSP base guard time in us
  --chain-length N      µTESLA chain length (default sized to duration)
  --per P               packet error rate (default 1e-4)
  --preestablished      node 0 boots as the SSTSP reference

clock discipline (DESIGN.md §14):
  --discipline NAME     clock-discipline estimator: paper (the §3.3 span
                        solver, default; bit-identical to the legacy path),
                        rls (recursive least squares with forgetting +
                        innovation gating), holdover (paper solver that
                        coasts on the last fitted rate through droughts)
  --discipline-params JSON
                        discipline overrides as a JSON object, same keys as
                        the config "discipline" block (e.g. '{"name":"rls",
                        "window":16,"forgetting":0.98,
                        "innovation-gate":200,"holdover-max-age":32,
                        "span":8,"k-min":0.95,"k-max":1.05}')
  --clock-model KIND    oscillator stressor beyond the paper's constant
                        drift: none (default) | temp-ramp | aging |
                        random-walk
  --clock-model-params JSON
                        stressor overrides, same keys as the config
                        "clock-model" block (e.g. '{"kind":"temp-ramp",
                        "period":1,"ramp-ppm-per-s":0.5,"ramp-start":0,
                        "ramp-end":-1,"aging-ppm-per-day":25,
                        "walk-sigma-ppm":0.25}')

clusters (hierarchical multi-domain sync, SSTSP only; DESIGN.md §13):
  --clusters N          partition the network into N broadcast-domain
                        clusters chained off a root timescale (0 = off);
                        overrides --nodes with clusters * cluster-nodes
  --cluster-nodes K     nodes per cluster, gateways included (default 20)
  --cluster-gateways G  gateway nodes per non-root cluster (default 1)
  --cluster-spacing M   distance between adjacent cluster centers (default
                        45; the geometry contract needs spacing <= range)
  --cluster-radius M    per-cluster placement disc radius (default 14)
  --cluster-phase US    per-depth schedule phase stagger (default 1500)
  --cluster-hop-bound US
                        documented per-gateway-hop error bound; the monitor
                        checks inter-cluster spread <= bound * max depth

environment:
  --churn P,F,A         period_s, fraction, absence_s (e.g. 200,0.05,50)
  --departures T1,T2    reference departure times (SSTSP)

attack:
  --attack NAME         adversary by registry name: tsf-slow, internal-ref,
                        replay, forge, delayed-disclosure
  --attack-window A,B   active interval in seconds (default 400,600)
  --attack-params JSON  adversary-specific overrides as a JSON object
                        (e.g. '{"skew":80,"delay_us":5000}')
  --skew R              internal-ref skew rate in us/s (default 50)

faults:
  --faults PATH         load a fault plan (JSON; see DESIGN.md §9): packet
                        drop/dup/delay/reorder/corrupt directives,
                        partitions, node crash/pause, clock steps/drift
  --faults-json TEXT    the same plan given inline as JSON text

environment overrides:
  --sample-period S     max-diff sampling cadence (default 0.1)
  --max-drift PPM       hardware drift bound (default 100)
  --initial-offset US   initial clock offset bound (default 112)

config:
  --config PATH         load a run config (JSON object; see README "Config
                        files"): scenario keys plus nested "faults" /
                        "attack" objects; flags after --config override the
                        file

output:
  --csv PATH            write the max-clock-difference series as CSV
  --chart               print an ASCII strip chart of the series
  --trace               record and print the newest protocol events
  --trace-limit N       how many events --trace prints (default 40)
  --trace-kind KIND     only print events of KIND (e.g. adjustment,
                        reject-guard; implies --trace)
  --json-out PATH       stream every protocol event as JSON Lines to PATH,
                        terminated by a {"type":"summary"} record
  --metrics-out PATH    write the run's metrics registry (+ profile when
                        --profile) as one JSON document
  --profile             profile the hot paths; prints the per-phase
                        wall-time breakdown and events/sec after the run
  --monitor[=strict]    online invariant monitor + beacon-lifecycle tracing;
                        violations become audit records in the JSON report.
                        strict: exit 3 when any audit record was produced

telemetry (DESIGN.md §10):
  --telemetry-out PATH  append one JSONL telemetry sample per interval:
                        max/mean offset error, beacon funnel rates, engine
                        load, recovery state (schema v1; feed sstsp_tracetool)
  --telemetry-interval S
                        sampling interval in simulated seconds (default 1)
  --telemetry-per-node 0|1
                        attach per-node error arrays to cluster samples
                        (default: auto, on for runs of <= 64 nodes)
  --flight-recorder PATH
                        keep a ring of recent events + samples per run and
                        dump it to PATH on any new audit record class or on
                        SIGUSR1 (JSONL, "flight_seq"-tagged)
  --flight-capacity N   flight-recorder event ring size (default 512)

performance observatory (DESIGN.md §11):
  --timeline-out PATH   write the run as Chrome-trace-event JSON loadable in
                        ui.perfetto.dev: protocol events per node, beacon
                        flow arrows, profiler phase spans (with --profile),
                        fault/audit marks
  --sampler             phase-sampling profiler: sample current phase,
                        event-queue depth and per-phase exclusive time into
                        the metrics registry (see --metrics-out)
  --sampler-interval S  sampling interval in simulated seconds (default
                        0.001; implies --sampler)
  --prom-textfile PATH  dump the final metrics registry in Prometheus text
                        exposition format (node_exporter textfile shape)
  --help                this text
)";
    case ConfigTool::kNode:
      return R"(usage: sstsp_node [options]

identity:
  --id N                this node's id in [0, nodes) (default 0)
  --nodes N             deployment size; every process must agree
                        (default 5)
  --seed S              deployment seed: trust anchors + emulated clocks;
                        every process must agree (default 1)
  --duration S          run length in seconds (default 10)

endpoint (unicast mesh):
  --bind ADDR           bind address (default 0.0.0.0)
  --port P              bind port (default 0 = ephemeral; print and wire
                        peers by hand, or use fixed ports)
  --peer HOST:PORT      a peer endpoint; repeatable

endpoint (multicast, replaces --peer):
  --multicast G:P       join group G, send/receive on port P
  --mcast-if ADDR       interface address to join on (default 127.0.0.1)
  --ttl N               multicast TTL (default 0 = same host)
  --wire-latency US     expected one-way wire latency compensated on
                        receive (default 10, a localhost UDP hop)

timeline:
  --epoch UNIX_S        anchor the protocol timeline at this UNIX time so
                        separately started processes share beacon-period
                        boundaries; default: this process's start

clock emulation:
  --max-drift PPM       emulated drift bound (default 100)
  --initial-offset US   emulated initial offset bound (default 112)
  --drift PPM           explicit drift (disables emulation)
  --offset US           explicit initial offset (disables emulation)

protocol:
  --m M, --l L, --guard US, --chain-length N
                        as in sstsp_sim (chain defaults sized to
                        epoch-elapsed + duration)
  --reference           boot directly in the reference role
  --discipline NAME     clock discipline: paper (default) | rls | holdover
  --discipline-params JSON
                        discipline overrides (same keys as the config
                        "discipline" block; see sstsp_sim --help)

faults:
  --faults PATH         fault plan (JSON; same format as sstsp_sim) —
                        packet directives apply to this node's received
                        datagrams; clock faults hit the emulated oscillator
  --faults-json TEXT    the same plan given inline as JSON text

config:
  --config PATH         load flags from a flat JSON object; flags after
                        --config override the file

output (same semantics as sstsp_sim):
  --json-out PATH, --metrics-out PATH, --trace, --trace-limit N,
  --trace-kind KIND, --profile, --monitor[=strict]

telemetry (same schema as sstsp_sim; DESIGN.md §10):
  --telemetry-out PATH  append this node's JSONL samples (source "node")
  --telemetry-udp HOST:PORT
                        also publish each sample as one UDP datagram (e.g.
                        to a sstsp_swarm collector or `nc -lu`)
  --telemetry-interval S  sampling interval in seconds (default 1)
  --flight-recorder PATH  ring of recent events + samples, dumped on new
                        audit record classes and SIGUSR1
  --flight-capacity N   flight-recorder event ring size (default 512)

performance observatory (DESIGN.md §11):
  --timeline-out PATH   write the run as Chrome-trace-event JSON loadable
                        in ui.perfetto.dev
  --sampler             phase-sampling profiler into the metrics registry
                        (dispatch-gated + SIGPROF statistical sampling)
  --sampler-interval S  sampling interval in seconds (default 0.001;
                        implies --sampler)
  --prom-textfile PATH  dump the final metrics registry in Prometheus text
                        exposition format
  --prom-port P         serve a live /metrics endpoint on 127.0.0.1:P from
                        the reactor (0 = ephemeral, printed at startup)
  --help                this text
)";
    case ConfigTool::kSwarm:
      return R"(usage: sstsp_swarm [options]

deployment:
  --nodes N             node count (default 5)
  --duration S          run length in seconds (default 10)
  --seed S              deployment seed: trust anchors, emulated clocks,
                        loopback latency draws
  --transport T         udp (real sockets on 127.0.0.1, wall-clock paced)
                        or loopback (in-process hub, virtual time,
                        bit-reproducible); default udp
  --bind ADDR           UDP bind address (default 127.0.0.1)
  --base-port P         UDP: node i binds P+i (default 0 = ephemeral)
  --latency MIN,MAX     loopback one-way latency bounds in us (default
                        35,45)
  --drop P              loopback per-delivery drop probability (default 0)
  --wire-latency US     expected one-way wire latency compensated on
                        receive (default: loopback model midpoint, or 10
                        for UDP)
  --diverge-threshold US  monitor's Lemma-1 divergence bound (default: 50,
                        or 150 for wall-paced UDP — see DESIGN.md "Live
                        stack" on emulation noise)

protocol:
  --m M                 SSTSP aggressiveness (default 3)
  --l L                 missed-beacon tolerance (default 1)
  --guard US            base guard time in us
  --chain-length N      µTESLA chain length (default sized to duration)
  --max-drift PPM       emulated oscillator drift bound (default 100)
  --initial-offset US   emulated initial offset bound (default 112)
  --preestablished      node 0 boots as the reference
  --sample-period S     max-offset sampling cadence (default 0.1)
  --discipline NAME     clock discipline: paper (default) | rls | holdover
  --discipline-params JSON
                        discipline overrides (same keys as the config
                        "discipline" block; see sstsp_sim --help)

faults:
  --faults PATH         load a fault plan (JSON; same format as sstsp_sim):
                        packet faults apply per arriving datagram, node
                        crash/pause stop/start nodes, clock faults step the
                        emulated oscillators
  --faults-json TEXT    the same plan given inline as JSON text

config:
  --config PATH         load flags from a flat JSON object ({"nodes": 5});
                        flags after --config override the file

output (same semantics as sstsp_sim):
  --csv PATH, --chart, --trace, --trace-limit N, --trace-kind KIND,
  --json-out PATH, --metrics-out PATH, --profile, --monitor[=strict]

telemetry (same schema as sstsp_sim; DESIGN.md §10):
  --telemetry-out PATH  aggregate JSONL stream: cluster samples
                        (source "swarm") + per-node samples published by
                        every node — over a datagram socket on the reactor
                        in UDP mode, in-process on loopback
  --telemetry-interval S  sampling interval in seconds (default 1)
  --telemetry-per-node 0|1  per-node error arrays on cluster samples
                        (default auto: on for <= 64 nodes)
  --flight-recorder PATH  ring of recent events + samples, dumped on new
                        audit record classes, unplanned node failures and
                        SIGUSR1
  --flight-capacity N   flight-recorder event ring size (default 512)
  --watch               live status line on stderr, one refresh per
                        telemetry interval (wall-paced runs)

performance observatory (DESIGN.md §11):
  --timeline-out PATH   write the run as Chrome-trace-event JSON loadable
                        in ui.perfetto.dev (protocol events per node,
                        beacon flow arrows, profiler spans with --profile)
  --sampler             phase-sampling profiler into the metrics registry;
                        wall-paced runs add a SIGPROF statistical sampler
  --sampler-interval S  sampling interval in seconds (default 0.001;
                        implies --sampler)
  --prom-textfile PATH  dump the final metrics registry in Prometheus text
                        exposition format
  --prom-port P         serve a live /metrics endpoint on 127.0.0.1:P from
                        the reactor (udp transport only; 0 = ephemeral,
                        the chosen port is printed at startup)

checks:
  --expect-sync         exit 4 unless a reference holds the role and the
                        final max pairwise adjusted-clock offset is under
                        the guard threshold (CI smoke)
  --help                this text
)";
  }
  return {};
}

}  // namespace sstsp::run
