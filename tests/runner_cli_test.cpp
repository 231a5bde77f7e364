// CLI parser (src/runner/cli.h): the one flag table behind sstsp_sim,
// sstsp_node and sstsp_swarm.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>

#include "net/node.h"
#include "runner/cli.h"

namespace sstsp::run {
namespace {

std::optional<CliOptions> parse_for(ConfigTool tool,
                                    std::vector<std::string> args,
                                    std::string* err = nullptr) {
  std::string local;
  return parse_cli(args, tool, err != nullptr ? err : &local);
}

std::optional<CliOptions> parse(std::vector<std::string> args,
                                std::string* err = nullptr) {
  return parse_for(ConfigTool::kSim, std::move(args), err);
}

TEST(Cli, DefaultsAreSane) {
  const auto opts = parse({});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->scenario.protocol, ProtocolKind::kSstsp);
  EXPECT_EQ(opts->scenario.num_nodes, 100);
  EXPECT_DOUBLE_EQ(opts->scenario.duration_s, 200.0);
  // Chain auto-sized to the duration.
  EXPECT_EQ(opts->scenario.sstsp.chain_length, 2200u);
  EXPECT_FALSE(opts->help);
}

TEST(Cli, ParsesEveryProtocolName) {
  EXPECT_EQ(parse({"--protocol", "tsf"})->scenario.protocol,
            ProtocolKind::kTsf);
  EXPECT_EQ(parse({"--protocol", "atsp"})->scenario.protocol,
            ProtocolKind::kAtsp);
  EXPECT_EQ(parse({"--protocol", "tatsp"})->scenario.protocol,
            ProtocolKind::kTatsp);
  EXPECT_EQ(parse({"--protocol", "satsf"})->scenario.protocol,
            ProtocolKind::kSatsf);
  EXPECT_EQ(parse({"--protocol", "rentel-kunz"})->scenario.protocol,
            ProtocolKind::kRentelKunz);
  EXPECT_EQ(parse({"--protocol", "rk"})->scenario.protocol,
            ProtocolKind::kRentelKunz);
  EXPECT_EQ(parse({"--protocol", "sstsp"})->scenario.protocol,
            ProtocolKind::kSstsp);
}

TEST(Cli, NumericOptions) {
  const auto opts = parse({"--nodes", "42", "--duration", "33.5", "--seed",
                           "7", "--m", "4", "--l", "2", "--per", "0.01",
                           "--guard", "250"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->scenario.num_nodes, 42);
  EXPECT_DOUBLE_EQ(opts->scenario.duration_s, 33.5);
  EXPECT_EQ(opts->scenario.seed, 7u);
  EXPECT_EQ(opts->scenario.sstsp.m, 4);
  EXPECT_EQ(opts->scenario.sstsp.l, 2);
  EXPECT_DOUBLE_EQ(opts->scenario.phy.packet_error_rate, 0.01);
  EXPECT_DOUBLE_EQ(opts->scenario.sstsp.guard_fine_us, 250.0);
}

TEST(Cli, ChurnAndDepartures) {
  const auto opts =
      parse({"--churn", "100,0.1,20", "--departures", "50,150.5"});
  ASSERT_TRUE(opts.has_value());
  ASSERT_TRUE(opts->scenario.churn.has_value());
  EXPECT_DOUBLE_EQ(opts->scenario.churn->period_s, 100.0);
  EXPECT_DOUBLE_EQ(opts->scenario.churn->fraction, 0.1);
  EXPECT_DOUBLE_EQ(opts->scenario.churn->absence_s, 20.0);
  ASSERT_EQ(opts->scenario.reference_departures_s.size(), 2u);
  EXPECT_DOUBLE_EQ(opts->scenario.reference_departures_s[1], 150.5);
}

TEST(Cli, PaperEnvForSstsp) {
  const auto opts = parse({"--paper-env"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_DOUBLE_EQ(opts->scenario.duration_s, 1000.0);
  ASSERT_TRUE(opts->scenario.churn.has_value());
  EXPECT_EQ(opts->scenario.reference_departures_s.size(), 3u);
  // Chain auto-sizing follows the new duration.
  EXPECT_EQ(opts->scenario.sstsp.chain_length, 10200u);
}

TEST(Cli, AttackConfiguration) {
  const auto opts = parse({"--attack", "internal-ref", "--attack-window",
                           "100,250", "--skew", "75"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->scenario.attack, "internal-ref");
  EXPECT_DOUBLE_EQ(opts->scenario.sstsp_attack.start_s, 100.0);
  EXPECT_DOUBLE_EQ(opts->scenario.sstsp_attack.end_s, 250.0);
  EXPECT_DOUBLE_EQ(opts->scenario.sstsp_attack.skew_rate_us_per_s, 75.0);
}

TEST(Cli, OutputOptions) {
  const auto opts = parse({"--csv", "/tmp/x.csv", "--chart", "--trace"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->output.csv_path, "/tmp/x.csv");
  EXPECT_TRUE(opts->output.ascii_chart);
  EXPECT_TRUE(opts->output.dump_trace);
  EXPECT_GT(opts->scenario.trace_capacity, 0u);
}

TEST(Cli, HelpShortCircuits) {
  const auto opts = parse({"--help"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_TRUE(opts->help);
  EXPECT_NE(cli_usage(ConfigTool::kSim).find("--protocol"),
            std::string::npos);
}

TEST(Cli, RejectsBadInput) {
  std::string err;
  EXPECT_FALSE(parse({"--protocol", "ntp"}, &err).has_value());
  EXPECT_NE(err.find("unknown protocol"), std::string::npos);
  EXPECT_FALSE(parse({"--nodes", "-3"}, &err).has_value());
  EXPECT_FALSE(parse({"--nodes"}, &err).has_value());
  EXPECT_FALSE(parse({"--duration", "abc"}, &err).has_value());
  EXPECT_FALSE(parse({"--per", "1.5"}, &err).has_value());
  EXPECT_FALSE(parse({"--churn", "1,2"}, &err).has_value());
  EXPECT_FALSE(parse({"--attack-window", "50,40"}, &err).has_value());
  EXPECT_FALSE(parse({"--frobnicate"}, &err).has_value());
  EXPECT_NE(err.find("unknown option"), std::string::npos);
}

TEST(Cli, ExplicitChainLengthWins) {
  const auto opts = parse({"--duration", "500", "--chain-length", "999"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->scenario.sstsp.chain_length, 999u);
}

TEST(Cli, MonitorFlag) {
  EXPECT_FALSE(parse({})->scenario.monitor);
  const auto plain = parse({"--monitor"});
  ASSERT_TRUE(plain.has_value());
  EXPECT_TRUE(plain->scenario.monitor);
  EXPECT_FALSE(plain->output.monitor_strict);
  const auto strict = parse({"--monitor=strict"});
  ASSERT_TRUE(strict.has_value());
  EXPECT_TRUE(strict->scenario.monitor);
  EXPECT_TRUE(strict->output.monitor_strict);
}

TEST(Cli, DisciplineFlags) {
  EXPECT_EQ(parse({})->scenario.sstsp.discipline.effective_name(), "paper");
  const auto rls = parse({"--discipline", "rls"});
  ASSERT_TRUE(rls.has_value());
  EXPECT_EQ(rls->scenario.sstsp.discipline.name, "rls");

  const auto params = parse(
      {"--discipline-params",
       R"({"name":"rls","window":20,"forgetting":0.9})"});
  ASSERT_TRUE(params.has_value());
  EXPECT_EQ(params->scenario.sstsp.discipline.name, "rls");
  EXPECT_EQ(params->scenario.sstsp.discipline.window_bps, 20);
  EXPECT_DOUBLE_EQ(params->scenario.sstsp.discipline.forgetting, 0.9);

  std::string err;
  EXPECT_FALSE(parse({"--discipline", "kalman"}, &err).has_value());
  EXPECT_NE(err.find("unknown discipline"), std::string::npos);
  EXPECT_NE(err.find("holdover"), std::string::npos);  // lists valid names
  EXPECT_FALSE(
      parse({"--discipline-params", "{not json"}, &err).has_value());
  EXPECT_FALSE(
      parse({"--discipline-params", R"({"bogus":1})"}, &err).has_value());
  EXPECT_NE(err.find("discipline.bogus"), std::string::npos);
}

TEST(Cli, ClockModelFlags) {
  EXPECT_FALSE(parse({})->scenario.clock_stress.enabled());
  const auto ramp = parse({"--clock-model", "temp-ramp"});
  ASSERT_TRUE(ramp.has_value());
  EXPECT_EQ(ramp->scenario.clock_stress.kind,
            clk::DriftStressKind::kTempRamp);
  EXPECT_TRUE(ramp->scenario.clock_stress.enabled());

  const auto walk = parse(
      {"--clock-model-params",
       R"({"kind":"random-walk","walk-sigma-ppm":0.5,"period":0.25})"});
  ASSERT_TRUE(walk.has_value());
  EXPECT_EQ(walk->scenario.clock_stress.kind,
            clk::DriftStressKind::kRandomWalk);
  EXPECT_DOUBLE_EQ(walk->scenario.clock_stress.walk_sigma_ppm, 0.5);
  EXPECT_DOUBLE_EQ(walk->scenario.clock_stress.period_s, 0.25);

  std::string err;
  EXPECT_FALSE(parse({"--clock-model", "sundial"}, &err).has_value());
  EXPECT_NE(err.find("unknown clock model"), std::string::npos);
  EXPECT_FALSE(
      parse({"--clock-model-params", R"({"bogus":1})"}, &err).has_value());
  EXPECT_NE(err.find("clock-model.bogus"), std::string::npos);
}

TEST(Cli, UnknownTraceKindListsEveryValidName) {
  std::string err;
  EXPECT_FALSE(parse({"--trace-kind", "bogus"}, &err).has_value());
  EXPECT_NE(err.find("unknown event kind: bogus"), std::string::npos);
  // The message enumerates every kind to_string knows about.
  for (std::size_t i = 0; i < trace::kEventKindCount; ++i) {
    const auto name =
        std::string(trace::to_string(static_cast<trace::EventKind>(i)));
    EXPECT_NE(err.find(name), std::string::npos) << name;
  }
}


// --- One table, three tools ----------------------------------------------

constexpr unsigned kS = 1U;  // sstsp_sim
constexpr unsigned kN = 2U;  // sstsp_node
constexpr unsigned kW = 4U;  // sstsp_swarm
constexpr unsigned kA = kS | kN | kW;

const std::vector<std::pair<ConfigTool, unsigned>> kTools = {
    {ConfigTool::kSim, kS}, {ConfigTool::kNode, kN}, {ConfigTool::kSwarm, kW}};

// Every flag of every tool, the tools that take it, and a valid value
// (nullptr: a bare flag).  "@plan" stands for a fault-plan file.
struct ExpectedFlag {
  const char* name;
  unsigned tools;
  const char* value;
};

const ExpectedFlag kExpectedFlags[] = {
    {"protocol", kS, "tsf"},
    {"nodes", kA, "5"},
    {"duration", kA, "10"},
    {"seed", kA, "3"},
    {"paper-env", kS, nullptr},
    {"threads", kS, "2"},
    {"shards", kS, "4"},
    {"radio-range", kS, "30"},
    {"placement-radius", kS, "40"},
    {"id", kN, "1"},
    {"m", kA, "4"},
    {"l", kA, "2"},
    {"guard", kA, "250"},
    {"chain-length", kA, "500"},
    {"per", kS, "0.01"},
    {"preestablished", kS | kW, nullptr},
    {"reference", kN, nullptr},
    {"clusters", kS, "2"},
    {"cluster-nodes", kS, "10"},
    {"cluster-gateways", kS, "1"},
    {"cluster-spacing", kS, "45"},
    {"cluster-radius", kS, "14"},
    {"cluster-phase", kS, "1500"},
    {"cluster-hop-bound", kS, "40"},
    {"churn", kS, "200,0.05,50"},
    {"departures", kS, "300,500"},
    {"sample-period", kS | kW, "0.2"},
    {"max-drift", kA, "50"},
    {"initial-offset", kA, "100"},
    {"drift", kN, "20"},
    {"offset", kN, "-30"},
    {"attack", kS, "internal-ref"},
    {"attack-window", kS, "100,200"},
    {"attack-params", kS, R"({"skew":80})"},
    {"skew", kS, "75"},
    {"faults", kA, "@plan"},
    {"faults-json", kA, R"({"seed":1})"},
    {"discipline", kA, "rls"},
    {"discipline-params", kA, R"({"name":"rls","window":16})"},
    {"clock-model", kS, "aging"},
    {"clock-model-params", kS, R"({"kind":"aging"})"},
    {"transport", kW, "loopback"},
    {"bind", kN | kW, "127.0.0.1"},
    {"port", kN, "47000"},
    {"base-port", kW, "47100"},
    {"peer", kN, "127.0.0.1:47001"},
    {"multicast", kN, "239.255.47.10:47100"},
    {"mcast-if", kN, "127.0.0.1"},
    {"ttl", kN, "1"},
    {"latency", kW, "30,50"},
    {"drop", kW, "0.1"},
    {"wire-latency", kN | kW, "20"},
    {"diverge-threshold", kW, "100"},
    {"epoch", kN, "1700000000"},
    {"csv", kS | kW, "out.csv"},
    {"chart", kS | kW, nullptr},
    {"trace", kA, nullptr},
    {"trace-limit", kA, "10"},
    {"trace-kind", kA, "adjustment"},
    {"json-out", kA, "run.jsonl"},
    {"metrics-out", kA, "metrics.json"},
    {"profile", kA, nullptr},
    {"monitor", kA, nullptr},
    {"expect-sync", kW, nullptr},
    {"telemetry-out", kA, "tele.jsonl"},
    {"telemetry-interval", kA, "0.5"},
    {"telemetry-per-node", kS | kW, "1"},
    {"telemetry-udp", kN, "127.0.0.1:9000"},
    {"flight-recorder", kA, "flight.jsonl"},
    {"flight-capacity", kA, "64"},
    {"watch", kW, nullptr},
    {"timeline-out", kA, "timeline.json"},
    {"sampler", kA, nullptr},
    {"sampler-interval", kA, "0.01"},
    {"prom-textfile", kA, "metrics.prom"},
    {"prom-port", kN | kW, "9464"},
};

std::set<std::string> expected_names(unsigned bit) {
  std::set<std::string> names;
  for (const auto& flag : kExpectedFlags) {
    if ((flag.tools & bit) != 0) names.insert(flag.name);
  }
  return names;
}

TEST(CliTable, EachToolTakesExactlyItsFlags) {
  for (const auto& [tool, bit] : kTools) {
    const auto names = flag_names(tool);
    EXPECT_EQ(std::set<std::string>(names.begin(), names.end()),
              expected_names(bit))
        << static_cast<int>(tool);
    for (const auto& flag : kExpectedFlags) {
      EXPECT_TRUE(flag_known(flag.name)) << flag.name;
      EXPECT_EQ(flag_applies(flag.name, tool), (flag.tools & bit) != 0)
          << flag.name << " tool " << static_cast<int>(tool);
    }
  }
  EXPECT_FALSE(flag_known("config"));  // a splice, not a table row
  EXPECT_FALSE(flag_known("warp-speed"));
}

TEST(CliTable, AdmittedFlagsParseAndOthersAreUnknownOptions) {
  const std::string plan = ::testing::TempDir() + "/sstsp_cli_plan.json";
  {
    std::ofstream out(plan);
    out << R"({"seed": 1})";
  }
  for (const auto& [tool, bit] : kTools) {
    for (const auto& flag : kExpectedFlags) {
      std::vector<std::string> args = {std::string("--") + flag.name};
      if (flag.value != nullptr) {
        args.emplace_back(std::string(flag.value) == "@plan" ? plan
                                                             : flag.value);
      }
      std::string err;
      const auto opts = parse_for(tool, args, &err);
      if ((flag.tools & bit) != 0) {
        EXPECT_TRUE(opts.has_value())
            << flag.name << " tool " << static_cast<int>(tool) << ": " << err;
      } else {
        EXPECT_FALSE(opts.has_value()) << flag.name;
        EXPECT_EQ(err, "unknown option: --" + std::string(flag.name));
      }
    }
  }
  std::remove(plan.c_str());
}

TEST(CliTable, HelpTextNamesExactlyTheToolsFlags) {
  const auto flag_char = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-';
  };
  for (const auto& [tool, bit] : kTools) {
    const std::string usage = cli_usage(tool);
    std::set<std::string> named;
    for (auto at = usage.find("--"); at != std::string::npos;
         at = usage.find("--", at)) {
      auto end = at + 2;
      while (end < usage.size() && flag_char(usage[end])) ++end;
      if (end > at + 2) named.insert(usage.substr(at + 2, end - at - 2));
      at = end;
    }
    auto expected = expected_names(bit);
    expected.insert("config");
    expected.insert("help");
    EXPECT_EQ(named, expected) << static_cast<int>(tool);
  }
}

TEST(CliTable, EmptyArgvGivesEachToolsDefaults) {
  const auto sim = parse_for(ConfigTool::kSim, {});
  ASSERT_TRUE(sim.has_value());
  EXPECT_EQ(sim->scenario.num_nodes, 100);
  EXPECT_DOUBLE_EQ(sim->scenario.duration_s, 200.0);
  EXPECT_EQ(sim->scenario.seed, 1u);
  EXPECT_EQ(sim->scenario.sstsp.chain_length, 2200u);
  EXPECT_EQ(sim->scenario.sstsp.solver_span_bps,
            core::SstspConfig{}.solver_span_bps);

  for (const ConfigTool tool : {ConfigTool::kSwarm, ConfigTool::kNode}) {
    const auto live = parse_for(tool, {});
    ASSERT_TRUE(live.has_value());
    const Scenario& s = live->scenario;
    EXPECT_EQ(s.protocol, ProtocolKind::kSstsp);
    EXPECT_EQ(s.num_nodes, 5);
    EXPECT_DOUBLE_EQ(s.duration_s, 10.0);
    EXPECT_EQ(s.seed, 1u);
    EXPECT_EQ(s.sstsp.solver_span_bps,
              net::live_sstsp_defaults().solver_span_bps);
    EXPECT_DOUBLE_EQ(s.max_drift_ppm, 100.0);
    EXPECT_DOUBLE_EQ(s.initial_offset_us, 112.0);
    EXPECT_DOUBLE_EQ(s.sample_period_s, 0.1);
    EXPECT_DOUBLE_EQ(s.telemetry_interval_s, 1.0);
    EXPECT_EQ(s.telemetry_per_node, -1);
    EXPECT_EQ(s.flight_capacity, 512u);
    EXPECT_EQ(s.trace_capacity, 0u);
    EXPECT_FALSE(s.monitor);
    EXPECT_EQ(live->live.swarm.prom_port, -1);
    EXPECT_EQ(live->output.trace_limit, 40u);
  }

  const auto swarm = parse_for(ConfigTool::kSwarm, {});
  EXPECT_EQ(swarm->scenario.sstsp.chain_length, 300u);  // sized to 10 s
  EXPECT_EQ(swarm->live.swarm.transport, net::TransportKind::kUdp);
  EXPECT_EQ(swarm->live.swarm.bind_address, "127.0.0.1");
  EXPECT_EQ(swarm->live.swarm.base_port, 0);
  EXPECT_LT(swarm->live.swarm.wire_latency_us, 0.0);       // auto
  EXPECT_LT(swarm->live.swarm.diverge_threshold_us, 0.0);  // auto
  const net::LoopbackConfig& loopback = swarm->live.swarm.loopback;
  EXPECT_EQ(loopback.latency_min, sim::SimTime::from_us(35));
  EXPECT_EQ(loopback.latency_max, sim::SimTime::from_us(45));
  EXPECT_DOUBLE_EQ(loopback.drop_probability, 0.0);
  EXPECT_FALSE(swarm->live.expect_sync);

  const auto node = parse_for(ConfigTool::kNode, {});
  // sstsp_node sizes the chain from its --epoch after the parse.
  EXPECT_EQ(node->scenario.sstsp.chain_length, 0u);
  EXPECT_DOUBLE_EQ(node->live.swarm.wire_latency_us, net::kUdpWireLatencyUs);
  EXPECT_EQ(node->live.swarm.bind_address, "0.0.0.0");
  EXPECT_EQ(node->live.udp.bind_port, 0);
  EXPECT_EQ(node->live.udp.multicast_interface, "127.0.0.1");
  EXPECT_EQ(node->live.udp.multicast_ttl, 0);
  EXPECT_EQ(node->live.id, 0u);
  EXPECT_TRUE(node->live.emulate_clock);
  EXPECT_LT(node->live.epoch_unix_s, 0.0);
  EXPECT_FALSE(node->live.reference);
}

TEST(CliTable, LiveToolsValidateLikeTheSim) {
  for (const ConfigTool tool : {ConfigTool::kNode, ConfigTool::kSwarm}) {
    std::string err;
    EXPECT_FALSE(parse_for(tool, {"--nodes", " 5"}, &err).has_value());
    EXPECT_FALSE(parse_for(tool, {"--nodes", "+5"}, &err).has_value());
    EXPECT_FALSE(parse_for(tool, {"--nodes", "1000001"}, &err).has_value());
    EXPECT_EQ(err, "--nodes needs a positive integer (max 1000000)");
    EXPECT_FALSE(parse_for(tool, {"--max-drift", "-1"}, &err).has_value());
    EXPECT_EQ(err, "--max-drift needs a ppm value >= 0");
    EXPECT_FALSE(
        parse_for(tool, {"--initial-offset", "-1"}, &err).has_value());
    EXPECT_EQ(err, "--initial-offset needs a us value >= 0");
    EXPECT_FALSE(parse_for(tool, {"--discipline", "kalman"}, &err));
    for (const auto& name : core::discipline_names()) {
      EXPECT_NE(err.find(name), std::string::npos) << name;
    }
    EXPECT_FALSE(parse_for(tool, {"--trace-kind", "bogus"}, &err));
    EXPECT_NE(err.find("valid kinds: "), std::string::npos) << err;
  }
}

TEST(CliTable, NodeParsesItsEndpointsAndExplicitClock) {
  const auto node = parse_for(
      ConfigTool::kNode,
      {"--id", "2", "--peer", "10.0.0.1:47001", "--peer", "10.0.0.2:47002",
       "--drift", "12.5", "--telemetry-udp", "127.0.0.1:9000"});
  ASSERT_TRUE(node.has_value());
  EXPECT_EQ(node->live.id, 2u);
  ASSERT_EQ(node->live.udp.peers.size(), 2u);
  EXPECT_EQ(node->live.udp.peers[1].host, "10.0.0.2");
  EXPECT_EQ(node->live.udp.peers[1].port, 47002);
  EXPECT_FALSE(node->live.emulate_clock);
  EXPECT_DOUBLE_EQ(node->live.drift_ppm, 12.5);
  EXPECT_EQ(node->live.telemetry_udp.port, 9000);
  std::string err;
  EXPECT_FALSE(parse_for(ConfigTool::kNode, {"--peer", "host:0"}, &err));
  EXPECT_EQ(err, "--peer needs HOST:PORT");
}

}  // namespace
}  // namespace sstsp::run
