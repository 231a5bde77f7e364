// Byte-identity goldens for the observer outputs of a run: telemetry
// stream, flight-recorder dumps and summary record.
//
// Every host (run::Network, run::ParallelNetwork, net::Swarm, sstsp_node)
// builds its observers, attaches them to the stations and feeds them from
// one clock-spread sampling tick (runner/observers.h).  Two runs pin what
// that path writes:
//   * a monitored serial run through the delay storm of
//     examples/faults/delay_storm.json, whose key-disclosure audit records
//     trigger flight dumps — telemetry JSONL (with per-node rows), flight
//     dump and summary record;
//   * a monitored loopback swarm through the reference crash of
//     examples/faults/ref_crash_loss.json with an operator dump request
//     mid-run — telemetry JSONL (per-node rows off) and flight dump.
// The constants were captured from the binary in which each host still
// built and sampled its own observers, and must never be regenerated from
// current code: they ARE the contract.
//
// The last test pins the one rule the hosts used to disagree on: after a
// crash, sim and swarm per-node telemetry rows list the same nodes (every
// node, the crashed one with synced=false).
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <fstream>
#include <memory>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "fault/plan.h"
#include "net/swarm.h"
#include "obs/json.h"
#include "obs/telemetry.h"
#include "runner/cli.h"
#include "runner/experiment.h"
#include "runner/json_report.h"
#include "runner/network.h"

namespace sstsp::run {
namespace {

/// examples/faults/delay_storm.json
constexpr const char* kDelayStormPlan = R"({"seed": 7, "packet": [
  {"kind": "delay", "probability": 1.0, "start": 30, "end": 33,
   "delay_min_us": 120000, "delay_max_us": 180000}
]})";

/// examples/faults/ref_crash_loss.json
constexpr const char* kRefCrashLossPlan = R"({"seed": 1,
  "packet": [{"kind": "drop", "probability": 0.1}],
  "node_faults": [{"kind": "crash", "node": "reference", "at": 30}]
})";

/// A file in the test temp directory, unique per test: ctest runs the
/// cases of this binary as parallel processes.
std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/observer_golden_" +
         testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
         name;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.is_open()) << path;
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

std::string sha256_hex(const std::string& s) {
  return crypto::to_hex(crypto::Sha256::hash(s));
}

std::size_t line_count(const std::string& s) {
  return static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n'));
}

/// The summary record with the wall-clock value zeroed and the host- and
/// toolchain-dependent provenance block cut off.
std::string normalized(std::string doc) {
  if (!doc.empty() && doc.back() == '\n') doc.pop_back();
  doc = std::regex_replace(doc, std::regex("\"wall_seconds\":[-+0-9.eE]+"),
                           "\"wall_seconds\":0");
  const auto prov = doc.find(",\"provenance\"");
  if (prov != std::string::npos) doc.resize(prov);
  return doc;
}

struct Outputs {
  std::string telemetry;
  std::string flight;
  std::string summary;
};

Outputs run_serial_storm() {
  const std::string tele = temp_path("serial.tele.jsonl");
  const std::string flight = temp_path("serial.flight.jsonl");
  std::string error;
  const auto opts = parse_cli(
      {"--nodes", "12", "--duration", "40", "--seed", "7", "--monitor",
       "--faults-json", kDelayStormPlan, "--telemetry-out", tele,
       "--flight-recorder", flight},
      &error);
  EXPECT_TRUE(opts.has_value()) << error;
  const Scenario& s = opts->scenario;
  std::ostringstream summary;
  {
    Network net(s);
    net.run();
    write_summary_jsonl(summary, s, collect_result(net, /*wall_seconds=*/0.0));
  }  // closes both sinks
  return Outputs{read_file(tele), read_file(flight),
                 normalized(summary.str())};
}

net::SwarmConfig crash_swarm_config(double duration_s) {
  net::SwarmConfig config;
  config.transport = net::TransportKind::kLoopback;
  config.nodes = 5;
  config.duration_s = duration_s;
  config.seed = 7;
  config.monitor = true;
  std::string error;
  const auto plan = fault::parse_plan_text(kRefCrashLossPlan, &error);
  EXPECT_TRUE(plan.has_value()) << error;
  config.faults = plan.value_or(fault::FaultPlan{});
  return config;
}

Outputs run_swarm_crash() {
  net::SwarmConfig config = crash_swarm_config(40.0);
  config.telemetry_out = temp_path("swarm.tele.jsonl");
  config.flight_recorder_out = temp_path("swarm.flight.jsonl");
  config.telemetry_per_node = 0;
  volatile std::sig_atomic_t dump_requested = 0;
  {
    std::string error;
    auto swarm = net::Swarm::create(config, &error);
    EXPECT_NE(swarm, nullptr) << error;
    if (swarm == nullptr) return {};
    swarm->set_dump_request_flag(&dump_requested);
    // An operator dump request (SIGUSR1) landing between sampling ticks,
    // shortly after the reference crash.
    swarm->simulator().at(sim::SimTime::from_sec_double(32.05),
                          [&dump_requested] { dump_requested = 1; });
    swarm->run();
    (void)swarm->collect();
  }  // closes both sinks
  return Outputs{read_file(config.telemetry_out),
                 read_file(config.flight_recorder_out), {}};
}

constexpr std::size_t kGoldenSerialTelemetryLines = 40;
constexpr const char* kGoldenSerialTelemetrySha256 =
    "a35e65e26f2feabb50b224a8af37576d2830ab7b3165b5dc5ad051497cf40a62";
constexpr std::size_t kGoldenSerialFlightLines = 4352;
constexpr const char* kGoldenSerialFlightSha256 =
    "4dd27d47897b0f69b6406287c1be55d848416ee0c6dc85c6d85eb77304d72353";
constexpr const char* kGoldenSerialSummarySha256 =
    "0699d6ba047a6bbb40d925d81f4b2891f7eff3b4c4d6f74a0a0b0a10202b8f2d";
constexpr std::size_t kGoldenSwarmTelemetryLines = 240;
constexpr const char* kGoldenSwarmTelemetrySha256 =
    "59a7127c3b390dc0f900dfb5031c387ed3599e1a246accd794b92b08633a2f69";
constexpr std::size_t kGoldenSwarmFlightLines = 578;
constexpr const char* kGoldenSwarmFlightSha256 =
    "185e2bdbbc8f42a6c5bc2ecf5ecbc549c24c35fa957b6d890c52ffe5ed6f867d";

TEST(ObserverGolden, SerialStormTelemetryByteIdentical) {
  const Outputs out = run_serial_storm();
  EXPECT_EQ(line_count(out.telemetry), kGoldenSerialTelemetryLines);
  EXPECT_EQ(sha256_hex(out.telemetry), kGoldenSerialTelemetrySha256);
}

TEST(ObserverGolden, SerialStormFlightDumpByteIdentical) {
  const Outputs out = run_serial_storm();
  EXPECT_EQ(line_count(out.flight), kGoldenSerialFlightLines);
  EXPECT_EQ(sha256_hex(out.flight), kGoldenSerialFlightSha256);
}

TEST(ObserverGolden, SerialStormSummaryByteIdentical) {
  EXPECT_EQ(sha256_hex(run_serial_storm().summary),
            kGoldenSerialSummarySha256);
}

TEST(ObserverGolden, LoopbackSwarmTelemetryByteIdentical) {
  const Outputs out = run_swarm_crash();
  EXPECT_EQ(line_count(out.telemetry), kGoldenSwarmTelemetryLines);
  EXPECT_EQ(sha256_hex(out.telemetry), kGoldenSwarmTelemetrySha256);
}

TEST(ObserverGolden, LoopbackSwarmFlightDumpByteIdentical) {
  const Outputs out = run_swarm_crash();
  EXPECT_EQ(line_count(out.flight), kGoldenSwarmFlightLines);
  EXPECT_EQ(sha256_hex(out.flight), kGoldenSwarmFlightSha256);
}

/// Node ids of the per-node rows of the cluster-wide sample (`source`)
/// at t_s, in row order.
std::vector<std::int64_t> per_node_rows(const std::string& jsonl,
                                        const std::string& source,
                                        double t_s) {
  std::istringstream is(jsonl);
  std::string line;
  while (std::getline(is, line)) {
    const auto value = obs::json::parse(line);
    if (!value) continue;
    const auto sample = obs::telemetry_from_json(*value);
    if (!sample || sample->source != source || sample->node >= 0) continue;
    if (std::abs(sample->t_s - t_s) > 1e-9) continue;
    std::vector<std::int64_t> ids;
    for (const auto& e : sample->node_errors) ids.push_back(e.node);
    return ids;
  }
  ADD_FAILURE() << "no " << source << " sample at t=" << t_s;
  return {};
}

TEST(ObserverGolden, SimAndSwarmPerNodeRowsListTheSameNodesAfterACrash) {
  constexpr double kAfterCrashS = 35.0;
  const std::string sim_tele = temp_path("crash.sim.tele.jsonl");
  const std::string swarm_tele = temp_path("crash.swarm.tele.jsonl");

  std::string error;
  const auto opts = parse_cli(
      {"--nodes", "5", "--duration", "40", "--seed", "7", "--monitor",
       "--faults-json", kRefCrashLossPlan, "--telemetry-out", sim_tele,
       "--telemetry-per-node", "1"},
      &error);
  ASSERT_TRUE(opts.has_value()) << error;
  (void)run_scenario(opts->scenario);

  net::SwarmConfig config = crash_swarm_config(40.0);
  config.telemetry_out = swarm_tele;
  config.telemetry_per_node = 1;
  {
    auto swarm = net::Swarm::create(config, &error);
    ASSERT_NE(swarm, nullptr) << error;
    swarm->run();
    (void)swarm->collect();
  }

  const auto sim_rows = per_node_rows(read_file(sim_tele), "sim", kAfterCrashS);
  const auto swarm_rows =
      per_node_rows(read_file(swarm_tele), "swarm", kAfterCrashS);
  EXPECT_EQ(sim_rows.size(), 5u);
  EXPECT_EQ(std::set<std::int64_t>(sim_rows.begin(), sim_rows.end()),
            std::set<std::int64_t>(swarm_rows.begin(), swarm_rows.end()));
}

}  // namespace
}  // namespace sstsp::run
