// Byte-identity goldens for the delivery paths a batched fan-out could
// reorder (DESIGN.md §8).
//
// Both channels hand a transmission's deliveries to the event queue as one
// fan-out record whose items keep the per-receiver scheduling order and
// sequence numbers.  Where a reordering would show first:
//   * a serial run whose fault plan duplicates, delays and corrupts
//     deliveries, so a batch's items fire out of receiver order, interleave
//     with other transmissions' items and carry frames other than the
//     shared one — pinned as its summary record and full JSONL event stream;
//   * a spatial sharded run, where every shard settles its own batches at
//     window barriers — pinned as its run document.
// The constants were captured from the binary that still scheduled one
// closure per delivery and must never be regenerated from current code:
// they ARE the contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "obs/export.h"
#include "runner/cli.h"
#include "runner/experiment.h"
#include "runner/json_report.h"
#include "runner/network.h"

namespace sstsp::run {
namespace {

constexpr const char* kFaultPlan = R"({"seed": 5, "packet": [
  {"kind": "duplicate", "probability": 0.1, "copies": 2, "copy_spacing_us": 1},
  {"kind": "delay", "probability": 0.1, "delay_min_us": 0.5, "delay_max_us": 4},
  {"kind": "corrupt", "probability": 0.05, "start": 4, "end": 14}
]})";

Scenario faulted_scenario() {
  std::string error;
  const auto opts =
      parse_cli({"--nodes", "12", "--duration", "20", "--seed", "11",
                 "--faults-json", kFaultPlan, "--json-out", "/dev/null"},
                ConfigTool::kSim, &error);
  EXPECT_TRUE(opts.has_value()) << error;
  return opts->scenario;
}

Scenario sharded_scenario() {
  Scenario s;
  s.protocol = ProtocolKind::kSstsp;
  s.seed = 2006;
  s.num_nodes = 2000;
  s.duration_s = 2.0;
  s.sstsp.chain_length = 64;
  s.phy.radio_range_m = 25.0;
  s.phy.placement_radius_m = 50.0 * std::sqrt(s.num_nodes / 100.0);
  s.shards = 8;
  s.threads = 2;
  return s;
}

std::string sha256_hex(const std::string& s) {
  return crypto::to_hex(crypto::Sha256::hash(s));
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

struct FaultedRun {
  std::string events;   ///< the JSONL event stream, summary excluded
  std::string summary;  ///< normalized summary record
};

FaultedRun run_faulted() {
  const Scenario s = faulted_scenario();
  Network net(s);
  std::ostringstream events;
  obs::attach_jsonl_sink(*net.trace(), events);
  net.run();
  net.trace()->set_sink({});
  std::ostringstream summary;
  write_summary_jsonl(summary, s, collect_result(net, /*wall_seconds=*/0.0));
  return FaultedRun{events.str(), normalized(summary.str())};
}

std::string run_sharded_json() {
  const Scenario s = sharded_scenario();
  RunResult r = run_scenario(s);
  r.wall_seconds = 0.0;
  std::ostringstream os;
  write_run_json(os, s, r);
  return normalized(os.str());
}

constexpr const char* kGoldenFaultedSummary =
    R"golden({"type":"summary","schema_version":2,"protocol":"SSTSP","nodes":12,"duration_s":20,"seed":11,"attack":"none","sync_latency_s":1.1,"steady_max_us":3.866938378661871,"steady_p99_us":3.866938378661871,"events_processed":5603,"wall_seconds":0,"channel":{"transmissions":198,"collided":0,"deliveries":2596,"per_drops":0,"half_duplex_suppressed":0,"bytes_on_air":18216},"honest":{"beacons_sent":198,"beacons_received":2596,"adoptions":0,"adjustments":2108,"rejected_interval":0,"rejected_key":0,"rejected_mac":48,"rejected_guard":0,"elections_won":1,"demotions":0,"coarse_steps":0,"solver_rejections":0},"attacker":null,"net":null,"metrics":{"counters":{"event.adjustment":2108,"event.adoption":0,"event.auth-ok":2119,"event.beacon-rx":2596,"event.beacon-tx":198,"event.coarse-step":0,"event.demotion":0,"event.election-won":1,"event.reject-guard":0,"event.reject-interval":0,"event.reject-key":0,"event.reject-mac":48,"event.takeover":0},"gauges":{},"histograms":{"channel.delivery_latency_us":{"count":2596,"sum":175372.799623,"min":66.035415,"max":73.217336,"mean":67.55500755893682,"p50":73.217336,"p90":73.217336,"p99":73.217336},"sim.event_queue_depth":{"count":5603,"sum":87854,"min":12,"max":34,"mean":15.679814385150813,"p50":14.262084381112043,"p90":27.586343394359226,"p99":31.57644730331519},"station.adjustment_rate_ppm":{"count":2108,"sum":35786.763865553905,"min":-150.5678077128314,"max":809.4551431905295,"mean":16.976643199978135,"p50":39.98940397350994,"p90":106.08530805687204,"p99":280},"station.coarse_step_us":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0},"station.reject_offset_us":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0},"sync.max_diff_us":{"count":200,"sum":2733.2552743862907,"min":2.4326298721134663,"max":227.95416149054654,"mean":13.666276371931453,"p50":6.35,"p90":14.256410256410255,"p99":202.66666666666669},"sync.node_error_us":{"count":2400,"sum":7411.40731305482,"min":0.0007744301110506058,"max":141.8292960418621,"mean":3.0880863804395084,"p50":1.0886363636363636,"p90":3.9326145552560647,"p99":60.60606060606061}}},"profile":null,"audit":null,"recovery":{"records":[],"packet_faults":{"drops":0,"partition_drops":0,"isolation_drops":0,"duplicates":418,"delayed":214,"reordered":0,"corrupted":48},"rejected_frames":48,"post_fault_steady_max_us":null})golden";
constexpr std::size_t kGoldenFaultedEventLines = 7070;
constexpr const char* kGoldenFaultedEventsSha256 =
    "1566d6615758444fcbc4a4d3bd4dfb4629b900f5d4423e3f06b85ef7a80ce671";
constexpr const char* kGoldenShardedRunJson =
    R"golden({"schema_version":2,"protocol":"SSTSP","nodes":2000,"duration_s":2,"seed":2006,"attack":"none","sync_latency_s":null,"steady_max_us":null,"steady_p99_us":null,"events_processed":103393,"wall_seconds":0,"channel":{"transmissions":3387,"collided":2527,"deliveries":52865,"per_drops":4,"half_duplex_suppressed":122,"bytes_on_air":311604},"honest":{"beacons_sent":3387,"beacons_received":52822,"adoptions":0,"adjustments":29446,"rejected_interval":0,"rejected_key":0,"rejected_mac":0,"rejected_guard":2809,"elections_won":397,"demotions":549,"coarse_steps":0,"solver_rejections":0},"attacker":null,"net":null,"metrics":{"counters":{"event.adjustment":29446,"event.adoption":0,"event.auth-ok":36716,"event.beacon-rx":52822,"event.beacon-tx":3387,"event.coarse-step":0,"event.demotion":549,"event.election-won":397,"event.reject-guard":2809,"event.reject-interval":0,"event.reject-key":0,"event.reject-mac":0,"event.takeover":0},"gauges":{},"histograms":{"channel.delivery_latency_us":{"count":52865,"sum":3544798.844766,"min":66.00639799999999,"max":68.081608,"mean":67.05379447207036,"p50":68.081608,"p90":68.081608,"p99":68.081608},"sim.event_queue_depth":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0},"station.adjustment_rate_ppm":{"count":29446,"sum":6144050.879057274,"min":-2383.028492509376,"max":2065.7542774360495,"mean":208.65485563598705,"p50":240.22192866578598,"p90":870.4515695820044,"p99":1790.2253032928943},"station.coarse_step_us":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0},"station.reject_offset_us":{"count":2809,"sum":546833.7276694454,"min":-1966.8805341802072,"max":2197.0097583939787,"mean":194.67202836220912,"p50":462.04699140401146,"p90":974.6897347174164,"p99":1904.3265306122448},"sync.max_diff_us":{"count":20,"sum":18498.5595714418,"min":239.7987586544332,"max":2381.992054558359,"mean":924.9279785720901,"p50":576,"p90":2381.992054558359,"p99":2381.992054558359},"sync.node_error_us":{"count":40000,"sum":3523139.1095354054,"min":0.0014652669487986714,"max":1633.6643900997005,"mean":88.07847773838513,"p50":65.55292612727854,"p90":207.7216934689859,"p99":511.1179173047473}}},"profile":null,"audit":null,"recovery":null)golden";

TEST(FanOutGolden, FaultedSerialSummaryByteIdentical) {
  EXPECT_EQ(run_faulted().summary, kGoldenFaultedSummary);
}

TEST(FanOutGolden, FaultedSerialEventStreamByteIdentical) {
  const FaultedRun r = run_faulted();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(r.events.begin(), r.events.end(), '\n')),
            kGoldenFaultedEventLines);
  EXPECT_EQ(sha256_hex(r.events), kGoldenFaultedEventsSha256);
}

TEST(FanOutGolden, ShardedSpatialRunJsonByteIdentical) {
  EXPECT_EQ(run_sharded_json(), kGoldenShardedRunJson);
}

}  // namespace
}  // namespace sstsp::run
