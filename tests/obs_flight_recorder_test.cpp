// Flight recorder: ring-buffer wraparound, the JSONL dump format, the
// audit-dump cap, and the end-to-end trigger paths — an injected fault that
// produces monitor audit records must cause a flight dump carrying the
// trigger record in both the simulator (run::Network) and the live stack
// (net::Swarm over loopback).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "fault/plan.h"
#include "net/swarm.h"
#include "obs/flight_recorder.h"
#include "obs/invariants.h"
#include "obs/json.h"
#include "obs/telemetry.h"
#include "runner/network.h"
#include "runner/scenario.h"
#include "trace/event_trace.h"

namespace sstsp::obs {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

trace::TraceEvent event_at(double t_s, std::uint64_t trace_id) {
  trace::TraceEvent e;
  e.time = sim::SimTime::from_sec_double(t_s);
  e.node = 1;
  e.kind = trace::EventKind::kBeaconRx;
  e.trace_id = trace_id;
  return e;
}

std::vector<json::Value> parse_lines(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.is_open()) << path;
  std::vector<json::Value> out;
  std::string line;
  while (std::getline(is, line)) {
    auto v = json::parse(line);
    EXPECT_TRUE(v.has_value()) << line;
    if (v) out.push_back(std::move(*v));
  }
  return out;
}

std::string type_of(const json::Value& v) {
  const json::Value* t = v.find("type");
  return t != nullptr && t->is_string() ? t->string : std::string{};
}

TEST(FlightRecorder, RingEvictsOldestAtCapacity) {
  FlightRecorder::Config cfg;
  cfg.event_capacity = 8;
  FlightRecorder recorder(cfg, /*sink=*/nullptr);

  for (std::uint64_t i = 1; i <= 20; ++i) {
    recorder.on_trace_event(event_at(static_cast<double>(i), i));
  }
  EXPECT_EQ(recorder.events_recorded(), 20u);
  ASSERT_EQ(recorder.events_retained(), 8u);
  // The retained window is the newest 8, oldest -> newest.
  EXPECT_EQ(recorder.events().front().trace_id, 13u);
  EXPECT_EQ(recorder.events().back().trace_id, 20u);
}

TEST(FlightRecorder, DumpWritesFramedJsonlWithFlightSeqTags) {
  const std::string path = temp_path("flight_dump.jsonl");
  JsonlSink sink;
  std::string error;
  ASSERT_TRUE(sink.open(path, &error)) << error;

  FlightRecorder::Config cfg;
  cfg.event_capacity = 4;
  FlightRecorder recorder(cfg, &sink);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    recorder.on_trace_event(event_at(static_cast<double>(i), i));
  }
  TelemetrySample sample;
  sample.t_s = 6.0;
  recorder.on_sample(sample);

  recorder.dump(6.5, "dump-request", nullptr);
  EXPECT_EQ(recorder.dumps_written(), 1u);

  const auto lines = parse_lines(path);
  // Header + 4 retained events + 1 retained sample + end marker.
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_EQ(type_of(lines.front()), "flight_dump");
  EXPECT_EQ(type_of(lines.back()), "flight_dump_end");
  const json::Value* reason = lines.front().find("reason");
  ASSERT_NE(reason, nullptr);
  EXPECT_EQ(reason->string, "dump-request");
  const json::Value* trigger = lines.front().find("trigger");
  ASSERT_NE(trigger, nullptr);
  EXPECT_TRUE(trigger->is_null());

  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    const json::Value* seq = lines[i].find("flight_seq");
    ASSERT_NE(seq, nullptr) << "body line " << i << " missing flight_seq";
    EXPECT_EQ(seq->number, lines.front().find("seq")->number);
  }
  EXPECT_EQ(type_of(lines[1]), "event");
  EXPECT_EQ(lines[1].find("trace_id")->number, 3.0);  // oldest retained
  EXPECT_EQ(type_of(lines[5]), "telemetry");
  std::remove(path.c_str());
}

TEST(FlightRecorder, AuditDumpsAreCappedButExplicitDumpsAreNot) {
  const std::string path = temp_path("flight_cap.jsonl");
  JsonlSink sink;
  std::string error;
  ASSERT_TRUE(sink.open(path, &error)) << error;

  FlightRecorder::Config cfg;
  cfg.max_audit_dumps = 2;
  FlightRecorder recorder(cfg, &sink);
  recorder.on_trace_event(event_at(1.0, 1));

  AuditRecord record;
  record.kind = InvariantKind::kGuardViolation;
  record.severity = Severity::kCritical;
  record.node = 3;
  record.count = 1;
  for (int i = 0; i < 5; ++i) {
    recorder.on_audit_record(2.0 + i, record);
  }
  EXPECT_EQ(recorder.dumps_written(), 2u);
  EXPECT_EQ(recorder.audit_dumps_suppressed(), 3u);

  // The cap never gates operator dump requests.
  recorder.dump(10.0, "dump-request", nullptr);
  EXPECT_EQ(recorder.dumps_written(), 3u);
  std::remove(path.c_str());
}

// One delay burst longer than the 100 ms beacon period: every delayed
// beacon arrives outside its µTESLA disclosure interval, is rejected, and
// the strict monitor files key-disclosure audit records — the flight
// recorder's audit trigger.
fault::FaultPlan delay_storm(double start_s, double end_s) {
  fault::PacketFault f;
  f.kind = fault::PacketFaultKind::kDelay;
  f.start_s = start_s;
  f.end_s = end_s;
  f.probability = 1.0;
  f.delay_min_us = 120000.0;
  f.delay_max_us = 180000.0;
  fault::FaultPlan plan;
  plan.packet.push_back(f);
  return plan;
}

void expect_audit_triggered_dump(const std::string& path) {
  const auto lines = parse_lines(path);
  ASSERT_FALSE(lines.empty()) << "no flight dump was written";
  std::size_t dumps = 0;
  bool saw_trigger = false;
  for (const auto& line : lines) {
    if (type_of(line) != "flight_dump") continue;
    ++dumps;
    const json::Value* reason = line.find("reason");
    ASSERT_NE(reason, nullptr);
    EXPECT_EQ(reason->string, "audit-record");
    const json::Value* trigger = line.find("trigger");
    if (trigger != nullptr && trigger->is_object()) {
      saw_trigger = true;
      const json::Value* kind = trigger->find("kind");
      ASSERT_NE(kind, nullptr);
      EXPECT_FALSE(kind->string.empty());
    }
  }
  EXPECT_GT(dumps, 0u);
  EXPECT_TRUE(saw_trigger) << "no dump carried its trigger audit record";
}

TEST(FlightRecorder, SimAuditRecordTriggersDumpWithTriggerAttached) {
  const std::string path = temp_path("flight_sim.jsonl");
  run::Scenario s;
  s.protocol = run::ProtocolKind::kSstsp;
  s.num_nodes = 10;
  s.duration_s = 8.0;
  s.seed = 7;
  s.monitor = true;
  s.faults = delay_storm(4.0, 5.0);
  s.flight_recorder_out = path;
  s.flight_capacity = 64;

  run::Network net(s);
  net.run();
  ASSERT_NE(net.observers().flight(), nullptr);
  EXPECT_GT(net.observers().flight()->dumps_written(), 0u);
  expect_audit_triggered_dump(path);
  std::remove(path.c_str());
}

TEST(FlightRecorder, SwarmAuditRecordTriggersDumpWithTriggerAttached) {
  const std::string path = temp_path("flight_swarm.jsonl");
  net::SwarmConfig config;
  config.transport = net::TransportKind::kLoopback;
  config.nodes = 5;
  config.duration_s = 15.0;
  config.seed = 7;
  config.monitor = true;
  config.faults = delay_storm(8.0, 10.0);
  config.flight_recorder_out = path;
  config.flight_capacity = 64;

  std::string error;
  auto swarm = net::Swarm::create(config, &error);
  ASSERT_NE(swarm, nullptr) << error;
  swarm->run();
  ASSERT_NE(swarm->observers().flight(), nullptr);
  EXPECT_GT(swarm->observers().flight()->dumps_written(), 0u);
  expect_audit_triggered_dump(path);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sstsp::obs
