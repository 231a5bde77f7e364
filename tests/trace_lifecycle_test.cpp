// Causal beacon-lifecycle tracing: channel-assigned trace IDs thread each
// beacon's tx -> rx -> auth -> adjustment span, the JSONL export carries
// them, and trace::BeaconLifecycle turns them into per-stage latency
// histograms.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "obs/export.h"
#include "obs/json.h"
#include "runner/experiment.h"
#include "runner/network.h"
#include "trace/event_trace.h"
#include "trace/lifecycle.h"

namespace sstsp::trace {
namespace {

run::Scenario small_scenario() {
  run::Scenario s;
  s.protocol = run::ProtocolKind::kSstsp;
  s.num_nodes = 8;
  s.duration_s = 10.0;
  s.seed = 42;
  s.sstsp.chain_length = 300;
  s.trace_capacity = 1 << 16;
  s.monitor = true;
  return s;
}

TEST(BeaconLifecycle, SpansThreadTxRxAuthAdjust) {
  run::Network net(small_scenario());
  net.run();
  ASSERT_NE(net.trace(), nullptr);
  const EventTrace& trace = *net.trace();

  // Every transmission gets a fresh nonzero channel-assigned ID.
  std::set<std::uint64_t> tx_ids;
  for (const auto& e : trace.by_kind(EventKind::kBeaconTx)) {
    EXPECT_NE(e.trace_id, 0u);
    EXPECT_TRUE(tx_ids.insert(e.trace_id).second) << "duplicate tx id";
  }
  ASSERT_GT(tx_ids.size(), 50u);

  // Receptions, deferred-auth successes and adjustments all point back at
  // a transmitted beacon.
  for (const auto kind :
       {EventKind::kBeaconRx, EventKind::kAuthOk, EventKind::kAdjustment}) {
    const auto events = trace.by_kind(kind);
    ASSERT_GT(events.size(), 50u) << to_string(kind);
    for (const auto& e : events) {
      EXPECT_TRUE(tx_ids.count(e.trace_id) == 1)
          << to_string(kind) << " event with unknown trace id "
          << e.trace_id;
    }
  }

  // µTESLA's deferred-auth shape: a beacon's rx happens ~at its tx, but its
  // auth-ok waits for the *next* interval's key — about one BP later.
  const auto auth = trace.by_kind(EventKind::kAuthOk);
  sim::SimTime tx_time{};
  for (const auto& e : trace.by_kind(EventKind::kBeaconTx)) {
    if (e.trace_id == auth.front().trace_id) tx_time = e.time;
  }
  const double lag_us = (auth.front().time - tx_time).to_us();
  EXPECT_GT(lag_us, 0.5e5);  // at least half a BP
  EXPECT_LT(lag_us, 3.0e5);  // within a few BPs
}

TEST(BeaconLifecycle, FunnelCountersAndLatencyHistograms) {
  run::Network net(small_scenario());
  net.run();
  const auto snap = net.observers().registry().snapshot();

  auto counter = [&snap](std::string_view name) -> std::uint64_t {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  auto histogram = [&snap](std::string_view name) -> obs::HistogramSnapshot {
    for (const auto& [n, v] : snap.histograms) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "missing histogram " << name;
    return {};
  };

  const auto traced = counter("beacon.traced");
  EXPECT_GT(traced, 50u);
  // One tx fans out to ~7 receivers; the funnel narrows monotonically
  // through authentication to adjustments.
  EXPECT_GT(counter("beacon.rx"), traced);
  EXPECT_GT(counter("beacon.auth_ok"), 0u);
  EXPECT_GE(counter("beacon.auth_ok"), counter("beacon.adjust"));

  // Propagation is microseconds; deferred auth is about one beacon period.
  const auto rx = histogram("beacon.tx_to_rx_us");
  ASSERT_GT(rx.count, 0u);
  EXPECT_LT(rx.max, 1000.0);
  const auto auth = histogram("beacon.tx_to_auth_us");
  ASSERT_GT(auth.count, 0u);
  EXPECT_GT(auth.p50, 0.5e5);
  EXPECT_LT(auth.p50, 3.0e5);
}

TEST(BeaconLifecycle, JsonlEventsCarryTraceIds) {
  std::ostringstream os;
  TraceEvent event;
  event.time = sim::SimTime::from_sec_double(1.5);
  event.node = 3;
  event.kind = EventKind::kBeaconRx;
  event.peer = 1;
  event.value_us = -4.25;
  event.trace_id = 77;
  obs::write_event_jsonl(os, event);
  const auto doc = obs::json::parse(os.str());
  ASSERT_TRUE(doc.has_value());
  ASSERT_NE(doc->find("trace_id"), nullptr);
  EXPECT_DOUBLE_EQ(doc->find("trace_id")->number, 77.0);

  // Events not tied to a beacon omit the key (like "peer").
  std::ostringstream os2;
  event.trace_id = 0;
  obs::write_event_jsonl(os2, event);
  const auto doc2 = obs::json::parse(os2.str());
  ASSERT_TRUE(doc2.has_value());
  EXPECT_EQ(doc2->find("trace_id"), nullptr);
}

TEST(BeaconLifecycle, EvictionKeepsCountersButDropsSpans) {
  obs::Registry registry;
  BeaconLifecycle lifecycle(registry, /*capacity=*/2);
  auto tx = [&lifecycle](std::uint64_t id, double t_s) {
    TraceEvent e;
    e.time = sim::SimTime::from_sec_double(t_s);
    e.node = 0;
    e.kind = EventKind::kBeaconTx;
    e.trace_id = id;
    lifecycle.on_event(e);
  };
  tx(1, 0.1);
  tx(2, 0.2);
  tx(3, 0.3);  // evicts id 1

  TraceEvent rx;
  rx.time = sim::SimTime::from_sec_double(0.4);
  rx.node = 1;
  rx.kind = EventKind::kBeaconRx;
  rx.trace_id = 1;  // evicted: counted, no latency sample
  lifecycle.on_event(rx);
  rx.trace_id = 3;
  lifecycle.on_event(rx);

  EXPECT_EQ(lifecycle.tracked(), 3u);
  EXPECT_EQ(registry.counter("beacon.rx").value(), 2u);
  EXPECT_EQ(registry.histogram("beacon.tx_to_rx_us").count(), 1u);
}

TEST(BeaconLifecycle, ZeroTraceIdEventsAreIgnored) {
  obs::Registry registry;
  BeaconLifecycle lifecycle(registry);
  TraceEvent e;
  e.kind = EventKind::kBeaconTx;
  e.trace_id = 0;  // e.g. a protocol without channel IDs attached
  lifecycle.on_event(e);
  EXPECT_EQ(lifecycle.tracked(), 0u);
  EXPECT_EQ(registry.counter("beacon.traced").value(), 0u);
}

}  // namespace
}  // namespace sstsp::trace
