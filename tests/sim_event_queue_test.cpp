#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/rng.h"

namespace sstsp::sim {
namespace {

using namespace sstsp::sim::literals;

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(30_us, [&] { fired.push_back(3); });
  q.schedule(10_us, [&] { fired.push_back(1); });
  q.schedule(20_us, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAmongSimultaneous) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5_us, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(1_us, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelReturnsFalseForUnknownOrFired) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(0));
  EXPECT_FALSE(q.cancel(12345));
  const EventId id = q.schedule(1_us, [] {});
  q.pop().fn();
  EXPECT_FALSE(q.cancel(id));  // already fired
}

TEST(EventQueue, DoubleCancelRejected) {
  EventQueue q;
  const EventId id = q.schedule(1_us, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, NextTimeSkipsCancelledHead) {
  EventQueue q;
  const EventId early = q.schedule(1_us, [] {});
  q.schedule(9_us, [] {});
  EXPECT_EQ(q.next_time(), 1_us);
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 9_us);
}

TEST(EventQueue, NextTimeEmpty) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), SimTime::never());
  const EventId id = q.schedule(1_us, [] {});
  q.cancel(id);
  EXPECT_EQ(q.next_time(), SimTime::never());
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule(1_us, [] {});
  q.schedule(2_us, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PopSkipsCancelledEntries) {
  EventQueue q;
  std::vector<int> fired;
  const EventId a = q.schedule(1_us, [&] { fired.push_back(1); });
  q.schedule(2_us, [&] { fired.push_back(2); });
  const EventId c = q.schedule(3_us, [&] { fired.push_back(3); });
  q.schedule(4_us, [&] { fired.push_back(4); });
  q.cancel(a);
  q.cancel(c);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{2, 4}));
}

/// Batch target that records the label of every item it fires: item i of
/// a batch labelled from `first` fires as `first + i`.
class Recorder final : public BatchTarget {
 public:
  Recorder(std::uint64_t first, std::vector<std::uint64_t>* out)
      : first_(first), out_(out) {}
  void fire(std::size_t item) override { out_->push_back(first_ + item); }

 private:
  std::uint64_t first_;
  std::vector<std::uint64_t>* out_;
};

// A batch reserves one sequence number per item in item order: same-instant
// items fire in item order, and interleave with single events exactly as if
// they had been scheduled one by one at the batch's position.
TEST(EventQueue, BatchReservesSequenceNumbersInItemOrder) {
  EventQueue q;
  std::vector<std::uint64_t> fired;
  q.schedule(5_us, [&] { fired.push_back(100); });
  Recorder rec(0, &fired);
  const std::vector<SimTime> times{5_us, 4_us, 5_us, 5_us};
  q.schedule_batch(times, rec);
  q.schedule(5_us, [&] { fired.push_back(200); });
  q.schedule(4_us, [&] { fired.push_back(300); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1, 300, 100, 0, 2, 3, 200}));
}

// Randomized stress against two references: a plain vector of live
// (time, seq) pairs where pop's expected victim is the (time, seq)-minimum,
// and a shadow queue that receives every fan-out batch as its members
// scheduled one by one in item order.  Exercises slot reuse, generation
// checks, tombstone compaction and next_time() under heavy interleaved
// schedule/batch/cancel/pop traffic with constant same-instant ties; pop
// order, fired (time, seq) and size() must agree after every operation.
TEST(EventQueue, RandomizedModelCheck) {
  EventQueue q;
  EventQueue shadow;
  struct Ref {
    std::int64_t time_ps;
    std::uint64_t seq;
    EventId id;         // 0 for a batch item (not cancellable)
    EventId shadow_id;
  };
  std::vector<Ref> live;
  std::vector<std::uint64_t> fired;
  std::vector<std::uint64_t> shadow_fired;
  std::deque<Recorder> targets;  // stable addresses while items are pending
  std::uint64_t mix = 2006;
  std::uint64_t next_seq = 0;

  const auto reference_min = [&live] {
    return std::min_element(live.begin(), live.end(),
                            [](const Ref& a, const Ref& b) {
                              return a.time_ps != b.time_ps
                                         ? a.time_ps < b.time_ps
                                         : a.seq < b.seq;
                            });
  };
  const auto check_pop = [&] {
    const auto best = reference_min();
    const SimTime t = SimTime::from_ps(best->time_ps);
    ASSERT_EQ(q.next_time(), t);
    ASSERT_EQ(shadow.next_time(), t);
    auto f = q.pop();
    auto g = shadow.pop();
    ASSERT_EQ(f.time, t);
    ASSERT_EQ(g.time, t);
    f.fn();
    g.fn();
    ASSERT_EQ(fired.back(), best->seq);  // exact event, not just same time
    ASSERT_EQ(shadow_fired.back(), best->seq);
    if (best->id != 0) {
      ASSERT_FALSE(q.cancel(best->id));  // fired ids never cancel
    } else {
      ASSERT_EQ(f.id, 0u);  // batch items carry no cancellable id
    }
    live.erase(best);
  };

  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t op = splitmix64(mix) % 100;
    if (op < 40 || live.empty()) {
      // Times drawn from a tiny range so FIFO tie-breaking is constantly
      // exercised.
      const auto t = static_cast<std::int64_t>(splitmix64(mix) % 997);
      const std::uint64_t seq = next_seq++;
      const EventId id = q.schedule(SimTime::from_ps(t),
                                    [&fired, seq] { fired.push_back(seq); });
      const EventId shadow_id =
          shadow.schedule(SimTime::from_ps(t), [&shadow_fired, seq] {
            shadow_fired.push_back(seq);
          });
      live.push_back(Ref{t, seq, id, shadow_id});
    } else if (op < 45) {
      // A fan-out batch of 0..32 items (past std::sort's insertion-sort
      // cutoff); a third of them share the first item's instant, so ties
      // inside the batch are common too.
      const auto n = static_cast<std::size_t>(splitmix64(mix) % 33);
      const auto first_t = static_cast<std::int64_t>(splitmix64(mix) % 997);
      std::vector<SimTime> times;
      const std::uint64_t first_seq = next_seq;
      for (std::size_t i = 0; i < n; ++i) {
        const auto t = splitmix64(mix) % 3 == 0
                           ? first_t
                           : static_cast<std::int64_t>(splitmix64(mix) % 997);
        const std::uint64_t seq = next_seq++;
        times.push_back(SimTime::from_ps(t));
        const EventId shadow_id = shadow.schedule(
            SimTime::from_ps(t),
            [&shadow_fired, seq] { shadow_fired.push_back(seq); });
        live.push_back(Ref{t, seq, 0, shadow_id});
      }
      targets.emplace_back(first_seq, &fired);
      q.schedule_batch(times, targets.back());
    } else if (op < 70) {
      std::vector<std::size_t> singles;
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i].id != 0) singles.push_back(i);
      }
      if (!singles.empty()) {
        const std::size_t pick = singles[splitmix64(mix) % singles.size()];
        ASSERT_TRUE(q.cancel(live[pick].id));
        ASSERT_FALSE(q.cancel(live[pick].id));  // tombstoned, not reusable
        ASSERT_TRUE(shadow.cancel(live[pick].shadow_id));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    } else {
      check_pop();
      if (HasFatalFailure()) return;
    }
    ASSERT_EQ(q.size(), live.size());
    ASSERT_EQ(shadow.size(), live.size());
    ASSERT_EQ(q.empty(), live.empty());
  }

  // Drain; the remainder must come out in exact (time, seq) order.
  while (!live.empty()) {
    check_pop();
    if (HasFatalFailure()) return;
    ASSERT_EQ(q.size(), live.size());
  }
  ASSERT_TRUE(q.empty());
  ASSERT_EQ(q.next_time(), SimTime::never());
  ASSERT_EQ(fired, shadow_fired);
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  std::uint64_t mix = 42;
  std::vector<std::int64_t> times;
  for (int i = 0; i < 5000; ++i) {
    const auto t = static_cast<std::int64_t>(splitmix64(mix) % 1'000'000);
    times.push_back(t);
    q.schedule(SimTime::from_ps(t), [] {});
  }
  SimTime prev = SimTime::zero();
  while (!q.empty()) {
    auto f = q.pop();
    EXPECT_GE(f.time, prev);
    prev = f.time;
  }
}

}  // namespace
}  // namespace sstsp::sim
