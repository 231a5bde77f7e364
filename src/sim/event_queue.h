// Priority event queue for the discrete-event kernel.
//
// A binary heap of plain (time, sequence number, slot) keys.  The sequence
// number gives FIFO ordering among simultaneous events, which keeps runs
// deterministic.  The keys are trivially copyable: an event's callback is
// parked in its slot from schedule() until it fires or is cancelled, so
// sifting the heap never moves a std::function.
//
// Cancellation is lazy, with no hash tables on the per-event path: the
// EventId handed back to callers packs (slot index, generation).  cancel()
// flips a tombstone bit in the slot (O(1)); a tombstoned key is discarded
// when it reaches the head (pop()/next_time() compact cancelled heads
// away), so pop() stays amortized O(log n) and next_time() never degrades
// to a linear scan.  Slot generations are bumped on release, so a stale
// EventId (already fired or cancelled) can never alias a newer event.
//
// Fan-out batches: schedule_batch() enqueues n events at once, item i of a
// BatchTarget due at times[i] — one transmission fanned out to its
// receivers.  The batch reserves n consecutive sequence numbers in item
// order, so every item sorts exactly where it would have had the items been
// scheduled one by one in that order.  The items are sorted once by their
// unique (time, index) key and only the earliest unfired one sits in the
// heap; popping it puts the next one in its place.  Each item still counts
// as one pending event in size() and comes out of pop() as its own Fired.
// Batches are not cancellable.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "sim/time_types.h"

namespace sstsp::sim {

/// Opaque handle identifying a scheduled event; 0 is never issued.
using EventId = std::uint64_t;

/// Receiver of a fan-out batch (EventQueue::schedule_batch): fire(i) runs
/// item i.  The target must stay alive until its last item has fired.
class BatchTarget {
 public:
  virtual void fire(std::size_t item) = 0;

 protected:
  ~BatchTarget() = default;
};

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `fn` to fire at `at`.  Returns a handle usable with cancel().
  EventId schedule(SimTime at, Callback fn);

  /// Schedules `target.fire(i)` at `times[i]` for every i (see the batch
  /// notes above).  An empty batch schedules nothing.
  void schedule_batch(std::span<const SimTime> times, BatchTarget& target);

  /// Cancels a pending event.  Returns false if the event already fired,
  /// was already cancelled, or never existed.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest pending event; SimTime::never() when empty.
  /// Compacts cancelled entries off the heap head as a side effect (which
  /// is why it is not const); amortized O(log n) per cancelled event.
  [[nodiscard]] SimTime next_time();

  /// Pops the earliest pending event.  Precondition: !empty().  `id` is 0
  /// for a batch item.
  struct Fired {
    SimTime time;
    EventId id;
    Callback fn;
  };
  Fired pop();

 private:
  /// Heap key.  `ref` is a slot index, or kBatchRef | batch index for the
  /// earliest unfired item of a batch.
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t ref;
  };
  static_assert(std::is_trivially_copyable_v<Key>);
  static constexpr std::uint32_t kBatchRef = 0x80000000u;

  /// One slot per scheduled single event, holding its parked callback.
  /// `generation` advances every time the slot is released (fired or
  /// cancelled key popped), invalidating old ids; `cancelled` is the
  /// tombstone the heap head check reads.
  struct Slot {
    Callback fn;
    std::uint32_t generation{0};
    bool cancelled{false};
    bool in_use{false};
  };

  struct BatchItem {
    SimTime time;
    std::uint32_t index;
  };
  /// A batch's items in (time, index) order; `next` is the first unfired.
  struct Batch {
    BatchTarget* target{nullptr};
    std::uint64_t first_seq{0};
    std::vector<BatchItem> order;
    std::size_t next{0};
  };

  [[nodiscard]] static EventId make_id(std::uint32_t slot,
                                       std::uint32_t generation) {
    // +1 keeps 0 reserved for "no event" even for slot 0 / generation 0.
    return (static_cast<std::uint64_t>(generation) << 32) |
           (static_cast<std::uint64_t>(slot) + 1);
  }
  [[nodiscard]] static bool before(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  [[nodiscard]] Key batch_key(std::uint32_t b) const;

  void push(const Key& key);
  void remove_top();
  void sift_down(std::size_t i);
  void drop_cancelled_head();
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Batch> batches_;
  std::vector<std::uint32_t> free_batches_;
  std::uint64_t next_seq_{0};
  std::size_t live_{0};
};

}  // namespace sstsp::sim
