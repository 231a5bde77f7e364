#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace sstsp::sim {

std::uint32_t EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot].cancelled = false;
    slots_[slot].in_use = true;
    return slot;
  }
  slots_.emplace_back();
  slots_.back().in_use = true;
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.generation;  // invalidate every outstanding id for the slot
  s.in_use = false;
  s.cancelled = false;
  s.fn = nullptr;
  free_slots_.push_back(slot);
}

void EventQueue::push(const Key& key) {
  std::size_t i = heap_.size();
  heap_.push_back(key);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Key moving = heap_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], moving)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = moving;
}

void EventQueue::remove_top() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

EventQueue::Key EventQueue::batch_key(std::uint32_t b) const {
  const Batch& batch = batches_[b];
  const BatchItem& item = batch.order[batch.next];
  return Key{item.time, batch.first_seq + item.index, kBatchRef | b};
}

EventId EventQueue::schedule(SimTime at, Callback fn) {
  const std::uint32_t slot = acquire_slot();
  slots_[slot].fn = std::move(fn);
  push(Key{at, next_seq_++, slot});
  ++live_;
  return make_id(slot, slots_[slot].generation);
}

void EventQueue::schedule_batch(std::span<const SimTime> times,
                                BatchTarget& target) {
  if (times.empty()) return;
  std::uint32_t b = 0;
  if (!free_batches_.empty()) {
    b = free_batches_.back();
    free_batches_.pop_back();
  } else {
    b = static_cast<std::uint32_t>(batches_.size());
    batches_.emplace_back();
  }
  Batch& batch = batches_[b];
  batch.target = &target;
  batch.first_seq = next_seq_;
  next_seq_ += times.size();
  batch.order.clear();
  for (std::size_t i = 0; i < times.size(); ++i) {
    batch.order.push_back(BatchItem{times[i], static_cast<std::uint32_t>(i)});
  }
  // (time, index) keys are unique, so a plain sort is deterministic.
  std::sort(batch.order.begin(), batch.order.end(),
            [](const BatchItem& x, const BatchItem& y) {
              if (x.time != y.time) return x.time < y.time;
              return x.index < y.index;
            });
  batch.next = 0;
  push(batch_key(b));
  live_ += times.size();
}

bool EventQueue::cancel(EventId id) {
  if (id == 0) return false;
  const auto slot = static_cast<std::uint32_t>((id & 0xFFFFFFFFu) - 1);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (!s.in_use || s.generation != generation || s.cancelled) {
    return false;  // fired, cancelled, or never existed
  }
  s.cancelled = true;
  --live_;
  return true;
}

void EventQueue::drop_cancelled_head() {
  while (!heap_.empty()) {
    const std::uint32_t ref = heap_.front().ref;
    if ((ref & kBatchRef) != 0 || !slots_[ref].cancelled) return;
    release_slot(ref);
    remove_top();
  }
}

SimTime EventQueue::next_time() {
  drop_cancelled_head();
  return heap_.empty() ? SimTime::never() : heap_.front().time;
}

EventQueue::Fired EventQueue::pop() {
  drop_cancelled_head();
  assert(!heap_.empty() && "pop() on empty EventQueue");
  const Key top = heap_.front();
  --live_;
  if ((top.ref & kBatchRef) != 0) {
    const std::uint32_t b = top.ref & ~kBatchRef;
    Batch& batch = batches_[b];
    BatchTarget* target = batch.target;
    const std::uint32_t item = batch.order[batch.next].index;
    if (++batch.next < batch.order.size()) {
      // The next item's key is later than this one's: replace and sift.
      heap_.front() = batch_key(b);
      sift_down(0);
    } else {
      remove_top();
      free_batches_.push_back(b);
    }
    return Fired{top.time, 0, [target, item] { target->fire(item); }};
  }
  remove_top();
  Callback fn = std::move(slots_[top.ref].fn);
  const EventId id = make_id(top.ref, slots_[top.ref].generation);
  release_slot(top.ref);
  return Fired{top.time, id, std::move(fn)};
}

}  // namespace sstsp::sim
