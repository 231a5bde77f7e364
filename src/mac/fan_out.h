// Delivery fan-out records: one per transmission, fired as a batch.
//
// Both channels (mac::Channel and mac::ShardChannel) walk a finished
// transmission's receivers in ascending station index and draw each
// receiver's PER verdict and latency in that loop.  Each delivery becomes
// one item — (receiver, RxInfo, frame*) — of the transmission's fan-out
// record, and the finished record goes to the simulator as one batch
// (sim::Simulator::fan_out).  Items are appended in ascending receiver
// order, each fault-injected duplicate right after its receiver's primary
// delivery.  The event queue reserves one sequence number per item in that
// order, so the pop order, the event count and the queue depth are exactly
// those of one event per delivery scheduled in that order (DESIGN.md §8).
//
// Records are pooled per channel.  A record returns to the pool after its
// last item fired and keeps its item capacity, so a steady-state fan-out
// allocates nothing but the shared frame.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "mac/frame.h"
#include "mac/medium.h"
#include "sim/simulator.h"

namespace sstsp::mac {

/// `Station` is the channel's station record: it must expose
/// `bool listening` and `Medium::RxHandler handler`.
template <class Station>
class FanOutPool {
 public:
  class Record final : public sim::BatchTarget {
   public:
    /// The frame every receiver shares.
    [[nodiscard]] const Frame* frame() const { return frame_.get(); }

    /// Keeps a per-receiver variant of the frame (a fault-corrupted copy)
    /// alive for as long as the record's items can fire.
    const Frame* keep(Frame variant) {
      variants_.push_back(std::move(variant));
      return &variants_.back();
    }

    /// Appends a delivery of `*frame` to station `receiver`, due at
    /// `info.delivered`.
    void add(std::size_t receiver, const RxInfo& info, const Frame* frame) {
      items_.push_back(Item{static_cast<std::uint32_t>(receiver), info, frame});
      times_.push_back(info.delivered);
    }

    /// Item `i` reaches its receiver if the receiver is still listening.
    void fire(std::size_t i) override {
      const Item& item = items_[i];
      Station& rx = pool_->stations_[item.receiver];
      if (rx.listening) rx.handler(*item.frame, item.info);
      if (++fired_ == items_.size()) pool_->release(*this);
    }

   private:
    friend class FanOutPool;
    struct Item {
      std::uint32_t receiver;
      RxInfo info;
      const Frame* frame;
    };

    FanOutPool* pool_{nullptr};
    std::shared_ptr<const Frame> frame_;
    std::deque<Frame> variants_;  // stable addresses for items to point at
    std::vector<Item> items_;
    std::vector<sim::SimTime> times_;  // due times handed to the simulator
    std::size_t fired_{0};
  };

  explicit FanOutPool(std::vector<Station>& stations) : stations_(stations) {}

  FanOutPool(const FanOutPool&) = delete;
  FanOutPool& operator=(const FanOutPool&) = delete;

  /// An empty record for one transmission of `frame`.
  Record& acquire(std::shared_ptr<const Frame> frame) {
    Record* rec = nullptr;
    if (free_.empty()) {
      records_.push_back(std::make_unique<Record>());
      rec = records_.back().get();
      rec->pool_ = this;
    } else {
      rec = free_.back();
      free_.pop_back();
    }
    rec->frame_ = std::move(frame);
    return *rec;
  }

  /// Schedules every item of `rec` as one batch; an empty record goes
  /// straight back to the pool.
  void submit(sim::Simulator& sim, Record& rec) {
    if (rec.items_.empty()) {
      release(rec);
      return;
    }
    sim.fan_out(rec.times_, rec);
  }

 private:
  void release(Record& rec) {
    rec.frame_.reset();
    rec.variants_.clear();
    rec.items_.clear();
    rec.times_.clear();
    rec.fired_ = 0;
    free_.push_back(&rec);
  }

  std::vector<Station>& stations_;
  std::vector<std::unique_ptr<Record>> records_;
  std::vector<Record*> free_;
};

}  // namespace sstsp::mac
