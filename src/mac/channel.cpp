#include "mac/channel.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "fault/injector.h"

namespace sstsp::mac {

Channel::Channel(sim::Simulator& sim, const PhyParams& phy)
    : Medium(phy),
      sim_(sim),
      fan_out_(stations_),
      rng_(sim.substream("channel", 0)) {}

std::size_t Channel::add_station(Position pos, RxHandler handler) {
  stations_.push_back(StationRec{pos, std::move(handler), true,
                                 sim::SimTime::never(), sim::SimTime::zero()});
  invalidate_caches();
  return stations_.size() - 1;
}

void Channel::set_listening(std::size_t idx, bool listening) {
  stations_[idx].listening = listening;
}

void Channel::invalidate_caches() {
  dist_rows_.clear();
  grid_.built = false;
}

bool Channel::in_range(const Position& a, const Position& b) const {
  if (phy_.radio_range_m <= 0.0) return true;  // single-hop: everyone hears
  return distance_m(a, b) <= phy_.radio_range_m;
}

const std::vector<double>& Channel::dist_row(std::size_t idx) const {
  if (dist_rows_.size() != stations_.size()) {
    dist_rows_.assign(stations_.size(), {});
  }
  std::vector<double>& row = dist_rows_[idx];
  if (row.empty() && !stations_.empty()) {
    row.resize(stations_.size());
    const Position& me = stations_[idx].pos;
    for (std::size_t j = 0; j < stations_.size(); ++j) {
      row[j] = distance_m(me, stations_[j].pos);
    }
  }
  return row;
}

void Channel::build_grid() const {
  grid_.cell_m = phy_.radio_range_m;
  double min_x = 0.0;
  double min_y = 0.0;
  double max_x = 0.0;
  double max_y = 0.0;
  bool first = true;
  for (const StationRec& st : stations_) {
    if (first) {
      min_x = max_x = st.pos.x_m;
      min_y = max_y = st.pos.y_m;
      first = false;
    } else {
      min_x = std::min(min_x, st.pos.x_m);
      max_x = std::max(max_x, st.pos.x_m);
      min_y = std::min(min_y, st.pos.y_m);
      max_y = std::max(max_y, st.pos.y_m);
    }
  }
  grid_.min_x = min_x;
  grid_.min_y = min_y;
  grid_.nx = std::max(
      1, static_cast<int>(std::floor((max_x - min_x) / grid_.cell_m)) + 1);
  grid_.ny = std::max(
      1, static_cast<int>(std::floor((max_y - min_y) / grid_.cell_m)) + 1);
  grid_.cells.assign(static_cast<std::size_t>(grid_.nx) *
                         static_cast<std::size_t>(grid_.ny),
                     {});
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    const Position& p = stations_[i].pos;
    const int cx = std::clamp(
        static_cast<int>(std::floor((p.x_m - min_x) / grid_.cell_m)), 0,
        grid_.nx - 1);
    const int cy = std::clamp(
        static_cast<int>(std::floor((p.y_m - min_y) / grid_.cell_m)), 0,
        grid_.ny - 1);
    grid_.cells[static_cast<std::size_t>(cy) *
                    static_cast<std::size_t>(grid_.nx) +
                static_cast<std::size_t>(cx)]
        .push_back(static_cast<std::uint32_t>(i));
  }
  grid_.built = true;
}

void Channel::grid_candidates(const Position& pos) const {
  if (!grid_.built) build_grid();
  candidates_.clear();
  const int cx = std::clamp(
      static_cast<int>(std::floor((pos.x_m - grid_.min_x) / grid_.cell_m)), 0,
      grid_.nx - 1);
  const int cy = std::clamp(
      static_cast<int>(std::floor((pos.y_m - grid_.min_y) / grid_.cell_m)), 0,
      grid_.ny - 1);
  for (int y = std::max(0, cy - 1); y <= std::min(grid_.ny - 1, cy + 1); ++y) {
    for (int x = std::max(0, cx - 1); x <= std::min(grid_.nx - 1, cx + 1);
         ++x) {
      const auto& cell = grid_.cells[static_cast<std::size_t>(y) *
                                         static_cast<std::size_t>(grid_.nx) +
                                     static_cast<std::size_t>(x)];
      candidates_.insert(candidates_.end(), cell.begin(), cell.end());
    }
  }
  // Ascending station index: the RNG draw-order contract requires visiting
  // receivers exactly as the full scan would.
  std::sort(candidates_.begin(), candidates_.end());
}

void Channel::prune_old(sim::SimTime now) {
  // Transmissions are appended in start order; drop the ones that can no
  // longer influence carrier sense, interference, or pending deliveries.
  const sim::SimTime horizon =
      now - phy_.ifs_guard - sim::SimTime::from_ms(1);
  while (!recent_.empty() && recent_.front().end < horizon &&
         recent_.front().delivered_processed) {
    recent_.pop_front();
  }
}

std::uint64_t Channel::transmit(std::size_t idx, Frame frame,
                                sim::SimTime duration) {
  const sim::SimTime now = sim_.now();
  prune_old(now);

  Tx tx;
  tx.id = next_tx_id_++;
  tx.sender = idx;
  tx.frame = std::move(frame);
  // Every time on air gets its own lifecycle ID, even for a byte-identical
  // replayed frame: the receivers' events describe *this* transmission.
  tx.frame.trace_id = tx.id;
  tx.start = now;
  tx.end = now + duration;

  ++stats_.transmissions;
  stats_.bytes_on_air += tx.frame.air_bytes;
  stations_[idx].last_tx_start = now;
  stations_[idx].last_tx_end = tx.end;
  // Materialize the sender's distance row up front: carrier sense and the
  // delivery fan-out for this transmission will read it.
  (void)dist_row(idx);

  const std::uint64_t id = tx.id;
  recent_.push_back(std::move(tx));
  sim_.at(recent_.back().end, [this, id] { finish_transmission(id); });
  return id;
}

Channel::Tx* Channel::find_tx(std::uint64_t tx_id) {
  // Transmission ids are assigned monotonically and recent_ is kept in push
  // order, so the record is found by binary search instead of a linear scan.
  auto it = std::lower_bound(
      recent_.begin(), recent_.end(), tx_id,
      [](const Tx& t, std::uint64_t id) { return t.id < id; });
  if (it == recent_.end() || it->id != tx_id) return nullptr;
  return &*it;
}

void Channel::finish_transmission(std::uint64_t tx_id) {
  obs::Span span(profiler_, obs::Phase::kChannelDelivery);
  Tx* tx = find_tx(tx_id);
  assert(tx != nullptr && "transmission record pruned before completion");
  tx->delivered_processed = true;

  const std::size_t sender = tx->sender;
  const sim::SimTime start = tx->start;
  const sim::SimTime end = tx->end;
  const double nominal_us = nominal_delay_us(end - start);
  const std::vector<double>& dist = dist_row(sender);
  const bool finite_range = phy_.radio_range_m > 0.0;

  // Transmissions overlapping this frame, collected once instead of
  // re-scanning recent_ for every receiver.
  overlap_senders_.clear();
  for (const Tx& other : recent_) {
    if (other.id == tx_id) continue;
    if (other.start >= end || other.end <= start) continue;  // no overlap
    overlap_senders_.push_back(other.sender);
  }

  // One fan-out record for the whole transmission: every receiver's item
  // points at the shared frame (the deque entry may be pruned before the
  // deliveries fire) or, after a corrupt verdict, at the record's copy.
  auto& fan = fan_out_.acquire(std::make_shared<const Frame>(tx->frame));
  bool lost_to_interference = false;

  auto consider_receiver = [&](std::size_t s) {
    if (s == sender) return;
    StationRec& rx = stations_[s];
    if (!rx.listening) return;
    if (finite_range && dist[s] > phy_.radio_range_m) return;
    // Half duplex: if the receiver transmitted during this frame it heard
    // nothing (its own tx would also have collided, but cover the edge
    // where it started transmitting mid-frame).
    if (rx.last_tx_start < end && rx.last_tx_end > start) {
      ++stats_.half_duplex_suppressed;
      return;
    }
    // Interference is per-receiver: a concurrent transmission corrupts this
    // frame only where both are audible (this is what produces the hidden
    // terminal problem once a radio range is configured).
    bool corrupted = false;
    if (finite_range) {
      for (const std::size_t o : overlap_senders_) {
        if (dist_row(o)[s] <= phy_.radio_range_m) {
          corrupted = true;
          break;
        }
      }
    } else {
      corrupted = !overlap_senders_.empty();
    }
    if (corrupted) {
      lost_to_interference = true;
      return;
    }
    if (rng_.bernoulli(phy_.packet_error_rate)) {
      ++stats_.per_drops;
      return;
    }
    // Injected faults come after the physical-layer model: the injector's
    // own RNG substream issues the verdict, so the channel's draw sequence
    // above stays byte-identical with and without a plan attached.
    fault::DeliveryVerdict verdict;
    if (fault_ != nullptr) {
      verdict = fault_->on_delivery(sim_.now().to_sec(), fan.frame()->sender,
                                    static_cast<NodeId>(s));
      if (verdict.drop) return;
    }
    const sim::SimTime prop = propagation_from_distance(dist[s]);
    const sim::SimTime rx_latency = sim::SimTime::from_us_double(rng_.uniform(
        phy_.rx_latency_min.to_us(), phy_.rx_latency_max.to_us()));
    sim::SimTime delivered = end + prop + rx_latency;
    if (verdict.extra_delay_us > 0.0) {
      delivered += sim::SimTime::from_us_double(verdict.extra_delay_us);
    }
    const Frame* effective = fan.frame();
    if (verdict.corrupt) effective = fan.keep(fault::corrupt_frame(*effective));

    RxInfo info;
    info.delivered = delivered;
    info.nominal_delay_us = nominal_us;
    info.tx_start = start;
    ++stats_.deliveries;
    if (instruments_ != nullptr) {
      instruments_->on_delivery((delivered - start).to_us());
    }
    fan.add(s, info, effective);

    for (const double dup_delay_us : verdict.duplicate_delays_us) {
      RxInfo dup = info;
      dup.delivered = delivered + sim::SimTime::from_us_double(dup_delay_us);
      ++stats_.deliveries;
      if (instruments_ != nullptr) {
        instruments_->on_delivery((dup.delivered - start).to_us());
      }
      fan.add(s, dup, effective);
    }
  };

  if (finite_range) {
    grid_candidates(stations_[sender].pos);
    for (const std::uint32_t s : candidates_) consider_receiver(s);
  } else {
    for (std::size_t s = 0; s < stations_.size(); ++s) consider_receiver(s);
  }
  fan_out_.submit(sim_, fan);
  if (lost_to_interference) ++stats_.collided_transmissions;
  // Completed records are reclaimed here as well, so delivered entries do
  // not linger until the next transmit() call.
  prune_old(sim_.now());
}

bool Channel::would_detect_busy(std::size_t idx, sim::SimTime at) const {
  const bool finite_range = phy_.radio_range_m > 0.0;
  for (const Tx& tx : recent_) {
    if (tx.sender == idx) continue;
    // Distances are read through the *sender's* row (symmetric, and already
    // materialized by transmit()), so carrier sensing never allocates.
    const double d = dist_row(tx.sender)[idx];
    if (finite_range && d > phy_.radio_range_m) continue;
    const sim::SimTime prop = propagation_from_distance(d);
    const sim::SimTime detectable_from = tx.start + prop + phy_.cca_time;
    const sim::SimTime busy_until = tx.end + prop + phy_.ifs_guard;
    if (at >= detectable_from && at <= busy_until) return true;
  }
  return false;
}

}  // namespace sstsp::mac
