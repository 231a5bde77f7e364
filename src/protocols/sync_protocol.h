// Protocol strategy interface.
//
// A Station owns exactly one SyncProtocol.  The station layer provides the
// hardware (clock, radio, rng); the protocol decides when to beacon and how
// to discipline its notion of network time.  All five protocols in the
// library (TSF, ATSP, TATSP, SATSF, SSTSP) and the attacker behaviours
// implement this interface, so scenarios and metrics are protocol-agnostic.
#pragma once

#include <array>
#include <cstdint>

#include "mac/channel.h"
#include "mac/frame.h"
#include "sim/time_types.h"

namespace sstsp::proto {

class Station;

struct ProtocolStats {
  std::uint64_t beacons_sent{0};
  std::uint64_t beacons_received{0};
  std::uint64_t adoptions{0};        ///< TSF family: timestamps adopted
  std::uint64_t adjustments{0};      ///< SSTSP: (k, b) re-solves
  std::uint64_t rejected_interval{0};
  std::uint64_t rejected_key{0};
  std::uint64_t rejected_mac{0};
  std::uint64_t rejected_guard{0};
  std::uint64_t elections_won{0};
  std::uint64_t demotions{0};
  std::uint64_t coarse_steps{0};
  std::uint64_t solver_rejections{0};
  /// Per-verdict clock-discipline outcomes, indexed by
  /// core::DisciplineVerdict (this layer sits below core, hence the plain
  /// array; core static_asserts the bound).  solver_rejections stays the
  /// legacy aggregate of the rejecting verdicts.
  std::array<std::uint64_t, 8> discipline_verdicts{};

  ProtocolStats& operator+=(const ProtocolStats& o) {
    beacons_sent += o.beacons_sent;
    beacons_received += o.beacons_received;
    adoptions += o.adoptions;
    adjustments += o.adjustments;
    rejected_interval += o.rejected_interval;
    rejected_key += o.rejected_key;
    rejected_mac += o.rejected_mac;
    rejected_guard += o.rejected_guard;
    elections_won += o.elections_won;
    demotions += o.demotions;
    coarse_steps += o.coarse_steps;
    solver_rejections += o.solver_rejections;
    for (std::size_t v = 0; v < discipline_verdicts.size(); ++v) {
      discipline_verdicts[v] += o.discipline_verdicts[v];
    }
    return *this;
  }
};

class SyncProtocol {
 public:
  explicit SyncProtocol(Station& station) : station_(station) {}
  virtual ~SyncProtocol() = default;

  SyncProtocol(const SyncProtocol&) = delete;
  SyncProtocol& operator=(const SyncProtocol&) = delete;

  /// Station powered on (initial boot or churn return).
  virtual void start() = 0;
  /// Station powered off; cancel all pending activity.
  virtual void stop() = 0;

  /// A frame was delivered by the channel.
  virtual void on_receive(const mac::Frame& frame, const mac::RxInfo& rx) = 0;

  /// The protocol's synchronized time at simulation instant `real` —
  /// the quantity whose network-wide spread the paper plots.
  [[nodiscard]] virtual double network_time_us(sim::SimTime real) const = 0;

  /// Whether this node should be included in synchronization-error metrics
  /// (rejoining nodes are excluded until they re-synchronize).
  [[nodiscard]] virtual bool is_synchronized() const = 0;

  /// True while this node acts as the SSTSP reference (always false for
  /// the TSF family).
  [[nodiscard]] virtual bool is_reference() const { return false; }

  /// Virtual so composite protocols (the cluster wrapper runs a member and
  /// an uplink instance per gateway) can aggregate their halves.
  [[nodiscard]] virtual const ProtocolStats& stats() const { return stats_; }

 protected:
  Station& station_;
  ProtocolStats stats_;
};

}  // namespace sstsp::proto
