// The benchmark's workloads: three batch runs of the simulator, each built
// from the seed alone.  Why each exists is in `why` and in README.md.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "runner/experiment.h"
#include "runner/scenario.h"

namespace perfbench {

struct Workload {
  std::string_view name;
  std::string_view why;
  /// The timed scenario for `seed`; telemetry files go under `out_dir`.
  sstsp::run::Scenario (*scenario)(std::uint64_t seed,
                                   const std::string& out_dir);
  /// Streams every protocol event as JSONL to a file (obs sinks workload).
  bool jsonl_export;
  /// Protocol outcome check on a finished run; the failure reason, or
  /// nullopt when the outcome is the expected one.
  std::optional<std::string> (*check)(const sstsp::run::RunResult& result);
  /// Human-readable expected outcome, printed with every report.
  std::string_view expected;
};

[[nodiscard]] std::span<const Workload> workloads();
[[nodiscard]] const Workload* find_workload(std::string_view name);

}  // namespace perfbench
