// Command-line front end of the three runner tools: sstsp_sim, sstsp_node
// and sstsp_swarm.
//
// One flag table (cli.cpp) serves all three.  Each row names a flag (which
// is also its config-file key, see config_file.h), the tools it applies
// to, and how it validates its value and writes it into CliOptions.  Every
// tool parses into the same run description, run::Scenario, so a flag
// means the same thing in the simulator and on the live stack.
//
// Kept in the library (rather than the tools' main.cpp) so the parsing is
// unit-testable; see tests/runner_cli_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mac/phy_params.h"
#include "net/swarm.h"
#include "net/udp.h"
#include "runner/config_file.h"
#include "runner/run_output.h"
#include "runner/scenario.h"

namespace sstsp::run {

/// Flags of the live stack only (sstsp_node, sstsp_swarm).
struct LiveOptions {
  /// --transport, --bind, --base-port, --latency, --drop, --wire-latency,
  /// --diverge-threshold, --watch, --prom-port: handed to the swarm as
  /// they are.  sstsp_node takes its --bind, --wire-latency and --prom-port
  /// from here too.
  net::SwarmLive swarm;
  /// sstsp_node's socket: --port, --peer, --multicast, --mcast-if, --ttl.
  /// Its bind address is swarm.bind_address.
  net::UdpConfig udp{};
  double epoch_unix_s = -1.0;  ///< --epoch; < 0 = this process's start
  mac::NodeId id = 0;          ///< --id
  bool reference = false;      ///< --reference: boot in the reference role
  /// --drift / --offset give the node an explicit clock, which turns the
  /// seeded oscillator emulation off.
  bool emulate_clock = true;
  double drift_ppm = 0.0;
  double offset_us = 0.0;
  net::UdpEndpoint telemetry_udp{};  ///< --telemetry-udp; empty host = off
  bool expect_sync = false;          ///< --expect-sync
};

struct CliOptions {
  Scenario scenario;
  OutputOptions output;
  LiveOptions live;
  bool help = false;
};

/// The options an empty command line of `tool` yields:
///   sim   — 100 nodes, 200 s;
///   swarm — net::live_scenario() (5 nodes, 10 s, seed 1, live SSTSP
///           defaults), bound to 127.0.0.1;
///   node  — the same scenario, bound to 0.0.0.0, 10 us expected wire
///           latency.
/// The µTESLA chain length is 0, "size it to the run" (see parse_cli).
[[nodiscard]] CliOptions cli_defaults(ConfigTool tool);

/// Parses argv-style arguments (without the program name) for `tool`,
/// starting from cli_defaults(tool).  A flag outside the tool's set is an
/// unknown option.  --config splices a config file's flags in place.  A chain
/// length left at 0 is sized to the duration (chain_length_for), except
/// for sstsp_node, which sizes it from its --epoch.  On failure returns
/// nullopt and stores a one-line message in *error.
[[nodiscard]] std::optional<CliOptions> parse_cli(
    const std::vector<std::string>& args, ConfigTool tool,
    std::string* error);

/// µTESLA chain length covering `span_s` seconds of beacon intervals, with
/// slack for the coarse/election phases.
[[nodiscard]] std::size_t chain_length_for(double span_s);

/// Does any tool know the flag `--name` (equivalently, config key `name`)?
[[nodiscard]] bool flag_known(std::string_view name);

/// Does `tool` take `--name`?
[[nodiscard]] bool flag_applies(std::string_view name, ConfigTool tool);

/// The flag table's names (without "--") that `tool` takes, in table
/// order.  --config and --help are not table rows.
[[nodiscard]] std::vector<std::string_view> flag_names(ConfigTool tool);

/// Usage text for `tool`'s --help and parse failures.
[[nodiscard]] std::string cli_usage(ConfigTool tool);

}  // namespace sstsp::run
