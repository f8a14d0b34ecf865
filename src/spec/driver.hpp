// The one scenario→engine path every application runs through.
//
// A scenario (nbody::NBodyScenario, apps::HeatScenario, apps::JacobiScenario)
// is EngineOptions plus its application's problem, cluster and iteration
// count.  run_app_scenario turns the options into each rank's EngineConfig —
// checking every name before the run, building the speculator and the
// window/θ controllers, forcing distribution recording for the model policy
// — runs SpecEngine on the simulated backend, and merges the statistics.
// The application supplies only what differs: how a rank builds its app and
// where the rank's final state goes.
//
// bind_engine_cli is the matching command-line side: the example binaries
// parse the engine and network flags they share through it, once.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/sim_comm.hpp"
#include "spec/app.hpp"
#include "spec/engine.hpp"
#include "spec/speculator.hpp"
#include "spec/stats.hpp"
#include "support/cli.hpp"

namespace specomp::spec {

/// The engine settings a scenario carries.  Scenario structs derive from
/// this and override the defaults that differ per application.
struct EngineOptions {
  /// FW; the starting window when a window policy is set.
  int forward_window = 1;
  /// θ, the check threshold; the starting θ when a θ policy is set.
  double theta = 0.01;
  /// Speculator by name: "hold-last", "linear", "quadratic", or one the
  /// application adds (N-body: "kinematic").
  std::string speculator = "linear";
  /// Window controller by name ("static", "heuristic", "model"; see
  /// parse_window_policy).  Empty keeps the fixed forward_window.  "model"
  /// forces SimConfig::record_dists on: the policy reads the live
  /// delay/service quantiles through Communicator::dist_snapshot().
  std::string window_policy;
  /// θ controller by name ("static", "adaptive"; see parse_theta_policy).
  /// Empty keeps the fixed theta.
  std::string theta_policy;
  /// Upper clamp for policy-chosen windows.
  int max_forward_window = 8;
  /// Offer the application's incremental correction before rolling back.
  /// Disable to force bit-identical rollback + replay repair.
  bool allow_incremental_correction = true;
  /// Record rank 0's per-iteration controller trace (window, θ, cascade
  /// depth, decision) into AppRunResult::control_log.
  bool record_control_log = false;
  /// Engine graceful degradation under faults (DESIGN.md §9): keep
  /// computing on speculated values when a peer is overdue past FW.  The
  /// examples arm this whenever a fault plan is given; leave it off for
  /// fault-free determinism baselines.
  bool graceful_degradation = false;
  /// How long the oldest speculation may stay unresolved before degrading.
  double overdue_after_seconds = 1.0;
  /// Hard cap on outstanding speculations per peer while degraded.
  int max_degraded_window = 8;
};

/// Runs the engine over one rank's app for the scenario's iterations;
/// `initial_blocks[k]` is peer k's X_k(0).
using RunEngine = std::function<void(
    SyncIterativeApp& app, std::vector<std::vector<double>> initial_blocks)>;

/// Resolves EngineOptions::speculator to a fresh instance; throws
/// std::invalid_argument on an unknown name.
using SpeculatorFactory =
    std::function<std::shared_ptr<Speculator>(std::string_view name)>;

/// The application side of run_app_scenario.
struct AppSpec {
  /// Scenario type named in validation errors, e.g. "HeatScenario".
  std::string_view scenario;
  /// One rank's share: builds the app for comm.rank(), hands it to
  /// `run_engine`, and stores the rank's final state.  A rank body may run
  /// a non-speculative algorithm instead; its statistics then stay zero.
  std::function<void(runtime::Communicator& comm, const RunEngine& run_engine)>
      rank_body;
  /// Speculator lookup; an application with its own speculator puts it in
  /// front of make_speculator.
  SpeculatorFactory make_speculator = spec::make_speculator;
};

/// What run_app_scenario returns; each application's result type extends it
/// with the app's final state.
struct AppRunResult {
  runtime::SimResult sim;
  /// Statistics merged over all ranks.
  SpecStats spec;
  /// Rank 0's controller trace (only with record_control_log).
  std::vector<ControlSample> control_log;
};

/// Runs `app` on the deterministic simulated cluster described by `sim`.
/// Every name in `options` is checked before the run: an unknown one throws
/// std::invalid_argument naming AppSpec::scenario and the field.
AppRunResult run_app_scenario(const EngineOptions& options,
                              runtime::SimConfig sim, long iterations,
                              const AppSpec& app);

/// Parses the flags every example shares into `options` and `sim`:
/// --window-policy, --theta-policy, --fault-plan, --fault-seed (plan hash
/// seed), --collective and --hb-check.  A fault plan also arms graceful
/// degradation, with `retransmit_timeout_s` as its ARQ timeout (size it
/// a little above the network's healthy delivery time).  Returns "" on
/// success, otherwise an error message naming the offending flag.
std::string bind_engine_cli(const support::Cli& cli, EngineOptions& options,
                            runtime::SimConfig& sim,
                            double retransmit_timeout_s);

}  // namespace specomp::spec
