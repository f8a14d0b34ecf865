#include "spec/driver.hpp"

#include <stdexcept>
#include <utility>

#include "runtime/collective_algo.hpp"
#include "runtime/fault.hpp"
#include "spec/adaptive.hpp"
#include "support/contracts.hpp"

namespace specomp::spec {

namespace {

[[noreturn]] void reject_name(std::string_view scenario, const char* field,
                              const std::string& value) {
  throw std::invalid_argument(std::string(scenario) + ": unknown " + field +
                              " \"" + value + "\"");
}

}  // namespace

AppRunResult run_app_scenario(const EngineOptions& options,
                              runtime::SimConfig sim, long iterations,
                              const AppSpec& app) {
  const std::size_t p = sim.cluster.size();
  SPEC_EXPECTS(p >= 1);

  // Resolve every name up front so a typo fails before the run.
  WindowPolicyKind window_kind = WindowPolicyKind::Static;
  if (!options.window_policy.empty()) {
    const auto parsed = parse_window_policy(options.window_policy);
    if (!parsed)
      reject_name(app.scenario, "window_policy", options.window_policy);
    window_kind = *parsed;
  }
  ThetaPolicyKind theta_kind = ThetaPolicyKind::Static;
  if (!options.theta_policy.empty()) {
    const auto parsed = parse_theta_policy(options.theta_policy);
    if (!parsed)
      reject_name(app.scenario, "theta_policy", options.theta_policy);
    theta_kind = *parsed;
  }
  try {
    (void)app.make_speculator(options.speculator);
  } catch (const std::invalid_argument&) {
    reject_name(app.scenario, "speculator", options.speculator);
  }

  // The model controller consumes live DistSketch quantiles; without
  // recording it would hold at its initial window forever.
  if (window_kind == WindowPolicyKind::Model) sim.record_dists = true;

  // Per-rank output slots; disjoint, and fully ordered on the simulated
  // backend.
  std::vector<SpecStats> stats(p);
  std::vector<ControlSample> control_log;
  const runtime::RankBody body = [&](runtime::Communicator& comm) {
    const RunEngine run_engine =
        [&](SyncIterativeApp& rank_app,
            std::vector<std::vector<double>> initial_blocks) {
          EngineConfig config;
          config.forward_window = options.forward_window;
          config.threshold = options.theta;
          config.allow_incremental_correction =
              options.allow_incremental_correction;
          config.window_policy =
              make_window_policy(window_kind, options.forward_window);
          config.max_forward_window = options.max_forward_window;
          config.theta_policy = make_theta_policy(theta_kind, options.theta);
          config.record_control_log =
              options.record_control_log && comm.rank() == 0;
          config.graceful_degradation = options.graceful_degradation;
          config.overdue_after_seconds = options.overdue_after_seconds;
          config.max_degraded_window = options.max_degraded_window;
          if (config.forward_window > 0 || config.window_policy != nullptr ||
              config.graceful_degradation)
            config.speculator = app.make_speculator(options.speculator);
          SpecEngine engine(comm, rank_app, std::move(config),
                            std::move(initial_blocks));
          stats[static_cast<std::size_t>(comm.rank())] =
              engine.run(iterations);
          if (comm.rank() == 0) control_log = engine.control_log();
        };
    app.rank_body(comm, run_engine);
  };

  AppRunResult result;
  result.sim = runtime::run_simulated(sim, body);
  result.control_log = std::move(control_log);
  for (const SpecStats& rank_stats : stats) result.spec.merge(rank_stats);
  return result;
}

std::string bind_engine_cli(const support::Cli& cli, EngineOptions& options,
                            runtime::SimConfig& sim,
                            double retransmit_timeout_s) {
  // Run-time controllers (DESIGN.md §13).  Unknown names are errors: a
  // silently ignored policy would taint a whole measurement campaign.
  const std::string window_policy = cli.get("window-policy", "static");
  if (!parse_window_policy(window_policy))
    return "unknown --window-policy '" + window_policy +
           "' (want static|heuristic|model)";
  const std::string theta_policy = cli.get("theta-policy", "static");
  if (!parse_theta_policy(theta_policy))
    return "unknown --theta-policy '" + theta_policy +
           "' (want static|adaptive)";
  if (theta_policy != "static" && options.theta <= 0.0)
    return "--theta-policy=" + theta_policy +
           " needs --theta > 0 (the initial threshold the controller adapts "
           "from)";
  if (window_policy != "static") options.window_policy = window_policy;
  if (theta_policy != "static") options.theta_policy = theta_policy;

  // Collective algorithms (runtime/collective_algo.hpp): flat linear or
  // logarithmic tree; auto defers to the size heuristic.
  const std::string collective = cli.get("collective", "auto");
  const auto algo = runtime::parse_collective_algo(collective);
  if (!algo)
    return "unknown --collective '" + collective + "' (want flat|tree|auto)";
  sim.collective = *algo;

  // Happens-before detector (needs a -DSPECOMP_HB_CHECK=ON build; see
  // runtime/hb_check.hpp).
  sim.hb_check = cli.get_bool("hb-check");

  // Fault injection (DESIGN.md §9): the deterministic FaultPlan goes on
  // every link, and the engine masks overdue peers by speculating past FW
  // instead of blocking.
  const std::string fault_spec = cli.get("fault-plan", "");
  if (!fault_spec.empty()) {
    runtime::FaultPlanConfig fault_config;
    fault_config.retransmit_timeout_seconds = retransmit_timeout_s;
    fault_config.seed =
        static_cast<std::uint64_t>(cli.get_int("fault-seed", 0xfa017));
    std::string error;
    if (!runtime::parse_fault_plan(fault_spec, fault_config, error))
      return "bad --fault-plan: " + error;
    sim.fault =
        std::make_shared<const runtime::FaultPlan>(std::move(fault_config));
    options.graceful_degradation = true;
  }
  return "";
}

}  // namespace specomp::spec
