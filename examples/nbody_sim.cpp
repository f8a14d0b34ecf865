// Full N-body reproduction driver with command-line control.
//
//   $ ./examples/nbody_sim --p 16 --fw 1 --theta 0.01 --iterations 10
//   $ ./examples/nbody_sim --p 8 --fw 2 --init disk --speculator quadratic
//
// Runs the paper's Section-5 case study on the calibrated simulated testbed
// and reports per-phase times, speculation statistics, speedup against the
// fastest single machine, and physics diagnostics (energy drift, momentum).
#include <cstdio>
#include <stdexcept>
#include <string>

#include "nbody/energy.hpp"
#include "nbody/init.hpp"
#include "nbody/integrators/integrator.hpp"
#include "nbody/kernels/dispatch.hpp"
#include "nbody/scenario.hpp"
#include "obs/artifacts.hpp"
#include "runtime/fault.hpp"
#include "spec/driver.hpp"
#include "support/cli.hpp"

// An unknown scenario name (e.g. --speculator) or a failing rank throws
// out of run_scenario; report it instead of aborting.
int main(int argc, char** argv) try {
  using namespace specomp;
  using namespace specomp::nbody;
  const support::Cli cli(argc, argv);
  obs::ArtifactWriter artifacts("nbody_sim", cli);

  NBodyScenario s = paper_testbed_scenario(
      static_cast<std::size_t>(cli.get_int("p", 16)),
      cli.get_int("iterations", 10), static_cast<std::uint64_t>(cli.get_int("seed", 0x5eedc0ffee)));
  s.body.n = static_cast<std::size_t>(cli.get_int("n", 1000));
  s.body.dt = cli.get_double("dt", s.body.dt);
  s.forward_window = static_cast<int>(cli.get_int("fw", 1));
  s.theta = cli.get_double("theta", 0.01);
  s.speculator = cli.get("speculator", "kinematic");
  // Controllers, fault plan and the HB detector.  Healthy
  // round trips on the calibrated testbed are ~6 s; the 4 s ARQ timeout
  // makes a retransmitted block late, not geologically late.
  if (const std::string error = spec::bind_engine_cli(cli, s, s.sim, 4.0);
      !error.empty()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  if (cli.get_bool("baseline")) s.algorithm = Algorithm::Fig7Baseline;
  const std::string init = cli.get("init", "plummer");
  s.body.init = init == "cube"   ? InitKind::UniformCube
                : init == "disk" ? InitKind::RotatingDisk
                                 : InitKind::Plummer;
  s.sim.record_trace = artifacts.wants_trace();
  // Distribution capture is cheap (fixed-size sketches) but only useful to
  // a report reader, so it follows --report-out.
  s.sim.record_dists = artifacts.wants_report();
  // --kernel and --bh-theta fail fast: a silently ignored tier (or an
  // opening angle that cannot influence the forced kernel) would taint a
  // whole measurement campaign.
  const std::string kernel_arg = cli.get("kernel", "auto");
  std::string cli_error;
  const auto kernel = kernels::parse_force_kernel_cli(kernel_arg, cli_error);
  if (!kernel) {
    std::fprintf(stderr, "error: %s\n", cli_error.c_str());
    return 1;
  }
  kernels::set_default_force_kernel(*kernel);
  if (cli.has("bh-theta") && !kernels::kernel_uses_bh_theta(*kernel)) {
    std::fprintf(stderr,
                 "error: --bh-theta only affects the Barnes-Hut tier, but "
                 "--kernel=%s never runs it (use --kernel=tree or auto)\n",
                 kernel_arg.c_str());
    return 1;
  }
  kernels::set_bh_opening_angle(
      cli.get_double("bh-theta", kernels::bh_opening_angle()));
  s.body.integrator = cli.get("integrator", s.body.integrator);
  if (!integrators::make_integrator_cli(s.body.integrator, cli_error)) {
    std::fprintf(stderr, "error: %s\n", cli_error.c_str());
    return 1;
  }
  for (const auto& unknown : cli.unused())
    std::fprintf(stderr, "warning: unknown option --%s\n", unknown.c_str());

  const auto initial = make_initial_conditions(s.body);
  const Diagnostics before = compute_diagnostics(initial, s.body.softening2);

  const NBodyRunResult run = run_scenario(s);

  // Speedup baseline: same workload on the fastest machine alone.  Always
  // fault-free — faults degrade the parallel run, not the yardstick.
  NBodyScenario serial = s;
  serial.sim.cluster = runtime::Cluster::paper_fleet().prefix(1);
  serial.algorithm = Algorithm::Speculative;
  serial.forward_window = 0;
  serial.sim.fault = nullptr;
  serial.graceful_degradation = false;
  const double t1 = run_scenario(serial).sim.makespan_seconds;

  const Diagnostics after =
      compute_diagnostics(run.final_particles, s.body.softening2);

  std::printf("N-body: %zu particles, %zu processors, FW=%d, theta=%g, %s\n",
              s.body.n, s.sim.cluster.size(), s.forward_window, s.theta,
              s.algorithm == Algorithm::Fig7Baseline ? "Fig.7 baseline"
                                                     : "speculative engine");
  std::printf("\nper-iteration phase times (mean over ranks):\n");
  std::printf("  compute      %8.3f s\n", run.mean_compute_per_iteration);
  std::printf("  communicate  %8.3f s\n", run.mean_comm_per_iteration);
  std::printf("  speculate    %8.3f s\n", run.mean_speculate_per_iteration);
  std::printf("  check        %8.3f s\n", run.mean_check_per_iteration);
  std::printf("  correct      %8.3f s\n", run.mean_correct_per_iteration);
  std::printf("  -- makespan  %8.3f s  (%.3f s per iteration)\n",
              run.sim.makespan_seconds, run.time_per_iteration);
  std::printf("\nspeculation: %llu speculated, %llu checked, %llu failed "
              "(k = %.2f%%), %llu corrected in place, %llu iterations replayed\n",
              static_cast<unsigned long long>(run.spec.blocks_speculated),
              static_cast<unsigned long long>(run.spec.checks),
              static_cast<unsigned long long>(run.spec.failures),
              run.spec.failure_fraction() * 100.0,
              static_cast<unsigned long long>(run.spec.incremental_corrections),
              static_cast<unsigned long long>(run.spec.replayed_iterations));
  if (run.spec.checks > 0)
    std::printf("  speculation error: mean %.2e, max %.2e (threshold %g)\n",
                run.spec.error.mean(), run.spec.error.max(), s.theta);
  if (!s.window_policy.empty() || !s.theta_policy.empty()) {
    std::printf(
        "adaptive control: policy %s/%s, max window used %d, theta range "
        "[%g, %g] (%llu adjustments), max cascade depth %d\n",
        s.window_policy.empty() ? "static" : s.window_policy.c_str(),
        s.theta_policy.empty() ? "static" : s.theta_policy.c_str(),
        run.spec.max_window_used, run.spec.theta_min_used,
        run.spec.theta_max_used,
        static_cast<unsigned long long>(run.spec.theta_adjustments),
        run.spec.max_cascade_depth);
  }
  std::printf("\nspeedup vs fastest single machine: %.2f (max attainable %.2f)\n",
              t1 / run.sim.makespan_seconds,
              s.sim.cluster.max_speedup());
  std::printf("\nphysics: energy %+.6f -> %+.6f (drift %.3f%%), |momentum| %.2e\n",
              before.total_energy(), after.total_energy(),
              std::fabs(after.total_energy() - before.total_energy()) /
                  std::fabs(before.total_energy()) * 100.0,
              after.momentum.norm());
  std::printf("network: %llu messages, %.1f MB, mean delay %.3f s\n",
              static_cast<unsigned long long>(run.sim.channel_stats.messages),
              static_cast<double>(run.sim.channel_stats.bytes) / 1e6,
              run.sim.channel_stats.delay_seconds.mean());
  if (s.sim.fault != nullptr) {
    const runtime::FaultStats& fs = run.sim.fault_stats;
    std::printf(
        "faults: %llu drops (%llu retransmits, %llu lost), %llu dups "
        "(%llu suppressed), %llu reorders, %llu slowdowns, %llu stalls, "
        "%llu crashed ranks\n",
        static_cast<unsigned long long>(fs.injected_drops),
        static_cast<unsigned long long>(fs.retransmits),
        static_cast<unsigned long long>(fs.messages_lost),
        static_cast<unsigned long long>(fs.injected_duplicates),
        static_cast<unsigned long long>(fs.duplicates_suppressed),
        static_cast<unsigned long long>(fs.injected_reorders),
        static_cast<unsigned long long>(fs.slowdown_charges),
        static_cast<unsigned long long>(fs.stalls),
        static_cast<unsigned long long>(fs.crashed_ranks));
    std::printf(
        "degraded mode: entered %llu times, %llu iterations computed past "
        "FW\n",
        static_cast<unsigned long long>(run.spec.degraded_entries),
        static_cast<unsigned long long>(run.spec.degraded_iterations));
  }

  obs::RunReport report;
  report.binary = "nbody_sim";
  report.algorithm = s.algorithm == Algorithm::Fig7Baseline ? "fig7-baseline"
                                                            : "speculative";
  report.speculator = s.forward_window > 0 ? s.speculator : "";
  report.forward_window = s.forward_window;
  report.theta = s.theta;
  report.fill_cluster(s.sim.cluster);
  report.fill_sim(run.sim, s.iterations);
  report.fill_spec(run.spec);
  report.extra.set("bodies", obs::Json(s.body.n));
  report.extra.set("force_kernel",
                   obs::Json(std::string(kernels::force_kernel_name(
                       kernels::default_force_kernel()))));
  report.extra.set("integrator", obs::Json(s.body.integrator));
  report.extra.set("window_policy",
                   obs::Json(s.window_policy.empty() ? std::string("static")
                                                     : s.window_policy));
  report.extra.set("theta_policy",
                   obs::Json(s.theta_policy.empty() ? std::string("static")
                                                    : s.theta_policy));
  report.extra.set("speedup_vs_single", obs::Json(t1 / run.sim.makespan_seconds));
  report.extra.set("energy_drift_fraction",
                   obs::Json(std::fabs(after.total_energy() - before.total_energy()) /
                             std::fabs(before.total_energy())));
  if (s.sim.fault != nullptr) {
    report.faults = run.sim.fault_stats;
    report.extra.set("fault_plan", obs::Json(cli.get("fault-plan", "")));
  }
  artifacts.set_run_report(report);
  if (artifacts.wants_trace())
    artifacts.set_trace(run.sim.trace, s.sim.cluster.size());
  return artifacts.flush() ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
