// Speculation beyond N-body: the two PDE-flavoured applications.
//
//   $ ./examples/heat_jacobi [--p 8] [--iterations 50]
//
// Solves a dense linear system by Jacobi iteration and integrates a 1-D
// heat equation, each with and without speculation, and reports time,
// accuracy and speculation statistics — the paper's generality claim in
// executable form.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "apps/heat.hpp"
#include "apps/jacobi.hpp"
#include "obs/artifacts.hpp"
#include "runtime/fault.hpp"
#include "spec/driver.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

using namespace specomp;
using namespace specomp::apps;

namespace {

runtime::SimConfig latency_bound_network(std::size_t p) {
  runtime::SimConfig config;
  config.cluster = runtime::Cluster::linear(p, 1e6, 4.0);
  config.channel.propagation = des::SimTime::millis(80);
  config.channel.extra_delay =
      std::make_shared<net::ExponentialJitter>(des::SimTime::millis(15));
  config.send_sw_time = des::SimTime::millis(1);
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const support::Cli cli(argc, argv);
  obs::ArtifactWriter artifacts("heat_jacobi", cli);
  const auto p = static_cast<std::size_t>(cli.get_int("p", 8));
  const long iterations = cli.get_int("iterations", 50);

  // Controllers (applied to the speculative FW > 0 rows of both apps),
  // fault plan, collectives and the HB detector.  The modelled LAN delivers
  // in ~80-100 ms; a 1 s ARQ timeout makes a retransmitted halo clearly late
  // without freezing the pipeline.
  spec::EngineOptions engine;
  runtime::SimConfig network = latency_bound_network(p);
  if (const std::string error =
          spec::bind_engine_cli(cli, engine, network, 1.0);
      !error.empty()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  runtime::FaultStats fault_total;
  std::uint64_t degraded_entries = 0;
  std::uint64_t degraded_iterations = 0;

  support::Table results({"app", "fw", "makespan_s", "accuracy", "k_percent"});

  std::printf("== Jacobi solver, 512 unknowns, %zu processors ==\n", p);
  for (const int fw : {0, 1}) {
    JacobiScenario s;
    s.n = 512;
    s.iterations = iterations;
    s.forward_window = fw;
    s.theta = 1e-3;
    s.sim = network;
    s.graceful_degradation = engine.graceful_degradation;
    if (fw > 0) {
      s.window_policy = engine.window_policy;
      s.theta_policy = engine.theta_policy;
    }
    const JacobiRunResult run = run_jacobi_scenario(s);
    fault_total.merge(run.sim.fault_stats);
    degraded_entries += run.spec.degraded_entries;
    degraded_iterations += run.spec.degraded_iterations;
    std::printf(
        "  FW=%d: %6.2f s, residual %.2e, k = %.1f%% (%llu corrections)\n",
        fw, run.sim.makespan_seconds, run.residual,
        run.spec.failure_fraction() * 100.0,
        static_cast<unsigned long long>(run.spec.incremental_corrections));
    results.row()
        .add("jacobi")
        .add(fw)
        .add(run.sim.makespan_seconds)
        .add(run.residual, 6)
        .add(run.spec.failure_fraction() * 100.0, 2);
  }

  // The heat stencil computes so little per iteration that one iteration of
  // slack cannot hide an 80 ms latency — FW = 2 pipelines two of them and
  // wins big, a nice illustration of choosing FW from the comm/comp ratio.
  std::printf("\n== 1-D heat diffusion, 1024 cells, %zu processors ==\n", p);
  for (const int fw : {0, 1, 2}) {
    HeatScenario s;
    s.problem.n = 1024;
    s.iterations = iterations;
    s.forward_window = fw;
    s.theta = 1e-4;
    s.sim = network;
    s.sim.record_trace = fw == 2 && artifacts.wants_trace();
    s.graceful_degradation = engine.graceful_degradation;
    if (fw > 0) {
      s.window_policy = engine.window_policy;
      s.theta_policy = engine.theta_policy;
    }
    const HeatRunResult run = run_heat_scenario(s);
    fault_total.merge(run.sim.fault_stats);
    degraded_entries += run.spec.degraded_entries;
    degraded_iterations += run.spec.degraded_iterations;
    const auto serial = serial_heat(s.problem, s.iterations);
    double deviation = 0.0;
    for (std::size_t i = 0; i < serial.size(); ++i)
      deviation = std::max(deviation, std::fabs(run.field[i] - serial[i]));
    std::printf(
        "  FW=%d: %6.2f s, max deviation from serial %.2e, k = %.1f%%\n", fw,
        run.sim.makespan_seconds, deviation,
        run.spec.failure_fraction() * 100.0);
    results.row()
        .add("heat")
        .add(fw)
        .add(run.sim.makespan_seconds)
        .add(deviation, 6)
        .add(run.spec.failure_fraction() * 100.0, 2);
    if (s.sim.record_trace) artifacts.set_trace(run.sim.trace, p);
  }

  std::printf(
      "\nthe same SpecEngine drives N-body, Jacobi and the heat stencil — "
      "only pack/compute/error/correct hooks differ per application.\n");

  if (network.fault != nullptr) {
    std::printf(
        "\nfaults (all runs): %llu drops (%llu retransmits, %llu lost), "
        "%llu dups (%llu suppressed), %llu reorders; degraded mode entered "
        "%llu times, %llu iterations computed past FW\n",
        static_cast<unsigned long long>(fault_total.injected_drops),
        static_cast<unsigned long long>(fault_total.retransmits),
        static_cast<unsigned long long>(fault_total.messages_lost),
        static_cast<unsigned long long>(fault_total.injected_duplicates),
        static_cast<unsigned long long>(fault_total.duplicates_suppressed),
        static_cast<unsigned long long>(fault_total.injected_reorders),
        static_cast<unsigned long long>(degraded_entries),
        static_cast<unsigned long long>(degraded_iterations));
  }

  artifacts.add_table("heat_jacobi", results);
  artifacts.add_entry("processors", obs::Json(p));
  artifacts.add_entry("iterations", obs::Json(iterations));
  artifacts.add_entry("window_policy",
                      obs::Json(cli.get("window-policy", "static")));
  artifacts.add_entry("theta_policy",
                      obs::Json(cli.get("theta-policy", "static")));
  if (network.fault != nullptr) {
    artifacts.add_entry("fault_plan", obs::Json(cli.get("fault-plan", "")));
    artifacts.add_entry("fault_injected_drops",
                        obs::Json(fault_total.injected_drops));
    artifacts.add_entry("fault_retransmits",
                        obs::Json(fault_total.retransmits));
    artifacts.add_entry("fault_duplicates_suppressed",
                        obs::Json(fault_total.duplicates_suppressed));
    artifacts.add_entry("degraded_entries", obs::Json(degraded_entries));
    artifacts.add_entry("degraded_iterations",
                        obs::Json(degraded_iterations));
  }
  for (const auto& unknown : cli.unused())
    std::fprintf(stderr, "warning: unknown option --%s\n", unknown.c_str());
  return artifacts.flush() ? 0 : 1;
}
