// Scenario driver: configures and executes one simulated N-body run.
//
// This is the top-level entry the benchmark harnesses and examples use to
// regenerate the paper's measurements: pick a fleet, a network, a forward
// window and a threshold; get back makespan, per-phase times, speculation
// statistics and the final particle state.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nbody/types.hpp"
#include "runtime/sim_comm.hpp"
#include "spec/driver.hpp"
#include "spec/engine.hpp"
#include "spec/stats.hpp"
#include "support/stats.hpp"

namespace specomp::nbody {

enum class Algorithm {
  Fig7Baseline,  // the paper's no-speculation algorithm (arrival-order folds)
  Speculative,   // the Fig. 3 engine; forward_window = 0 degenerates to Fig. 1
};

/// Engine options (spec::EngineOptions) plus the N-body problem.  FW
/// (forward_window) is ignored by Fig7Baseline; θ is the paper's error
/// threshold (0.01 in Fig. 8); the speculator defaults to "kinematic" (paper
/// eq. 10), with the generic "hold-last", "linear" and "quadratic" also
/// accepted.
struct NBodyScenario : spec::EngineOptions {
  NBodyScenario() {
    speculator = "kinematic";
    // The testbed's healthy round trip is ~5.5-6 s propagation + backoff,
    // so degradation only fires on genuinely faulted links.
    overdue_after_seconds = 3.0;
    max_degraded_window = 12;
  }

  NBodyConfig body;
  runtime::SimConfig sim;  // cluster (p = cluster.size()), channel, overheads
  long iterations = 20;
  Algorithm algorithm = Algorithm::Speculative;
  /// Collect the true force-error distribution (Table 3); costly.
  bool measure_force_error = false;
};

/// The simulation, merged speculation statistics (zeros for Fig. 7) and
/// controller trace of spec::AppRunResult, plus the N-body outputs.
struct NBodyRunResult : spec::AppRunResult {
  /// Full final particle state, in partition order.
  std::vector<Particle> final_particles;
  /// True force-error samples (only when measure_force_error was set).
  support::OnlineStats force_error;
  /// Mean per-iteration communication (blocked) time across ranks.
  double mean_comm_per_iteration = 0.0;
  /// Mean per-iteration times of the remaining phases across ranks.
  double mean_compute_per_iteration = 0.0;
  double mean_speculate_per_iteration = 0.0;
  double mean_check_per_iteration = 0.0;
  double mean_correct_per_iteration = 0.0;
  /// Makespan per iteration (total time / iterations).
  double time_per_iteration = 0.0;
};

/// Runs the scenario on the deterministic simulated cluster.
NBodyRunResult run_scenario(const NBodyScenario& scenario);

/// Fast-LAN channel: 10 Mb/s shared ethernet wire model with light jitter.
/// Used by tests and as a building block; the paper's measured testbed was
/// far slower — see paper_testbed_scenario().
net::ChannelConfig paper_channel_config(std::uint64_t seed = 0x5eedc0ffee);

/// The calibrated reproduction of the paper's measured environment
/// (Section 5): the heterogeneous 16-workstation fleet of
/// Cluster::paper_fleet(), a 10 Mb/s shared wire, and a large, variable
/// per-message latency (5.5 s + Exp(0.6 s)) standing in for PVM daemon
/// routing, ethernet contention and background load on time-shared hosts.
/// With N = 1000 and dt = 0.03 this lands on the paper's operating point:
/// ~6.6 s compute and ~4.5 s blocked communication per iteration at p = 16
/// without speculation, 34-38% speedup gain with FW = 1, and FW = 2 within
/// a few percent of the maximum attainable speedup.  `p` selects the
/// fastest p machines, as in the paper.
NBodyScenario paper_testbed_scenario(std::size_t p, long iterations = 10,
                                     std::uint64_t channel_seed = 0x5eedc0ffee);

}  // namespace specomp::nbody
