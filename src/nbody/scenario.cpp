#include "nbody/scenario.hpp"

#include <string_view>
#include <utility>

#include "nbody/app.hpp"
#include "nbody/baseline.hpp"
#include "nbody/init.hpp"
#include "support/contracts.hpp"

namespace specomp::nbody {

NBodyScenario paper_testbed_scenario(std::size_t p, long iterations,
                                     std::uint64_t channel_seed) {
  NBodyScenario s;
  s.body.n = 1000;
  s.body.dt = 0.03;
  s.body.softening2 = 1e-3;
  s.body.init = InitKind::Plummer;
  s.body.seed = 42;
  s.iterations = iterations;
  s.algorithm = Algorithm::Speculative;
  s.forward_window = 1;
  s.theta = 0.01;
  s.sim.cluster = runtime::Cluster::paper_fleet().prefix(p);
  s.sim.channel = paper_channel_config(channel_seed);
  // Large, variable per-message latency: PVM daemon store-and-forward,
  // ethernet contention and background load on 1994 time-shared hosts.
  s.sim.channel.propagation = des::SimTime::millis(5500);
  s.sim.channel.extra_delay =
      std::make_shared<net::ExponentialJitter>(des::SimTime::millis(600));
  s.sim.send_sw_time = des::SimTime::millis(3);
  return s;
}

net::ChannelConfig paper_channel_config(std::uint64_t seed) {
  net::ChannelConfig config;
  config.bandwidth_bytes_per_sec = 1.25e6;  // 10 Mb/s ethernet
  config.per_message_overhead_bytes = 64;
  config.propagation = des::SimTime::micros(100);
  // Modest exponential jitter models the paper's "large variations due to
  // non-deterministic network traffic".
  config.extra_delay =
      std::make_shared<net::ExponentialJitter>(des::SimTime::millis(2));
  config.seed = seed;
  return config;
}

NBodyRunResult run_scenario(const NBodyScenario& scenario) {
  const std::size_t p = scenario.sim.cluster.size();
  SPEC_EXPECTS(p >= 1);
  SPEC_EXPECTS(scenario.iterations >= 1);

  const std::vector<Particle> initial = make_initial_conditions(scenario.body);
  const Partition partition = Partition::from_counts(
      scenario.sim.cluster.proportional_partition(initial.size()));

  std::vector<std::vector<Particle>> finals(p);
  std::vector<support::OnlineStats> force_errors(p);
  const auto rank_body = [&](runtime::Communicator& comm,
                             const spec::RunEngine& run_engine) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    if (scenario.algorithm == Algorithm::Fig7Baseline) {
      run_fig7_rank(comm, scenario.body, partition, initial,
                    scenario.iterations, finals[rank]);
      return;
    }
    NBodyApp app(scenario.body, partition, initial, comm.rank());
    app.enable_force_error_measurement(scenario.measure_force_error);
    app.set_accept_threshold(scenario.theta);
    run_engine(app, NBodyApp::initial_blocks(partition, initial));
    finals[rank] = app.local_particles();
    force_errors[rank] = app.force_error_stats();
  };
  const auto make_speculator =
      [&](std::string_view name) -> std::shared_ptr<spec::Speculator> {
    if (name == "kinematic")
      return std::make_shared<KinematicSpeculator>(scenario.body.dt);
    return spec::make_speculator(name);
  };
  NBodyRunResult result;
  static_cast<spec::AppRunResult&>(result) = spec::run_app_scenario(
      scenario, scenario.sim, scenario.iterations,
      {.scenario = "NBodyScenario",
       .rank_body = rank_body,
       .make_speculator = make_speculator});
  for (std::size_t r = 0; r < p; ++r) {
    result.force_error.merge(force_errors[r]);
    for (const auto& particle : finals[r])
      result.final_particles.push_back(particle);
  }

  const auto iters = static_cast<double>(scenario.iterations);
  double comm_sum = 0.0;
  double compute_sum = 0.0;
  double speculate_sum = 0.0;
  double check_sum = 0.0;
  double correct_sum = 0.0;
  for (const auto& timer : result.sim.timers) {
    comm_sum += timer.get(runtime::Phase::Communicate).to_seconds();
    compute_sum += timer.get(runtime::Phase::Compute).to_seconds();
    speculate_sum += timer.get(runtime::Phase::Speculate).to_seconds();
    check_sum += timer.get(runtime::Phase::Check).to_seconds();
    correct_sum += timer.get(runtime::Phase::Correct).to_seconds();
  }
  const double denom = static_cast<double>(p) * iters;
  result.mean_comm_per_iteration = comm_sum / denom;
  result.mean_compute_per_iteration = compute_sum / denom;
  result.mean_speculate_per_iteration = speculate_sum / denom;
  result.mean_check_per_iteration = check_sum / denom;
  result.mean_correct_per_iteration = correct_sum / denom;
  result.time_per_iteration = result.sim.makespan_seconds / iters;
  return result;
}

}  // namespace specomp::nbody
