#include "apps/heat.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace specomp::apps {

std::vector<double> heat_initial_condition(const HeatProblem& problem) {
  support::Xoshiro256 rng(problem.seed);
  std::vector<double> u(problem.n, 0.0);
  for (int bump = 0; bump < 3; ++bump) {
    const double centre = rng.uniform(0.2, 0.8) * static_cast<double>(problem.n);
    const double width = rng.uniform(0.02, 0.08) * static_cast<double>(problem.n);
    const double height = rng.uniform(0.5, 1.5);
    for (std::size_t i = 0; i < problem.n; ++i) {
      const double d = (static_cast<double>(i) - centre) / width;
      u[i] += height * std::exp(-d * d);
    }
  }
  return u;
}

namespace {

double stencil(double left, double centre, double right, double alpha) {
  return centre + alpha * (left - 2.0 * centre + right);
}

}  // namespace

std::vector<double> serial_heat(const HeatProblem& problem, long iterations) {
  SPEC_EXPECTS(problem.alpha > 0.0 && problem.alpha <= 0.5);
  std::vector<double> u = heat_initial_condition(problem);
  std::vector<double> next(u.size());
  for (long t = 0; t < iterations; ++t) {
    for (std::size_t i = 0; i < u.size(); ++i) {
      const double left = i == 0 ? 0.0 : u[i - 1];
      const double right = i + 1 == u.size() ? 0.0 : u[i + 1];
      next[i] = stencil(left, u[i], right, problem.alpha);
    }
    u.swap(next);
  }
  return u;
}

HeatApp::HeatApp(const HeatProblem& problem, const nbody::Partition& partition,
                 int rank)
    : problem_(problem),
      partition_(partition),
      rank_(rank),
      lo_(partition.begin(static_cast<std::size_t>(rank))),
      count_(partition.counts[static_cast<std::size_t>(rank)]),
      u_(heat_initial_condition(problem)),
      prev_u_(count_, 0.0) {
  SPEC_EXPECTS(partition.total() == problem.n);
  SPEC_EXPECTS(count_ > 0);
  SPEC_EXPECTS(problem.alpha > 0.0 && problem.alpha <= 0.5);
}

double HeatApp::cell_or_boundary(std::size_t index_plus_one) const {
  // index_plus_one = global index + 1, so 0 means the left ghost cell.
  if (index_plus_one == 0 || index_plus_one > problem_.n) return 0.0;
  return u_[index_plus_one - 1];
}

std::vector<double> HeatApp::pack_local() const {
  return {u_.begin() + static_cast<long>(lo_),
          u_.begin() + static_cast<long>(lo_ + count_)};
}

void HeatApp::install_peer(int peer, std::span<const double> block) {
  SPEC_EXPECTS(peer != rank_);
  const std::size_t plo = partition_.begin(static_cast<std::size_t>(peer));
  SPEC_EXPECTS(block.size() ==
               partition_.counts[static_cast<std::size_t>(peer)]);
  std::copy(block.begin(), block.end(), u_.begin() + static_cast<long>(plo));
}

void HeatApp::compute_step() {
  std::copy(u_.begin() + static_cast<long>(lo_),
            u_.begin() + static_cast<long>(lo_ + count_), prev_u_.begin());
  std::vector<double> next(count_);
  for (std::size_t r = 0; r < count_; ++r) {
    const std::size_t i = lo_ + r;
    next[r] = stencil(cell_or_boundary(i), u_[i], cell_or_boundary(i + 2),
                      problem_.alpha);
  }
  std::copy(next.begin(), next.end(), u_.begin() + static_cast<long>(lo_));
}

double HeatApp::compute_ops() const {
  return 5.0 * static_cast<double>(count_);
}

double HeatApp::speculation_error(int peer, std::span<const double> speculated,
                                  std::span<const double> actual) {
  // Only a neighbouring segment's halo cell influences this rank; errors in
  // any other cell (or any other rank's block) are irrelevant.
  if (peer == rank_ - 1)
    return std::fabs(speculated.back() - actual.back());
  if (peer == rank_ + 1)
    return std::fabs(speculated.front() - actual.front());
  return 0.0;
}

double HeatApp::check_ops(int) const { return 2.0; }

bool HeatApp::correct_last_step(int peer, std::span<const double> actual) {
  if (peer != rank_ - 1 && peer != rank_ + 1) return true;  // no influence
  install_peer(peer, actual);
  // Recompute the single boundary cell the halo feeds, from the pre-update
  // segment and the repaired view.
  const std::size_t r = peer == rank_ - 1 ? 0 : count_ - 1;
  const std::size_t i = lo_ + r;
  const double left =
      r == 0 ? cell_or_boundary(i) : prev_u_[r - 1];
  const double right =
      r + 1 == count_ ? cell_or_boundary(i + 2) : prev_u_[r + 1];
  u_[i] = stencil(left, prev_u_[r], right, problem_.alpha);
  return true;
}

double HeatApp::correct_ops(int) const { return 8.0; }

std::vector<double> HeatApp::save_state() const { return pack_local(); }

void HeatApp::restore_state(std::span<const double> state) {
  SPEC_EXPECTS(state.size() == count_);
  std::copy(state.begin(), state.end(), u_.begin() + static_cast<long>(lo_));
}

std::vector<std::vector<double>> HeatApp::initial_blocks(
    const nbody::Partition& partition, std::span<const double> u0) {
  std::vector<std::vector<double>> blocks(partition.counts.size());
  for (std::size_t r = 0; r < partition.counts.size(); ++r)
    blocks[r].assign(u0.begin() + static_cast<long>(partition.begin(r)),
                     u0.begin() + static_cast<long>(partition.end(r)));
  return blocks;
}

HeatRunResult run_heat_scenario(const HeatScenario& scenario) {
  const std::size_t p = scenario.sim.cluster.size();
  SPEC_EXPECTS(p >= 1);
  const nbody::Partition partition = nbody::Partition::from_counts(
      scenario.sim.cluster.proportional_partition(scenario.problem.n));
  const std::vector<double> u0 = heat_initial_condition(scenario.problem);

  std::vector<std::vector<double>> finals(p);
  const auto rank_body = [&](runtime::Communicator& comm,
                             const spec::RunEngine& run_engine) {
    HeatApp app(scenario.problem, partition, comm.rank());
    run_engine(app, HeatApp::initial_blocks(partition, u0));
    const auto values = app.local_values();
    finals[static_cast<std::size_t>(comm.rank())]
        .assign(values.begin(), values.end());
  };
  HeatRunResult result;
  static_cast<spec::AppRunResult&>(result) = spec::run_app_scenario(
      scenario, scenario.sim, scenario.iterations,
      {.scenario = "HeatScenario", .rank_body = rank_body});
  for (const auto& segment : finals)
    result.field.insert(result.field.end(), segment.begin(), segment.end());
  return result;
}

}  // namespace specomp::apps
