#include "apps/jacobi.hpp"

#include <algorithm>
#include <cmath>

#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace specomp::apps {

JacobiProblem make_jacobi_problem(std::size_t n, std::uint64_t seed,
                                  double dominance) {
  SPEC_EXPECTS(n > 0);
  SPEC_EXPECTS(dominance > 1.0);
  support::Xoshiro256 rng(seed);
  JacobiProblem problem;
  problem.n = n;
  problem.a.resize(n * n);
  problem.b.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double off_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double v = rng.uniform(-1.0, 1.0) / static_cast<double>(n);
      problem.a[i * n + j] = v;
      off_sum += std::fabs(v);
    }
    problem.a[i * n + i] = dominance * off_sum + 1e-3;
    problem.b[i] = rng.uniform(-1.0, 1.0);
  }
  return problem;
}

std::vector<double> serial_jacobi(const JacobiProblem& problem,
                                  long iterations) {
  const std::size_t n = problem.n;
  std::vector<double> x(n, 0.0);
  std::vector<double> next(n, 0.0);
  for (long t = 0; t < iterations; ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < n; ++j)
        if (j != i) acc += problem.at(i, j) * x[j];
      next[i] = (problem.b[i] - acc) / problem.at(i, i);
    }
    x.swap(next);
  }
  return x;
}

double jacobi_residual(const JacobiProblem& problem, std::span<const double> x) {
  SPEC_EXPECTS(x.size() == problem.n);
  double worst = 0.0;
  for (std::size_t i = 0; i < problem.n; ++i) {
    double row = -problem.b[i];
    for (std::size_t j = 0; j < problem.n; ++j) row += problem.at(i, j) * x[j];
    worst = std::max(worst, std::fabs(row));
  }
  return worst;
}

JacobiApp::JacobiApp(const JacobiProblem& problem,
                     const nbody::Partition& partition, int rank)
    : problem_(problem),
      partition_(partition),
      rank_(rank),
      lo_(partition.begin(static_cast<std::size_t>(rank))),
      count_(partition.counts[static_cast<std::size_t>(rank)]),
      x_(problem.n, 0.0),
      acc_(count_, 0.0) {
  SPEC_EXPECTS(partition.total() == problem.n);
  SPEC_EXPECTS(count_ > 0);
}

std::vector<double> JacobiApp::pack_local() const {
  return {x_.begin() + static_cast<long>(lo_),
          x_.begin() + static_cast<long>(lo_ + count_)};
}

void JacobiApp::install_peer(int peer, std::span<const double> block) {
  SPEC_EXPECTS(peer != rank_);
  const std::size_t plo = partition_.begin(static_cast<std::size_t>(peer));
  SPEC_EXPECTS(block.size() ==
               partition_.counts[static_cast<std::size_t>(peer)]);
  std::copy(block.begin(), block.end(), x_.begin() + static_cast<long>(plo));
}

void JacobiApp::compute_step() {
  // Jacobi semantics: every row reads the iteration-t view, so buffer the
  // new local values before writing them back.
  std::vector<double> next(count_);
  for (std::size_t r = 0; r < count_; ++r) {
    const std::size_t i = lo_ + r;
    double acc = 0.0;
    for (std::size_t j = 0; j < problem_.n; ++j)
      if (j != i) acc += problem_.at(i, j) * x_[j];
    acc_[r] = acc;
    next[r] = (problem_.b[i] - acc) / problem_.at(i, i);
  }
  std::copy(next.begin(), next.end(), x_.begin() + static_cast<long>(lo_));
}

double JacobiApp::compute_ops() const {
  return 2.0 * static_cast<double>(count_) * static_cast<double>(problem_.n);
}

double JacobiApp::speculation_error(int, std::span<const double> speculated,
                                    std::span<const double> actual) {
  // Relative max-norm difference of the block.
  double scale = 1e-12;
  for (double v : actual) scale = std::max(scale, std::fabs(v));
  double worst = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i)
    worst = std::max(worst, std::fabs(speculated[i] - actual[i]));
  return worst / scale;
}

double JacobiApp::check_ops(int peer) const {
  return 2.0 *
         static_cast<double>(partition_.counts[static_cast<std::size_t>(peer)]);
}

bool JacobiApp::correct_last_step(int peer, std::span<const double> actual) {
  // Swap the peer's contribution out of the stored row sums and recompute
  // the (cheap) division — an exact repair, like the N-body force delta.
  const std::size_t plo = partition_.begin(static_cast<std::size_t>(peer));
  const std::size_t pcount = partition_.counts[static_cast<std::size_t>(peer)];
  SPEC_EXPECTS(actual.size() == pcount);
  for (std::size_t r = 0; r < count_; ++r) {
    const std::size_t i = lo_ + r;
    double delta = 0.0;
    for (std::size_t j = 0; j < pcount; ++j) {
      // x_ still holds the speculated values for this peer.
      delta += problem_.at(i, plo + j) * (actual[j] - x_[plo + j]);
    }
    acc_[r] += delta;
    x_[i] = (problem_.b[i] - acc_[r]) / problem_.at(i, i);
  }
  install_peer(peer, actual);
  return true;
}

double JacobiApp::correct_ops(int peer) const {
  return 4.0 * static_cast<double>(count_) *
         static_cast<double>(partition_.counts[static_cast<std::size_t>(peer)]);
}

std::vector<double> JacobiApp::save_state() const { return pack_local(); }

void JacobiApp::restore_state(std::span<const double> state) {
  SPEC_EXPECTS(state.size() == count_);
  std::copy(state.begin(), state.end(), x_.begin() + static_cast<long>(lo_));
}

std::vector<std::vector<double>> JacobiApp::initial_blocks(
    const nbody::Partition& partition) {
  std::vector<std::vector<double>> blocks(partition.counts.size());
  for (std::size_t r = 0; r < partition.counts.size(); ++r)
    blocks[r].assign(partition.counts[r], 0.0);  // x(0) = 0
  return blocks;
}

JacobiRunResult run_jacobi_scenario(const JacobiScenario& scenario) {
  const std::size_t p = scenario.sim.cluster.size();
  SPEC_EXPECTS(p >= 1);
  const JacobiProblem problem =
      make_jacobi_problem(scenario.n, scenario.seed, scenario.dominance);
  const nbody::Partition partition = nbody::Partition::from_counts(
      scenario.sim.cluster.proportional_partition(scenario.n));

  std::vector<std::vector<double>> finals(p);
  const auto rank_body = [&](runtime::Communicator& comm,
                             const spec::RunEngine& run_engine) {
    JacobiApp app(problem, partition, comm.rank());
    run_engine(app, JacobiApp::initial_blocks(partition));
    const auto values = app.local_values();
    finals[static_cast<std::size_t>(comm.rank())]
        .assign(values.begin(), values.end());
  };
  JacobiRunResult result;
  static_cast<spec::AppRunResult&>(result) = spec::run_app_scenario(
      scenario, scenario.sim, scenario.iterations,
      {.scenario = "JacobiScenario", .rank_body = rank_body});
  for (const auto& segment : finals)
    result.solution.insert(result.solution.end(), segment.begin(),
                           segment.end());
  result.residual = jacobi_residual(problem, result.solution);
  return result;
}

JacobiRunResult run_jacobi_async(const JacobiScenario& scenario) {
  const std::size_t p = scenario.sim.cluster.size();
  SPEC_EXPECTS(p >= 1);
  const JacobiProblem problem =
      make_jacobi_problem(scenario.n, scenario.seed, scenario.dominance);
  const nbody::Partition partition = nbody::Partition::from_counts(
      scenario.sim.cluster.proportional_partition(scenario.n));

  constexpr int kTag = 7000;
  std::vector<std::vector<double>> finals(p);
  JacobiRunResult result;
  result.sim = runtime::run_simulated(
      scenario.sim, [&](runtime::Communicator& comm) {
        JacobiApp app(problem, partition, comm.rank());
        for (long t = 0; t < scenario.iterations; ++t) {
          // Broadcast the current block, then fold in whatever has arrived
          // (later messages overwrite earlier ones — install newest last).
          const std::vector<double> block = app.pack_local();
          for (int k = 0; k < comm.size(); ++k)
            if (k != comm.rank()) comm.send_doubles(k, kTag, block);
          net::Message msg;
          for (int k = 0; k < comm.size(); ++k) {
            if (k == comm.rank()) continue;
            while (comm.try_recv(k, kTag, msg)) {
              net::ByteReader reader(msg.payload);
              const std::vector<double> peer_block =
                  reader.read_vector<double>();
              app.install_peer(k, peer_block);
            }
          }
          app.compute_step();
          comm.compute(app.compute_ops());
          comm.timer().bump_iterations();
        }
        // In-flight stragglers are simply delivered after the rank finishes;
        // asynchronous iteration never waits for them.
        const auto values = app.local_values();
        finals[static_cast<std::size_t>(comm.rank())]
            .assign(values.begin(), values.end());
      });

  for (std::size_t r = 0; r < p; ++r)
    for (double v : finals[r]) result.solution.push_back(v);
  result.residual = jacobi_residual(problem, result.solution);
  return result;
}

}  // namespace specomp::apps
