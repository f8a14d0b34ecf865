// Jacobi iterative linear solver under the speculation engine.
//
// Demonstrates the paper's claim that speculative computation "can be
// applied to a host of parallel algorithms": solving A x = b by Jacobi
// iteration is the canonical synchronous iterative algorithm (their
// Section 2 model, eq. 1-2, with F the Jacobi update).  Each rank owns a
// contiguous block of unknowns; the iteration needs every other rank's
// block, so the communication structure is identical to the N-body case and
// the same engine, speculators and error machinery apply unchanged.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nbody/types.hpp"
#include "runtime/sim_comm.hpp"
#include "spec/app.hpp"
#include "spec/driver.hpp"
#include "spec/stats.hpp"

namespace specomp::apps {

/// Dense diagonally dominant system (guaranteed Jacobi convergence).
struct JacobiProblem {
  std::size_t n = 0;
  std::vector<double> a;  // row-major n x n
  std::vector<double> b;

  double at(std::size_t row, std::size_t col) const { return a[row * n + col]; }
};

/// Random diagonally dominant system; `dominance` > 1 sets the ratio of
/// |diagonal| to the off-diagonal row sum (larger = faster convergence).
JacobiProblem make_jacobi_problem(std::size_t n, std::uint64_t seed,
                                  double dominance = 2.0);

/// Serial reference: `iterations` Jacobi sweeps from x = 0.
std::vector<double> serial_jacobi(const JacobiProblem& problem, long iterations);

/// Max-norm residual ||Ax - b||_inf.
double jacobi_residual(const JacobiProblem& problem, std::span<const double> x);

class JacobiApp final : public spec::SyncIterativeApp {
 public:
  JacobiApp(const JacobiProblem& problem, const nbody::Partition& partition,
            int rank);

  std::vector<double> pack_local() const override;
  void install_peer(int peer, std::span<const double> block) override;
  void compute_step() override;
  double compute_ops() const override;
  double speculation_error(int peer, std::span<const double> speculated,
                           std::span<const double> actual) override;
  double check_ops(int peer) const override;
  bool correct_last_step(int peer, std::span<const double> actual) override;
  double correct_ops(int peer) const override;
  std::vector<double> save_state() const override;
  void restore_state(std::span<const double> state) override;

  static std::vector<std::vector<double>> initial_blocks(
      const nbody::Partition& partition);

  std::span<const double> local_values() const {
    return {x_.data() + lo_, count_};
  }

 private:
  const JacobiProblem& problem_;
  nbody::Partition partition_;
  int rank_;
  std::size_t lo_ = 0;
  std::size_t count_ = 0;
  std::vector<double> x_;    // full view; authoritative on [lo_, lo_+count_)
  // specomp: rollback-covered(acc_): rewritten in full by every compute_step
  // before correct_last_step applies deltas; replay regenerates it
  std::vector<double> acc_;  // last step's off-diagonal row sums (local rows)
};

struct JacobiScenario : spec::EngineOptions {
  JacobiScenario() { theta = 1e-3; }

  std::size_t n = 200;
  std::uint64_t seed = 99;
  double dominance = 2.0;
  long iterations = 30;
  runtime::SimConfig sim;
};

struct JacobiRunResult : spec::AppRunResult {
  std::vector<double> solution;  // assembled final x
  double residual = 0.0;
};

JacobiRunResult run_jacobi_scenario(const JacobiScenario& scenario);

/// Fully asynchronous Jacobi (the paper's related work: Bertsekas &
/// Tsitsiklis; Womble): ranks never block — each sweep uses whatever peer
/// values have arrived so far ("chaotic relaxation").  Converges for the
/// diagonally dominant systems generated here, but tolerates staleness by
/// spending extra sweeps rather than masking latency with checked guesses;
/// a baseline for the speculation comparison (forward_window/theta/
/// speculator fields of the scenario are ignored).
JacobiRunResult run_jacobi_async(const JacobiScenario& scenario);

}  // namespace specomp::apps
