// 1-D explicit heat diffusion under the speculation engine.
//
// The stencil u_i(t+1) = u_i + alpha (u_{i-1} - 2 u_i + u_{i+1}) with fixed
// zero boundaries.  Each rank owns a contiguous segment; only the two halo
// cells of the neighbouring segments are actually read, which makes this the
// sharpest demonstration of an application-defined speculation error
// (paper Section 3.2, "defining an appropriate speculation function ... is
// important"): the error metric inspects just the cells that influence the
// local update, so speculation on non-neighbour ranks is always acceptable.
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

struct HeatProblem {
  std::size_t n = 256;
  /// Diffusion number alpha = D dt / dx^2; stability requires <= 0.5.
  double alpha = 0.25;
  std::uint64_t seed = 7;
};

/// Initial condition: sum of a few smooth bumps (deterministic in seed).
std::vector<double> heat_initial_condition(const HeatProblem& problem);

/// Serial reference sweep.
std::vector<double> serial_heat(const HeatProblem& problem, long iterations);

class HeatApp final : public spec::SyncIterativeApp {
 public:
  HeatApp(const HeatProblem& problem, const nbody::Partition& partition,
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
      const nbody::Partition& partition, std::span<const double> u0);

  std::span<const double> local_values() const {
    return {u_.data() + lo_, count_};
  }

 private:
  double cell_or_boundary(std::size_t index_plus_one) const;

  HeatProblem problem_;
  nbody::Partition partition_;
  int rank_;
  std::size_t lo_ = 0;
  std::size_t count_ = 0;
  std::vector<double> u_;       // full view
  // specomp: rollback-covered(prev_u_): refreshed from u_ at the top of
  // every compute_step before any read; replay regenerates it
  std::vector<double> prev_u_;  // local segment before the last update
};

struct HeatScenario : spec::EngineOptions {
  HeatScenario() { theta = 1e-4; }

  HeatProblem problem;
  long iterations = 50;
  runtime::SimConfig sim;
};

struct HeatRunResult : spec::AppRunResult {
  std::vector<double> field;  // assembled final u
};

HeatRunResult run_heat_scenario(const HeatScenario& scenario);

}  // namespace specomp::apps
