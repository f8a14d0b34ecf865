// Minimal synchronous iterative application for engine tests.
//
// Each rank owns one variable; the iteration rule is
//   x_j(t+1) = x_j(t) + coupling * sum_k x_k(t) + drift_j
// plus an optional scripted jump at a chosen iteration, which makes
// speculation fail on demand.  With coupling = 0 trajectories are affine in
// t, so a linear speculator becomes exact once it has two history points.
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "spec/app.hpp"

namespace specomp::spec::testing {

class ToyApp final : public SyncIterativeApp {
 public:
  ToyApp(int rank, int size, double coupling, double drift,
         long jump_iteration = -1, double jump_size = 0.0)
      : rank_(rank),
        size_(size),
        coupling_(coupling),
        drift_(drift),
        jump_iteration_(jump_iteration),
        jump_size_(jump_size),
        view_(static_cast<std::size_t>(size), 0.0) {
    // Deterministic distinct initial values.
    for (int r = 0; r < size; ++r)
      view_[static_cast<std::size_t>(r)] = initial_value(r);
    x_ = view_[static_cast<std::size_t>(rank)];
  }

  static double initial_value(int rank) { return 1.0 + rank; }

  static std::vector<std::vector<double>> initial_blocks(int size) {
    std::vector<std::vector<double>> blocks(static_cast<std::size_t>(size));
    for (int r = 0; r < size; ++r)
      blocks[static_cast<std::size_t>(r)] = {initial_value(r)};
    return blocks;
  }

  std::vector<double> pack_local() const override { return {x_}; }

  void install_peer(int peer, std::span<const double> block) override {
    view_[static_cast<std::size_t>(peer)] = block[0];
  }

  void compute_step() override {
    view_[static_cast<std::size_t>(rank_)] = x_;
    double sum = 0.0;
    for (double v : view_) sum += v;
    x_ = x_ + coupling_ * sum + drift_;
    if (iteration_ == jump_iteration_) x_ += jump_size_;
    ++iteration_;
  }

  double compute_ops() const override { return 100.0; }

  double speculation_error(int, std::span<const double> speculated,
                           std::span<const double> actual) override {
    return std::fabs(speculated[0] - actual[0]);
  }

  double check_ops(int) const override { return 5.0; }

  // No incremental correction: every failure exercises rollback + replay.

  std::vector<double> save_state() const override {
    return {x_, static_cast<double>(iteration_)};
  }

  void restore_state(std::span<const double> state) override {
    x_ = state[0];
    iteration_ = static_cast<long>(state[1]);
  }

  double value() const noexcept { return x_; }
  long iteration() const noexcept { return iteration_; }

 private:
  // specomp: rollback-covered(rank_): immutable rank index; only ever read
  int rank_;
  int size_;
  double coupling_;
  double drift_;
  long jump_iteration_;
  double jump_size_;
  double x_ = 0.0;
  long iteration_ = 0;
  // specomp: rollback-covered(view_): peer entries are rewritten by
  // install_peer during replay and the own entry by compute_step before the
  // coupling sum is read
  std::vector<double> view_;
};

}  // namespace specomp::spec::testing
