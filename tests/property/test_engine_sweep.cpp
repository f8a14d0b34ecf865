// Property sweep over the speculation engine's configuration space.
//
// For every combination of rank count, forward window, threshold and
// speculation function, the engine must uphold its core invariants:
// accounting consistency, eventual verification of every speculation,
// determinism, and -- for the fully-rejecting threshold -- bitwise
// equivalence with the no-speculation baseline.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "runtime/sim_comm.hpp"
#include "spec/engine.hpp"
#include "spec/toy_app.hpp"

namespace specomp::spec {
namespace {

using runtime::Cluster;
using runtime::Communicator;
using testing::ToyApp;

struct SweepCase {
  int ranks;
  int forward_window;
  double threshold;
  std::string speculator;
};

struct SweepOutcome {
  std::vector<double> finals;
  std::vector<SpecStats> stats;
  double makespan = 0.0;
};

SweepOutcome run_case(const SweepCase& c, long iterations = 12) {
  runtime::SimConfig config;
  config.cluster = Cluster::linear(static_cast<std::size_t>(c.ranks), 2e4, 3.0);
  config.channel.bandwidth_bytes_per_sec = 5e4;
  config.channel.extra_delay =
      std::make_shared<net::UniformJitter>(des::SimTime::millis(30));
  config.send_sw_time = des::SimTime::micros(50);

  SweepOutcome out;
  out.finals.resize(static_cast<std::size_t>(c.ranks));
  out.stats.resize(static_cast<std::size_t>(c.ranks));
  const runtime::SimResult result =
      runtime::run_simulated(config, [&](Communicator& comm) {
        ToyApp app(comm.rank(), c.ranks, /*coupling=*/0.015, /*drift=*/0.3);
        EngineConfig engine_config;
        engine_config.forward_window = c.forward_window;
        engine_config.threshold = c.threshold;
        if (c.forward_window > 0)
          engine_config.speculator = make_speculator(c.speculator);
        SpecEngine engine(comm, app, engine_config,
                          ToyApp::initial_blocks(c.ranks));
        out.stats[static_cast<std::size_t>(comm.rank())] =
            engine.run(iterations);
        out.finals[static_cast<std::size_t>(comm.rank())] = app.value();
      });
  out.makespan = result.makespan_seconds;
  return out;
}

class EngineSweep
    : public ::testing::TestWithParam<std::tuple<int, int, double, std::string>> {
 protected:
  SweepCase param() const {
    const auto& [ranks, fw, theta, spec] = GetParam();
    return SweepCase{ranks, fw, theta, spec};
  }
};

TEST_P(EngineSweep, AccountingInvariantsHold) {
  const SweepCase c = param();
  const SweepOutcome out = run_case(c);
  for (const auto& st : out.stats) {
    EXPECT_EQ(st.iterations, 12u);
    // Every speculation is checked exactly once by the final drain.
    EXPECT_EQ(st.checks, st.blocks_speculated);
    EXPECT_LE(st.failures, st.checks);
    EXPECT_EQ(st.error.count(), st.checks);
    EXPECT_EQ(st.incremental_corrections, 0u);  // ToyApp has no cheap repair
    if (c.forward_window == 0) {
      EXPECT_EQ(st.blocks_speculated, 0u);
    }
    if (st.failures == 0) {
      EXPECT_EQ(st.replayed_iterations, 0u);
    }
  }
  for (const double v : out.finals) EXPECT_TRUE(std::isfinite(v));
}

TEST_P(EngineSweep, DeterministicReplay) {
  const SweepCase c = param();
  const SweepOutcome a = run_case(c);
  const SweepOutcome b = run_case(c);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  for (std::size_t r = 0; r < a.finals.size(); ++r) {
    EXPECT_EQ(a.finals[r], b.finals[r]);
    EXPECT_EQ(a.stats[r].blocks_speculated, b.stats[r].blocks_speculated);
    EXPECT_EQ(a.stats[r].failures, b.stats[r].failures);
    EXPECT_EQ(a.stats[r].replayed_iterations, b.stats[r].replayed_iterations);
  }
}

TEST_P(EngineSweep, ZeroThresholdMatchesBaseline) {
  SweepCase c = param();
  if (c.forward_window == 0) GTEST_SKIP() << "baseline is the subject";
  c.threshold = 0.0;
  const SweepOutcome spec_run = run_case(c);
  SweepCase base = c;
  base.forward_window = 0;
  const SweepOutcome base_run = run_case(base);
  for (std::size_t r = 0; r < spec_run.finals.size(); ++r) {
    if (c.forward_window == 1) {
      // FW = 1 verifies every input before the next send, so a
      // fully-rejecting threshold reproduces the baseline bit-for-bit.
      EXPECT_DOUBLE_EQ(spec_run.finals[r], base_run.finals[r]) << "rank " << r;
    } else {
      // FW >= 2 may send blocks computed from still-unverified speculation
      // and never re-sends after a correction (the paper's bounded-error
      // approximation), so peers consume slightly stale data: near, not
      // bitwise, equality.
      EXPECT_NEAR(spec_run.finals[r], base_run.finals[r],
                  1e-2 * std::fabs(base_run.finals[r]))
          << "rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineSweep,
    ::testing::Combine(::testing::Values(2, 3, 5),
                       ::testing::Values(0, 1, 2, 3),
                       ::testing::Values(0.0, 1e-3, 1e9),
                       ::testing::Values(std::string("hold-last"),
                                         std::string("linear"),
                                         std::string("quadratic"))),
    [](const ::testing::TestParamInfo<EngineSweep::ParamType>& info) {
      const double theta = std::get<2>(info.param);
      const std::string theta_name = theta == 0.0    ? "strict"
                                     : theta >= 1.0 ? "lenient"
                                                     : "tight";
      std::string spec_name = std::get<3>(info.param);
      for (auto& ch : spec_name)
        if (ch == '-') ch = '_';
      return std::string("p").append(std::to_string(std::get<0>(info.param))) +
             "_fw" + std::to_string(std::get<1>(info.param)) + "_" +
             theta_name + "_" + spec_name;
    });

// Deeper windows may never slow the pipeline down on a clean, jitter-free
// latency-bound channel with a perfectly predictable signal.
TEST(EngineMonotonicity, DeeperWindowNeverSlowerWhenPredictionsPerfect) {
  auto makespan_with_fw = [](int fw) {
    runtime::SimConfig config;
    config.cluster = Cluster::homogeneous(3, 2e4);
    config.channel.propagation = des::SimTime::millis(400);
    config.send_sw_time = des::SimTime::zero();
    double makespan = 0.0;
    runtime::run_simulated(config, [&](Communicator& comm) {
      ToyApp app(comm.rank(), 3, 0.0, 0.5);  // affine: linear spec is exact
      EngineConfig engine_config;
      engine_config.forward_window = fw;
      engine_config.threshold = 1e9;
      if (fw > 0) engine_config.speculator = make_speculator("linear");
      SpecEngine engine(comm, app, engine_config, ToyApp::initial_blocks(3));
      engine.run(20);
      makespan = std::max(makespan, comm.time_seconds());
    });
    return makespan;
  };
  double last = makespan_with_fw(0);
  for (int fw = 1; fw <= 4; ++fw) {
    const double t = makespan_with_fw(fw);
    EXPECT_LE(t, last * 1.0001) << "FW=" << fw;
    last = t;
  }
}

}  // namespace
}  // namespace specomp::spec
