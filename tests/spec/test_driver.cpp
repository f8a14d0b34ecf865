#include "spec/driver.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/fault.hpp"
#include "toy_app.hpp"

namespace specomp::spec {
namespace {

using testing::ToyApp;

constexpr int kRanks = 3;

runtime::SimConfig toy_sim() {
  runtime::SimConfig config;
  config.cluster = runtime::Cluster::homogeneous(kRanks, 1e4);
  config.channel.bandwidth_bytes_per_sec = 1e5;
  config.channel.extra_delay = nullptr;
  config.send_sw_time = des::SimTime::zero();
  return config;
}

AppSpec toy_spec() {
  return {.scenario = "ToyScenario",
          .rank_body = [](runtime::Communicator& comm,
                          const RunEngine& run_engine) {
            ToyApp app(comm.rank(), kRanks, 0.0, 0.5);
            run_engine(app, ToyApp::initial_blocks(kRanks));
          }};
}

// ---- run_app_scenario ----

TEST(RunAppScenario, MergesEveryRanksStatsAndKeepsRankZerosControlLog) {
  EngineOptions options;
  options.window_policy = "heuristic";
  options.record_control_log = true;
  const AppRunResult run =
      run_app_scenario(options, toy_sim(), 12, toy_spec());
  EXPECT_EQ(run.spec.iterations, static_cast<std::uint64_t>(kRanks) * 12);
  EXPECT_GT(run.spec.blocks_speculated, 0u);
  // One sample per exchanging iteration; iteration 0 is compute-only.
  ASSERT_EQ(run.control_log.size(), 11u);
  EXPECT_EQ(run.control_log.front().iteration, 1);
  EXPECT_EQ(run.control_log.back().iteration, 11);
}

TEST(RunAppScenario, RankBodyThatSkipsTheEngineLeavesZeroStats) {
  // The N-body Fig. 7 baseline takes this path: the rank body runs its own
  // algorithm and never calls run_engine.
  AppSpec spec = toy_spec();
  spec.rank_body = [](runtime::Communicator& comm, const RunEngine&) {
    comm.compute(1e4);
  };
  const AppRunResult run = run_app_scenario({}, toy_sim(), 5, spec);
  EXPECT_EQ(run.spec.iterations, 0u);
  EXPECT_DOUBLE_EQ(run.sim.makespan_seconds, 1.0);
}

TEST(RunAppScenario, NamesAreCheckedBeforeAnyRankRuns) {
  int rank_bodies_run = 0;
  AppSpec spec = toy_spec();
  spec.rank_body = [&](runtime::Communicator&, const RunEngine&) {
    ++rank_bodies_run;
  };
  EngineOptions options;
  options.speculator = "weighted";
  try {
    (void)run_app_scenario(options, toy_sim(), 5, spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "ToyScenario: unknown speculator \"weighted\"");
  }
  EXPECT_EQ(rank_bodies_run, 0);
}

// ---- bind_engine_cli ----

support::Cli make_cli(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return support::Cli(static_cast<int>(argv.size()), argv.data());
}

struct Bound {
  std::string error;
  EngineOptions options;
  runtime::SimConfig sim;
};

Bound bind(std::initializer_list<const char*> args) {
  Bound out;
  out.error = bind_engine_cli(make_cli(args), out.options, out.sim, 2.5);
  return out;
}

TEST(BindEngineCli, DefaultsLeaveEverythingStatic) {
  const Bound b = bind({});
  EXPECT_EQ(b.error, "");
  EXPECT_EQ(b.options.window_policy, "");
  EXPECT_EQ(b.options.theta_policy, "");
  EXPECT_FALSE(b.options.graceful_degradation);
  EXPECT_FALSE(b.sim.hb_check);
  EXPECT_EQ(b.sim.fault, nullptr);
}

TEST(BindEngineCli, EachFlagSetsItsField) {
  EXPECT_EQ(bind({"--window-policy=model"}).options.window_policy, "model");
  EXPECT_EQ(bind({"--theta-policy=adaptive"}).options.theta_policy,
            "adaptive");
  EXPECT_TRUE(bind({"--hb-check"}).sim.hb_check);

  const Bound faulted = bind({"--fault-plan=drop:0.05", "--fault-seed=77"});
  EXPECT_EQ(faulted.error, "");
  ASSERT_NE(faulted.sim.fault, nullptr);
  EXPECT_TRUE(faulted.options.graceful_degradation);
  EXPECT_EQ(faulted.sim.fault->config().seed, 77u);
  EXPECT_DOUBLE_EQ(faulted.sim.fault->config().retransmit_timeout_seconds,
                   2.5);
  EXPECT_TRUE(faulted.sim.fault->has_link_faults());
}

TEST(BindEngineCli, StaticNamesKeepTheFieldsEmpty) {
  const Bound b = bind({"--window-policy=static", "--theta-policy=static"});
  EXPECT_EQ(b.error, "");
  EXPECT_EQ(b.options.window_policy, "");
  EXPECT_EQ(b.options.theta_policy, "");
}

TEST(BindEngineCli, BadValuesNameTheirFlag) {
  const auto error_of = [](std::initializer_list<const char*> args) {
    return bind(args).error;
  };
  EXPECT_NE(error_of({"--window-policy=hill-climb"}).find("--window-policy"),
            std::string::npos);
  EXPECT_NE(error_of({"--theta-policy=banana"}).find("--theta-policy"),
            std::string::npos);
  EXPECT_NE(error_of({"--fault-plan=flood:1"}).find("--fault-plan"),
            std::string::npos);

  Bound zero_theta;
  zero_theta.options.theta = 0.0;
  zero_theta.error = bind_engine_cli(make_cli({"--theta-policy=adaptive"}),
                                     zero_theta.options, zero_theta.sim, 1.0);
  EXPECT_NE(zero_theta.error.find("--theta-policy"), std::string::npos);
  EXPECT_NE(zero_theta.error.find("--theta > 0"), std::string::npos);
}

}  // namespace
}  // namespace specomp::spec
