#include "spec/adaptive.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runtime/sim_comm.hpp"
#include "spec/engine.hpp"
#include "toy_app.hpp"

namespace specomp::spec {
namespace {

WindowFeedback feedback(int window, double wait, double compute,
                        std::uint64_t speculated, std::uint64_t failures) {
  WindowFeedback fb;
  fb.current_window = window;
  fb.wait_seconds = wait;
  fb.compute_seconds = compute;
  fb.speculated = speculated;
  fb.failures = failures;
  return fb;
}

TEST(AdaptivePolicy, GrowsOnWaits) {
  AdaptiveWindowPolicy policy;
  EXPECT_EQ(policy.initial_window(), 1);
  // Half the iteration blocked: the smoothed ratio crosses the 5% threshold
  // on the first observation.
  EXPECT_EQ(policy.next_window(feedback(1, 0.5, 1.0, 4, 0)), 2);
  EXPECT_EQ(policy.grow_events(), 1u);
}

TEST(AdaptivePolicy, ShrinksOnFailures) {
  AdaptiveWindowPolicy policy;
  EXPECT_EQ(policy.next_window(feedback(3, 0.0, 1.0, 10, 8)), 2);
  EXPECT_EQ(policy.shrink_events(), 1u);
}

TEST(AdaptivePolicy, CooldownPreventsImmediateReadjustment) {
  AdaptiveWindowConfig config;
  config.cooldown = 2;
  AdaptiveWindowPolicy policy(config);
  EXPECT_EQ(policy.next_window(feedback(1, 0.5, 1.0, 4, 0)), 2);  // grow
  EXPECT_EQ(policy.next_window(feedback(2, 0.5, 1.0, 4, 0)), 2);  // cooling
  EXPECT_EQ(policy.next_window(feedback(2, 0.5, 1.0, 4, 0)), 2);  // cooling
  EXPECT_EQ(policy.next_window(feedback(2, 0.5, 1.0, 4, 0)), 3);  // grow again
  EXPECT_EQ(policy.grow_events(), 2u);
}

TEST(AdaptivePolicy, AlternatingWaitsStillGrow) {
  // Once the window partially covers the latency, blocking alternates
  // iterations; the EWMA must still accumulate and grow the window.
  AdaptiveWindowConfig config;
  config.cooldown = 0;
  AdaptiveWindowPolicy policy(config);
  int window = 2;
  for (int i = 0; i < 6; ++i) {
    const double wait = i % 2 == 0 ? 2.8 : 0.0;
    window = policy.next_window(feedback(window, wait, 1.0, 4, 0));
  }
  EXPECT_GT(window, 2);
}

TEST(AdaptivePolicy, FailuresTrumpWaits) {
  // Failing *and* waiting must not grow: deeper speculation while guesses
  // are bad buys recomputation, not overlap.
  AdaptiveWindowPolicy policy;
  EXPECT_EQ(policy.next_window(feedback(2, 5.0, 1.0, 10, 9)), 1);
}

TEST(AdaptivePolicy, StableWhenHealthy) {
  AdaptiveWindowPolicy policy;
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(policy.next_window(feedback(2, 0.0, 1.0, 10, 0)), 2);
  EXPECT_EQ(policy.grow_events(), 0u);
  EXPECT_EQ(policy.shrink_events(), 0u);
}

TEST(AdaptivePolicy, NeverGoesNegative) {
  AdaptiveWindowConfig config;
  config.cooldown = 0;
  AdaptiveWindowPolicy policy(config);
  int window = 1;
  for (int i = 0; i < 5; ++i)
    window = policy.next_window(feedback(window, 0.0, 1.0, 10, 10));
  EXPECT_EQ(window, 0);
}

// ---- Configuration validation ----

TEST(PolicyValidation, AdaptiveWindowRejectsBadSmoothing) {
  AdaptiveWindowConfig config;
  config.smoothing = 0.0;
  EXPECT_THROW(AdaptiveWindowPolicy{config}, std::invalid_argument);
  config.smoothing = 1.5;
  EXPECT_THROW(AdaptiveWindowPolicy{config}, std::invalid_argument);
  config.smoothing = -0.25;
  EXPECT_THROW(AdaptiveWindowPolicy{config}, std::invalid_argument);
  config.smoothing = 1.0;  // boundary is legal
  EXPECT_NO_THROW(AdaptiveWindowPolicy{config});
}

TEST(PolicyValidation, AdaptiveWindowRejectsNegativeCooldown) {
  AdaptiveWindowConfig config;
  config.cooldown = -1;
  try {
    AdaptiveWindowPolicy policy(config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The message must name the offending field and the offered value.
    EXPECT_NE(std::string(e.what()).find("cooldown"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-1"), std::string::npos);
  }
}

TEST(PolicyValidation, ModelWindowRejectsOutOfRangeFields) {
  ModelWindowConfig config;
  config.utilization_budget = 0.0;
  EXPECT_THROW(ModelWindowPolicy{config}, std::invalid_argument);
  config = {};
  config.smoothing = 2.0;
  EXPECT_THROW(ModelWindowPolicy{config}, std::invalid_argument);
  config = {};
  config.cooldown = -3;
  EXPECT_THROW(ModelWindowPolicy{config}, std::invalid_argument);
  config = {};
  config.min_samples = 0;
  EXPECT_THROW(ModelWindowPolicy{config}, std::invalid_argument);
  config = {};
  config.cascade_budget = 0;
  EXPECT_THROW(ModelWindowPolicy{config}, std::invalid_argument);
  config = {};
  config.delay_quantile = 1.0;
  EXPECT_THROW(ModelWindowPolicy{config}, std::invalid_argument);
  config = {};
  config.cover_margin = 1.0;
  EXPECT_THROW(ModelWindowPolicy{config}, std::invalid_argument);
  config = {};
  EXPECT_NO_THROW(ModelWindowPolicy{config});
}

TEST(PolicyValidation, AdaptiveThetaRejectsInvertedBand) {
  AdaptiveThetaConfig config;
  config.reject_low = 0.5;
  config.reject_high = 0.1;
  EXPECT_THROW(AdaptiveThetaPolicy{config}, std::invalid_argument);
  config = {};
  config.min_theta = 0.0;
  EXPECT_THROW(AdaptiveThetaPolicy{config}, std::invalid_argument);
  config = {};
  config.initial_theta = 1.0;  // above max_theta = 0.1
  EXPECT_THROW(AdaptiveThetaPolicy{config}, std::invalid_argument);
  config = {};
  config.step_factor = 1.0;
  EXPECT_THROW(AdaptiveThetaPolicy{config}, std::invalid_argument);
}

// ---- Cooldown boundaries ----

TEST(AdaptivePolicy, ZeroCooldownActsEveryIteration) {
  AdaptiveWindowConfig config;
  config.cooldown = 0;
  AdaptiveWindowPolicy policy(config);
  EXPECT_EQ(policy.next_window(feedback(1, 0.5, 1.0, 4, 0)), 2);
  EXPECT_EQ(policy.next_window(feedback(2, 0.5, 1.0, 4, 0)), 3);
  EXPECT_EQ(policy.grow_events(), 2u);
}

TEST(AdaptivePolicy, CooldownOneSkipsExactlyOneDecision) {
  AdaptiveWindowConfig config;
  config.cooldown = 1;
  AdaptiveWindowPolicy policy(config);
  EXPECT_EQ(policy.next_window(feedback(1, 0.5, 1.0, 4, 0)), 2);  // grow
  EXPECT_EQ(policy.next_window(feedback(2, 0.5, 1.0, 4, 0)), 2);  // cooldown
  EXPECT_EQ(policy.next_window(feedback(2, 0.5, 1.0, 4, 0)), 3);  // grow
}

// ---- ModelWindowPolicy unit behaviour ----

WindowFeedback model_feedback(int window, double delay, double service,
                              std::uint64_t speculated = 4,
                              std::uint64_t failures = 0,
                              int cascade_depth = 0) {
  WindowFeedback fb;
  fb.current_window = window;
  fb.speculated = speculated;
  fb.failures = failures;
  fb.dists_valid = true;
  fb.delay_samples = 100;
  fb.service_samples = 100;
  fb.delay_p50 = delay;
  fb.delay_p90 = delay;
  fb.delay_p99 = delay;
  fb.service_p50 = service;
  fb.service_p90 = service;
  fb.service_p99 = service;
  fb.cascade_depth = cascade_depth;
  return fb;
}

TEST(ModelPolicy, HoldsDuringWarmup) {
  ModelWindowPolicy policy;
  WindowFeedback fb = model_feedback(1, 1.0, 0.1);
  fb.dists_valid = false;
  EXPECT_EQ(policy.next_window(fb), 1);
  EXPECT_STREQ(policy.last_decision(), "warmup");

  fb = model_feedback(1, 1.0, 0.1);
  fb.delay_samples = 2;  // below min_samples = 8
  EXPECT_EQ(policy.next_window(fb), 1);
  EXPECT_STREQ(policy.last_decision(), "warmup");

  // Degenerate all-zero service sketch must hold, not divide by ~0.
  fb = model_feedback(1, 1.0, 0.0);
  EXPECT_EQ(policy.next_window(fb), 1);
  EXPECT_STREQ(policy.last_decision(), "warmup");
}

TEST(ModelPolicy, GrowsTowardDelayCoverBound) {
  // D/S = 3: the cover bound wants FW = 3; slew limit moves one step per
  // decision with the default 2-iteration cooldown between moves.
  ModelWindowConfig config;
  config.cooldown = 0;
  ModelWindowPolicy policy(config);
  EXPECT_EQ(policy.next_window(model_feedback(1, 0.3, 0.1)), 2);
  EXPECT_STREQ(policy.last_decision(), "cover");
  EXPECT_EQ(policy.next_window(model_feedback(2, 0.3, 0.1)), 3);
  EXPECT_EQ(policy.next_window(model_feedback(3, 0.3, 0.1)), 3);
  EXPECT_STREQ(policy.last_decision(), "hold");
}

TEST(ModelPolicy, CoverMarginRoundsSliverSlotsDown) {
  // D/S = 1.2 sits barely above an integer: the second window slot would
  // hide only 0.2 service times of delay, so with the default ε = 0.25 the
  // cover bound stays at 1 (eq. W1's hysteresis margin).
  ModelWindowConfig config;
  config.cooldown = 0;
  ModelWindowPolicy policy(config);
  EXPECT_EQ(policy.next_window(model_feedback(1, 0.12, 0.1)), 1);
  EXPECT_STREQ(policy.last_decision(), "hold");

  // D/S = 1.5 clears the margin and buys the slot.
  EXPECT_EQ(policy.next_window(model_feedback(1, 0.15, 0.1)), 2);
  EXPECT_STREQ(policy.last_decision(), "cover");

  // ε = 0 restores the plain ceiling.
  config.cover_margin = 0.0;
  ModelWindowPolicy strict(config);
  EXPECT_EQ(strict.next_window(model_feedback(1, 0.12, 0.1)), 2);
}

TEST(ModelPolicy, StabilityBoundCapsWindowUnderFailures) {
  // Persistent 50% failure fraction: FW_stab = floor(0.5 / 0.5) = 1 even
  // though the delay alone would ask for much more.
  ModelWindowConfig config;
  config.cooldown = 0;
  config.smoothing = 1.0;  // no EWMA lag, k̂ = instantaneous fraction
  ModelWindowPolicy policy(config);
  const int next = policy.next_window(model_feedback(3, 1.0, 0.1, 10, 5));
  EXPECT_EQ(next, 2);  // slew-limited toward target 1
  EXPECT_STREQ(policy.last_decision(), "stability");
  EXPECT_EQ(policy.next_window(model_feedback(2, 1.0, 0.1, 10, 5)), 1);
}

TEST(ModelPolicy, CascadeGuardDropsToOneAndHolds) {
  ModelWindowConfig config;
  config.cascade_budget = 2;
  config.cascade_hold = 3;
  ModelWindowPolicy policy(config);
  // Chain deeper than the budget: guard fires regardless of distributions.
  EXPECT_EQ(policy.next_window(model_feedback(4, 0.5, 0.1, 4, 0, 3)), 1);
  EXPECT_STREQ(policy.last_decision(), "cascade-guard");
  EXPECT_EQ(policy.cascade_guard_events(), 1u);
  // Healthy feedback again: the hold keeps FW pinned for cascade_hold
  // iterations before the model may climb back.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(policy.next_window(model_feedback(1, 0.5, 0.1)), 1);
    EXPECT_STREQ(policy.last_decision(), "cascade-hold");
  }
  EXPECT_NE(std::string(policy.last_decision()), "cascade-guard");
  const int after = policy.next_window(model_feedback(1, 0.5, 0.1));
  EXPECT_GE(after, 1);  // free to move again
  EXPECT_EQ(policy.cascade_guard_events(), 1u);  // one event, not four
}

TEST(ModelPolicy, NeverExceedsCascadeBudget) {
  ModelWindowConfig config;
  config.cooldown = 0;
  config.cascade_budget = 3;
  ModelWindowPolicy policy(config);
  int window = 1;
  for (int i = 0; i < 20; ++i)
    window = policy.next_window(model_feedback(window, 10.0, 0.1));
  EXPECT_EQ(window, 3);
}

TEST(ModelPolicy, DeterministicWindowSequence) {
  // Same feedback sequence ⇒ same decision sequence, bit for bit: the
  // controller is a pure function of its inputs (no clocks, no RNG).
  const auto run = [] {
    ModelWindowPolicy policy;
    std::vector<int> seq;
    int window = 1;
    for (int i = 0; i < 30; ++i) {
      const double delay = i % 3 == 0 ? 0.5 : 0.2;
      window = policy.next_window(
          model_feedback(window, delay, 0.1, 4, i % 7 == 0 ? 1 : 0));
      seq.push_back(window);
    }
    return seq;
  };
  EXPECT_EQ(run(), run());
}

// ---- θ policies ----

ThetaFeedback theta_feedback(double theta, std::uint64_t checks,
                             std::uint64_t failures, int cascade_depth = 0) {
  ThetaFeedback fb;
  fb.current_theta = theta;
  fb.checks = checks;
  fb.failures = failures;
  fb.cascade_depth = cascade_depth;
  return fb;
}

TEST(ThetaPolicy, WidensAboveRejectionBand) {
  AdaptiveThetaConfig config;
  config.smoothing = 1.0;
  AdaptiveThetaPolicy policy(config);
  // 50% rejection >> reject_high = 0.15: widen by step_factor.
  EXPECT_DOUBLE_EQ(policy.next_theta(theta_feedback(0.01, 10, 5)), 0.02);
  EXPECT_EQ(policy.widen_events(), 1u);
}

TEST(ThetaPolicy, TightensBelowRejectionBand) {
  AdaptiveThetaConfig config;
  config.smoothing = 1.0;
  config.cooldown = 0;
  AdaptiveThetaPolicy policy(config);
  // Zero rejection < reject_low = 0.02: tighten.
  EXPECT_DOUBLE_EQ(policy.next_theta(theta_feedback(0.01, 10, 0)), 0.005);
  EXPECT_EQ(policy.tighten_events(), 1u);
}

TEST(ThetaPolicy, ClampsAtBandLimits) {
  AdaptiveThetaConfig config;
  config.smoothing = 1.0;
  config.cooldown = 0;
  AdaptiveThetaPolicy policy(config);
  double theta = config.initial_theta;
  for (int i = 0; i < 20; ++i)
    theta = policy.next_theta(theta_feedback(theta, 10, 10));
  EXPECT_DOUBLE_EQ(theta, config.max_theta);
  for (int i = 0; i < 40; ++i)
    theta = policy.next_theta(theta_feedback(theta, 10, 0));
  EXPECT_DOUBLE_EQ(theta, config.min_theta);
}

TEST(ThetaPolicy, CheckFreeIterationsDoNotDiluteTheEwma) {
  AdaptiveThetaConfig config;
  config.cooldown = 0;
  AdaptiveThetaPolicy policy(config);
  double theta = config.initial_theta;
  theta = policy.next_theta(theta_feedback(theta, 10, 10));  // 100% rejection
  // Many check-free iterations must not decay the rejection average into
  // the tighten region.
  for (int i = 0; i < 10; ++i)
    theta = policy.next_theta(theta_feedback(theta, 0, 0));
  EXPECT_EQ(policy.tighten_events(), 0u);
}

TEST(ThetaPolicy, CascadeOverridesCooldown) {
  AdaptiveThetaConfig config;
  config.smoothing = 1.0;
  config.cooldown = 5;
  AdaptiveThetaPolicy policy(config);
  double theta = policy.next_theta(theta_feedback(0.01, 10, 5));  // widen
  EXPECT_DOUBLE_EQ(theta, 0.02);
  // Cooldown active — but an ongoing cascade must widen again immediately.
  theta = policy.next_theta(theta_feedback(theta, 10, 5, /*cascade=*/2));
  EXPECT_DOUBLE_EQ(theta, 0.04);
  EXPECT_EQ(policy.widen_events(), 2u);
}

// ---- Factories ----

TEST(PolicyFactories, ParseNamesRoundTrip) {
  EXPECT_EQ(parse_window_policy("static"), WindowPolicyKind::Static);
  EXPECT_EQ(parse_window_policy("heuristic"), WindowPolicyKind::Heuristic);
  EXPECT_EQ(parse_window_policy("adaptive"), WindowPolicyKind::Heuristic);
  EXPECT_FALSE(parse_window_policy("hill-climb").has_value());
  EXPECT_EQ(parse_window_policy("model"), WindowPolicyKind::Model);
  EXPECT_FALSE(parse_window_policy("banana").has_value());
  EXPECT_EQ(parse_theta_policy("static"), ThetaPolicyKind::Static);
  EXPECT_EQ(parse_theta_policy("adaptive"), ThetaPolicyKind::Adaptive);
  EXPECT_FALSE(parse_theta_policy("banana").has_value());
}

TEST(PolicyFactories, StaticKindsReturnNull) {
  EXPECT_EQ(make_window_policy(WindowPolicyKind::Static, 2), nullptr);
  EXPECT_EQ(make_theta_policy(ThetaPolicyKind::Static, 0.01), nullptr);
}

TEST(PolicyFactories, NonStaticKindsSeedInitialValues) {
  const auto window = make_window_policy(WindowPolicyKind::Model, 2);
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(window->initial_window(), 2);
  const auto theta = make_theta_policy(ThetaPolicyKind::Adaptive, 0.5);
  ASSERT_NE(theta, nullptr);
  // 0.5 lies above the default band; the factory brackets it instead of
  // throwing.
  EXPECT_DOUBLE_EQ(theta->initial_theta(), 0.5);
}

// ---- Engine integration ----

using runtime::Cluster;
using runtime::Communicator;
using testing::ToyApp;

struct AdaptiveRun {
  std::vector<SpecStats> stats;
  std::vector<int> final_windows;
  double makespan = 0.0;
};

AdaptiveRun run_adaptive(double latency_seconds, long iterations = 25) {
  runtime::SimConfig config;
  config.cluster = Cluster::homogeneous(3, 2e4);  // 5 ms compute/iter
  config.channel.propagation = des::SimTime::seconds(latency_seconds);
  config.send_sw_time = des::SimTime::zero();
  AdaptiveRun out;
  out.stats.resize(3);
  out.final_windows.resize(3);
  const runtime::SimResult result =
      runtime::run_simulated(config, [&](Communicator& comm) {
        ToyApp app(comm.rank(), 3, 0.0, 0.5);  // affine: linear spec exact
        EngineConfig engine_config;
        engine_config.window_policy = std::make_shared<AdaptiveWindowPolicy>();
        engine_config.max_forward_window = 8;
        engine_config.speculator = make_speculator("linear");
        SpecEngine engine(comm, app, engine_config, ToyApp::initial_blocks(3));
        out.stats[static_cast<std::size_t>(comm.rank())] = engine.run(iterations);
        out.final_windows[static_cast<std::size_t>(comm.rank())] =
            engine.current_window();
      });
  out.makespan = result.makespan_seconds;
  return out;
}

TEST(AdaptiveEngine, WindowGrowsToCoverLatency) {
  // Compute is 100 ops / 2e4 ops/s = 5 ms per iteration; a 25 ms message
  // latency needs a window of ~5 to mask fully.  The controller should get
  // there on its own.
  const AdaptiveRun run = run_adaptive(/*latency_seconds=*/0.025);
  for (const auto& st : run.stats) EXPECT_GE(st.max_window_used, 3);
  // And the deep window must pay off against a fixed FW = 1 run.
  runtime::SimConfig config;
  config.cluster = Cluster::homogeneous(3, 2e4);
  config.channel.propagation = des::SimTime::seconds(0.025);
  config.send_sw_time = des::SimTime::zero();
  double fixed_makespan = 0.0;
  runtime::run_simulated(config, [&](Communicator& comm) {
    ToyApp app(comm.rank(), 3, 0.0, 0.5);
    EngineConfig engine_config;
    engine_config.forward_window = 1;
    engine_config.speculator = make_speculator("linear");
    SpecEngine engine(comm, app, engine_config, ToyApp::initial_blocks(3));
    engine.run(25);
    fixed_makespan = std::max(fixed_makespan, comm.time_seconds());
  });
  EXPECT_LT(run.makespan, fixed_makespan);
}

TEST(AdaptiveEngine, WindowStaysShallowOnFastNetwork) {
  const AdaptiveRun run = run_adaptive(/*latency_seconds=*/0.0001);
  for (const auto& st : run.stats) EXPECT_LE(st.max_window_used, 2);
}

TEST(AdaptiveEngine, DeterministicLikeEverythingElse) {
  const AdaptiveRun a = run_adaptive(0.025);
  const AdaptiveRun b = run_adaptive(0.025);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.final_windows, b.final_windows);
}

TEST(AdaptiveEngine, StatsTrackWindowCeiling) {
  const AdaptiveRun run = run_adaptive(0.025);
  for (std::size_t r = 0; r < run.stats.size(); ++r)
    EXPECT_GE(run.stats[r].max_window_used, run.final_windows[r] - 1);
}

TEST(AdaptiveEngine, PolicyWindowClampsToMaxForwardWindow) {
  // Latency that asks for a much deeper window than the clamp allows: the
  // engine must pin every decision to max_forward_window.
  runtime::SimConfig config;
  config.cluster = Cluster::homogeneous(3, 2e4);
  config.channel.propagation = des::SimTime::seconds(0.25);
  config.send_sw_time = des::SimTime::zero();
  std::vector<SpecStats> stats(3);
  runtime::run_simulated(config, [&](Communicator& comm) {
    ToyApp app(comm.rank(), 3, 0.0, 0.5);
    EngineConfig engine_config;
    AdaptiveWindowConfig policy_config;
    policy_config.cooldown = 0;
    engine_config.window_policy =
        std::make_shared<AdaptiveWindowPolicy>(policy_config);
    engine_config.max_forward_window = 2;
    engine_config.speculator = make_speculator("linear");
    SpecEngine engine(comm, app, engine_config, ToyApp::initial_blocks(3));
    stats[static_cast<std::size_t>(comm.rank())] = engine.run(40);
  });
  for (const auto& st : stats) {
    EXPECT_GE(st.max_window_used, 2);
    EXPECT_LE(st.max_window_used, 2);
  }
}

// ---- Model policy through the engine (live DistSnapshot plumbing) ----

struct ModelRun {
  std::vector<SpecStats> stats;
  std::vector<spec::ControlSample> control_log;  // rank 0
  double makespan = 0.0;
};

ModelRun run_model(double latency_seconds, long iterations = 40) {
  runtime::SimConfig config;
  config.cluster = Cluster::homogeneous(3, 2e4);  // 5 ms compute/iter
  config.channel.propagation = des::SimTime::seconds(latency_seconds);
  config.send_sw_time = des::SimTime::zero();
  config.record_dists = true;  // the model's inputs
  ModelRun out;
  out.stats.resize(3);
  const runtime::SimResult result =
      runtime::run_simulated(config, [&](Communicator& comm) {
        ToyApp app(comm.rank(), 3, 0.0, 0.5);
        EngineConfig engine_config;
        engine_config.window_policy = std::make_shared<ModelWindowPolicy>();
        engine_config.max_forward_window = 8;
        engine_config.speculator = make_speculator("linear");
        engine_config.record_control_log = comm.rank() == 0;
        SpecEngine engine(comm, app, engine_config, ToyApp::initial_blocks(3));
        out.stats[static_cast<std::size_t>(comm.rank())] =
            engine.run(iterations);
        if (comm.rank() == 0) out.control_log = engine.control_log();
      });
  out.makespan = result.makespan_seconds;
  return out;
}

TEST(ModelEngine, GrowsWindowFromObservedDistributions) {
  // 25 ms delay over 5 ms service: FW_cover = 5, capped by the default
  // cascade budget at 3.  The controller must reach the cap from the
  // observed sketches alone — no hand tuning.
  const ModelRun run = run_model(0.025);
  for (const auto& st : run.stats) EXPECT_EQ(st.max_window_used, 3);
}

TEST(ModelEngine, StaysShallowOnFastNetwork) {
  // 0.1 ms delay over 5 ms service: FW_cover = 1; the model must not climb.
  const ModelRun run = run_model(0.0001);
  for (const auto& st : run.stats) EXPECT_LE(st.max_window_used, 1);
}

TEST(ModelEngine, ControlLogRecordsDecisions) {
  const ModelRun run = run_model(0.025);
  ASSERT_EQ(run.control_log.size(), 39u);  // one sample per iteration >= 1
  // The 25 ms delay asks for FW_cover = 5, capped by the cascade budget at
  // 3 — so the growth decisions are labelled with whichever bound was the
  // binding one ("cover" when cover <= stability, else "stability").
  bool saw_model_decision = false;
  for (std::size_t i = 0; i < run.control_log.size(); ++i) {
    EXPECT_EQ(run.control_log[i].iteration, static_cast<long>(i + 1));
    EXPECT_GE(run.control_log[i].window, 0);
    EXPECT_GT(run.control_log[i].theta, 0.0);
    const std::string decision = run.control_log[i].decision;
    if (decision == "cover" || decision == "stability")
      saw_model_decision = true;
  }
  EXPECT_TRUE(saw_model_decision);
}

TEST(ModelEngine, DeterministicAcrossRuns) {
  const ModelRun a = run_model(0.025);
  const ModelRun b = run_model(0.025);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.control_log.size(), b.control_log.size());
  for (std::size_t i = 0; i < a.control_log.size(); ++i) {
    EXPECT_EQ(a.control_log[i].window, b.control_log[i].window);
    EXPECT_DOUBLE_EQ(a.control_log[i].theta, b.control_log[i].theta);
    EXPECT_STREQ(a.control_log[i].decision, b.control_log[i].decision);
  }
}

TEST(ModelEngine, HoldsInitialWindowWithoutDistRecording) {
  // record_dists off ⇒ dist_snapshot() invalid ⇒ the policy warms up
  // forever and the window never leaves its initial value.
  runtime::SimConfig config;
  config.cluster = Cluster::homogeneous(3, 2e4);
  config.channel.propagation = des::SimTime::seconds(0.025);
  config.send_sw_time = des::SimTime::zero();
  std::vector<SpecStats> stats(3);
  runtime::run_simulated(config, [&](Communicator& comm) {
    ToyApp app(comm.rank(), 3, 0.0, 0.5);
    EngineConfig engine_config;
    engine_config.window_policy = std::make_shared<ModelWindowPolicy>();
    engine_config.max_forward_window = 8;
    engine_config.speculator = make_speculator("linear");
    SpecEngine engine(comm, app, engine_config, ToyApp::initial_blocks(3));
    stats[static_cast<std::size_t>(comm.rank())] = engine.run(30);
  });
  for (const auto& st : stats) EXPECT_EQ(st.max_window_used, 1);
}

// ---- θ policy through the engine ----

TEST(ThetaEngine, AdaptiveThetaTracksRejections) {
  // A drifting nonlinearity (coupling != 0) makes the linear speculator
  // persistently wrong; the rejection-band controller must widen θ and the
  // stats must record the spread and the adjustments.
  runtime::SimConfig config;
  config.cluster = Cluster::homogeneous(3, 2e4);
  config.channel.propagation = des::SimTime::seconds(0.02);
  config.send_sw_time = des::SimTime::zero();
  std::vector<SpecStats> stats(3);
  runtime::run_simulated(config, [&](Communicator& comm) {
    ToyApp app(comm.rank(), 3, 0.02, 0.5);
    EngineConfig engine_config;
    engine_config.forward_window = 2;
    engine_config.threshold = 123.0;  // must be ignored when a policy is set
    AdaptiveThetaConfig theta_config;
    theta_config.initial_theta = 1e-3;
    theta_config.min_theta = 1e-5;
    theta_config.smoothing = 1.0;
    engine_config.theta_policy =
        std::make_shared<AdaptiveThetaPolicy>(theta_config);
    engine_config.speculator = make_speculator("linear");
    SpecEngine engine(comm, app, engine_config, ToyApp::initial_blocks(3));
    stats[static_cast<std::size_t>(comm.rank())] = engine.run(40);
  });
  for (const auto& st : stats) {
    EXPECT_GT(st.theta_adjustments, 0u);
    EXPECT_GE(st.theta_max_used, st.theta_min_used);
    EXPECT_LE(st.theta_max_used, 0.1);   // never the ignored threshold
    EXPECT_GE(st.theta_min_used, 1e-5);  // never below the clamp
  }
}

TEST(ThetaEngine, FixedPolicyMatchesPlainThreshold) {
  // A θ policy that never moves must reproduce the fixed-threshold run
  // exactly: consulting the policy each iteration perturbs nothing.
  class ConstantTheta final : public ThetaPolicy {
   public:
    double initial_theta() const override { return 1e-3; }
    double next_theta(const ThetaFeedback&) override { return 1e-3; }
  };
  const auto run_with = [](bool use_policy) {
    runtime::SimConfig config;
    config.cluster = Cluster::homogeneous(3, 2e4);
    config.channel.propagation = des::SimTime::seconds(0.02);
    config.send_sw_time = des::SimTime::zero();
    std::vector<SpecStats> stats(3);
    const runtime::SimResult result =
        runtime::run_simulated(config, [&](Communicator& comm) {
          ToyApp app(comm.rank(), 3, 0.02, 0.5);
          EngineConfig engine_config;
          engine_config.forward_window = 2;
          engine_config.threshold = 1e-3;
          if (use_policy)
            engine_config.theta_policy = std::make_shared<ConstantTheta>();
          engine_config.speculator = make_speculator("linear");
          SpecEngine engine(comm, app, engine_config,
                            ToyApp::initial_blocks(3));
          stats[static_cast<std::size_t>(comm.rank())] = engine.run(30);
        });
    return std::make_pair(result.makespan_seconds, stats[0].failures);
  };
  const auto plain = run_with(false);
  const auto policy = run_with(true);
  EXPECT_DOUBLE_EQ(plain.first, policy.first);
  EXPECT_EQ(plain.second, policy.second);
}

}  // namespace
}  // namespace specomp::spec
