#include "spec/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/contracts.hpp"

namespace specomp::spec {

namespace {

[[noreturn]] void reject_config(const char* policy, const char* field,
                                const std::string& requirement) {
  throw std::invalid_argument(std::string(policy) + ": " + field + " " +
                              requirement);
}

void require(bool ok, const char* policy, const char* field,
             const std::string& requirement) {
  if (!ok) reject_config(policy, field, requirement);
}

/// Snaps a requested quantile to the nearest one the DistSketch tracks and
/// returns the matching sampled value.
double pick_quantile(double q, double p50, double p90, double p99) {
  if (q <= 0.7) return p50;
  if (q <= 0.95) return p90;
  return p99;
}

}  // namespace

AdaptiveWindowPolicy::AdaptiveWindowPolicy(AdaptiveWindowConfig config)
    : config_(config) {
  require(config_.initial_window >= 0, "AdaptiveWindowPolicy", "initial_window",
          "must be >= 0 (got " + std::to_string(config_.initial_window) + ")");
  require(config_.smoothing > 0.0 && config_.smoothing <= 1.0,
          "AdaptiveWindowPolicy", "smoothing",
          "must be in (0, 1] (got " + std::to_string(config_.smoothing) + ")");
  require(config_.cooldown >= 0, "AdaptiveWindowPolicy", "cooldown",
          "must be >= 0 (got " + std::to_string(config_.cooldown) + ")");
  require(config_.grow_wait_ratio > 0.0, "AdaptiveWindowPolicy",
          "grow_wait_ratio",
          "must be > 0 (got " + std::to_string(config_.grow_wait_ratio) + ")");
  require(config_.shrink_failure_fraction > 0.0, "AdaptiveWindowPolicy",
          "shrink_failure_fraction",
          "must be > 0 (got " +
              std::to_string(config_.shrink_failure_fraction) + ")");
}

int AdaptiveWindowPolicy::next_window(const WindowFeedback& feedback) {
  SPEC_EXPECTS(feedback.current_window >= 0);

  const double failure_fraction =
      feedback.speculated == 0
          ? 0.0
          : static_cast<double>(feedback.failures) /
                static_cast<double>(feedback.speculated);
  const double wait_ratio =
      feedback.wait_seconds / std::max(feedback.compute_seconds, 1e-12);

  const double a = config_.smoothing;
  wait_avg_ = (1.0 - a) * wait_avg_ + a * wait_ratio;
  fail_avg_ = (1.0 - a) * fail_avg_ + a * failure_fraction;

  if (cooldown_left_ > 0) {
    --cooldown_left_;
    last_decision_ = "cooldown";
    return feedback.current_window;
  }

  // Failures dominate: speculating deeper while guesses are bad only adds
  // recomputation.
  if (fail_avg_ > config_.shrink_failure_fraction) {
    fail_avg_ = 0.0;
    cooldown_left_ = config_.cooldown;
    ++shrinks_;
    last_decision_ = "shrink";
    return std::max(feedback.current_window - 1, 0);
  }
  if (wait_avg_ > config_.grow_wait_ratio) {
    wait_avg_ = 0.0;
    cooldown_left_ = config_.cooldown;
    ++grows_;
    last_decision_ = "grow";
    return feedback.current_window + 1;
  }
  last_decision_ = "hold";
  return feedback.current_window;
}

ModelWindowPolicy::ModelWindowPolicy(ModelWindowConfig config)
    : config_(config) {
  require(config_.initial_window >= 0, "ModelWindowPolicy", "initial_window",
          "must be >= 0 (got " + std::to_string(config_.initial_window) + ")");
  require(config_.delay_quantile > 0.0 && config_.delay_quantile < 1.0,
          "ModelWindowPolicy", "delay_quantile",
          "must be in (0, 1) (got " + std::to_string(config_.delay_quantile) +
              ")");
  require(config_.service_quantile > 0.0 && config_.service_quantile < 1.0,
          "ModelWindowPolicy", "service_quantile",
          "must be in (0, 1) (got " +
              std::to_string(config_.service_quantile) + ")");
  require(config_.cover_margin >= 0.0 && config_.cover_margin < 1.0,
          "ModelWindowPolicy", "cover_margin",
          "must be in [0, 1) (got " + std::to_string(config_.cover_margin) +
              ")");
  require(
      config_.utilization_budget > 0.0 && config_.utilization_budget <= 1.0,
      "ModelWindowPolicy", "utilization_budget",
      "must be in (0, 1] (got " + std::to_string(config_.utilization_budget) +
          ")");
  require(config_.smoothing > 0.0 && config_.smoothing <= 1.0,
          "ModelWindowPolicy", "smoothing",
          "must be in (0, 1] (got " + std::to_string(config_.smoothing) + ")");
  require(config_.cooldown >= 0, "ModelWindowPolicy", "cooldown",
          "must be >= 0 (got " + std::to_string(config_.cooldown) + ")");
  require(config_.min_samples >= 1, "ModelWindowPolicy", "min_samples",
          "must be >= 1 (got " + std::to_string(config_.min_samples) + ")");
  require(config_.cascade_budget >= 1, "ModelWindowPolicy", "cascade_budget",
          "must be >= 1 (got " + std::to_string(config_.cascade_budget) + ")");
  require(config_.cascade_hold >= 1, "ModelWindowPolicy", "cascade_hold",
          "must be >= 1 (got " + std::to_string(config_.cascade_hold) + ")");
  require(config_.max_step >= 1, "ModelWindowPolicy", "max_step",
          "must be >= 1 (got " + std::to_string(config_.max_step) + ")");
}

int ModelWindowPolicy::next_window(const WindowFeedback& feedback) {
  SPEC_EXPECTS(feedback.current_window >= 0);

  // k̂: EWMA of this iteration's failure fraction, updated every iteration
  // (including held ones) so the stability bound always sees fresh data.
  const double failure_fraction =
      feedback.speculated == 0
          ? 0.0
          : static_cast<double>(feedback.failures) /
                static_cast<double>(feedback.speculated);
  const double a = config_.smoothing;
  fail_avg_ = (1.0 - a) * fail_avg_ + a * failure_fraction;

  // Cascade guard (DESIGN.md §13.4): a rollback chain deeper than the
  // budget means the system has entered the cascade regime — replayed work
  // is being re-invalidated faster than it resolves.  Drop to FW = 1
  // immediately (not FW = 0: the engine still needs one outstanding
  // speculation to pipeline at all, and FW = 1 verifies every input before
  // the next send, which breaks the chain) and hold there.
  if (feedback.cascade_depth > config_.cascade_budget) {
    if (guard_hold_left_ == 0) ++guard_events_;
    guard_hold_left_ = config_.cascade_hold;
    cooldown_left_ = 0;
    last_decision_ = "cascade-guard";
    return 1;
  }
  if (guard_hold_left_ > 0) {
    --guard_hold_left_;
    last_decision_ = "cascade-hold";
    return 1;
  }

  // Warmup: without observed distributions the model has no inputs; hold
  // the current window rather than guess.
  if (!feedback.dists_valid || feedback.delay_samples < config_.min_samples ||
      feedback.service_samples < config_.min_samples) {
    last_decision_ = "warmup";
    return feedback.current_window;
  }

  if (cooldown_left_ > 0) {
    --cooldown_left_;
    last_decision_ = "cooldown";
    return feedback.current_window;
  }

  const double delay = pick_quantile(config_.delay_quantile, feedback.delay_p50,
                                     feedback.delay_p90, feedback.delay_p99);
  const double service =
      pick_quantile(config_.service_quantile, feedback.service_p50,
                    feedback.service_p90, feedback.service_p99);

  // FW_cover = ceil(D_q / S - ε): the pipeline depth at which one delay is
  // hidden behind compute, rounded down when the last slot would cover less
  // than ε service times of delay (§13.3, eq. W1).  A degenerate service
  // observation (all-zero sketch) holds instead of dividing by ~0.
  if (service <= 1e-12) {
    last_decision_ = "warmup";
    return feedback.current_window;
  }
  const int fw_cover = std::max(
      1, static_cast<int>(std::ceil(delay / service - config_.cover_margin)));

  // FW_stab = floor(ρ_max / k̂): expected replay load per iteration is
  // bounded by k̂ · FW service times, and stability demands it stay under
  // the budget (§13.3, eq. W2).  k̂ = 0 leaves the bound inactive.
  int fw_stab = config_.cascade_budget;
  if (fail_avg_ > 1e-12) {
    const double bound = config_.utilization_budget / fail_avg_;
    fw_stab = bound >= static_cast<double>(config_.cascade_budget)
                  ? config_.cascade_budget
                  : static_cast<int>(bound);
  }

  const int target =
      std::clamp(std::min(fw_cover, fw_stab), 1, config_.cascade_budget);

  int next = feedback.current_window;
  if (target > next) {
    next = std::min(next + config_.max_step, target);
    last_decision_ = fw_cover <= fw_stab ? "cover" : "stability";
  } else if (target < next) {
    next = std::max(next - config_.max_step, target);
    last_decision_ = fw_cover <= fw_stab ? "cover" : "stability";
  } else {
    last_decision_ = "hold";
    return next;
  }
  cooldown_left_ = config_.cooldown;
  return next;
}

AdaptiveThetaPolicy::AdaptiveThetaPolicy(AdaptiveThetaConfig config)
    : config_(config) {
  require(config_.min_theta > 0.0, "AdaptiveThetaPolicy", "min_theta",
          "must be > 0 (got " + std::to_string(config_.min_theta) + ")");
  require(config_.max_theta >= config_.min_theta, "AdaptiveThetaPolicy",
          "max_theta",
          "must be >= min_theta (got " + std::to_string(config_.max_theta) +
              " < " + std::to_string(config_.min_theta) + ")");
  require(config_.initial_theta >= config_.min_theta &&
              config_.initial_theta <= config_.max_theta,
          "AdaptiveThetaPolicy", "initial_theta",
          "must be within [min_theta, max_theta] (got " +
              std::to_string(config_.initial_theta) + ")");
  require(config_.reject_low >= 0.0 &&
              config_.reject_low < config_.reject_high &&
              config_.reject_high <= 1.0,
          "AdaptiveThetaPolicy", "reject_low/reject_high",
          "must satisfy 0 <= low < high <= 1 (got " +
              std::to_string(config_.reject_low) + ", " +
              std::to_string(config_.reject_high) + ")");
  require(config_.smoothing > 0.0 && config_.smoothing <= 1.0,
          "AdaptiveThetaPolicy", "smoothing",
          "must be in (0, 1] (got " + std::to_string(config_.smoothing) + ")");
  require(config_.cooldown >= 0, "AdaptiveThetaPolicy", "cooldown",
          "must be >= 0 (got " + std::to_string(config_.cooldown) + ")");
  require(config_.step_factor > 1.0, "AdaptiveThetaPolicy", "step_factor",
          "must be > 1 (got " + std::to_string(config_.step_factor) + ")");
}

double AdaptiveThetaPolicy::next_theta(const ThetaFeedback& feedback) {
  // Only iterations that resolved checks carry rejection information;
  // folding check-free iterations in would dilute the EWMA toward zero and
  // widen θ for no reason.
  if (feedback.checks > 0) {
    const double rejection = static_cast<double>(feedback.failures) /
                             static_cast<double>(feedback.checks);
    const double a = config_.smoothing;
    reject_avg_ = (1.0 - a) * reject_avg_ + a * rejection;
    observed_ = true;
  }

  // An active rollback cascade overrides the cooldown: every additional
  // rejection extends the chain, so slack is bought immediately.
  const bool cascading = feedback.cascade_depth > 1;
  if (cooldown_left_ > 0 && !cascading) {
    --cooldown_left_;
    return feedback.current_theta;
  }

  if (reject_avg_ > config_.reject_high || cascading) {
    const double widened = std::min(
        feedback.current_theta * config_.step_factor, config_.max_theta);
    if (widened > feedback.current_theta) {
      ++widens_;
      cooldown_left_ = config_.cooldown;
      reject_avg_ = 0.0;
      // The reset empties the evidence; require a fresh check-bearing
      // iteration before any further move, or the zeroed average would
      // read as "nothing rejected" and tighten right back.
      observed_ = false;
    }
    return widened;
  }
  if (observed_ && reject_avg_ < config_.reject_low) {
    const double tightened = std::max(
        feedback.current_theta / config_.step_factor, config_.min_theta);
    if (tightened < feedback.current_theta) {
      ++tightens_;
      cooldown_left_ = config_.cooldown;
      // Keep the EWMA: tightening raises rejections, and the next decision
      // should see the drift rather than restart from zero.
    }
    return tightened;
  }
  return feedback.current_theta;
}

std::optional<WindowPolicyKind> parse_window_policy(std::string_view name) {
  if (name == "static") return WindowPolicyKind::Static;
  if (name == "heuristic" || name == "adaptive")
    return WindowPolicyKind::Heuristic;
  if (name == "model") return WindowPolicyKind::Model;
  return std::nullopt;
}

std::optional<ThetaPolicyKind> parse_theta_policy(std::string_view name) {
  if (name == "static") return ThetaPolicyKind::Static;
  if (name == "adaptive") return ThetaPolicyKind::Adaptive;
  return std::nullopt;
}

std::shared_ptr<WindowPolicy> make_window_policy(WindowPolicyKind kind,
                                                 int initial_window) {
  switch (kind) {
    case WindowPolicyKind::Static:
      return nullptr;
    case WindowPolicyKind::Heuristic: {
      AdaptiveWindowConfig config;
      config.initial_window = initial_window;
      return std::make_shared<AdaptiveWindowPolicy>(config);
    }
    case WindowPolicyKind::Model: {
      ModelWindowConfig config;
      config.initial_window = initial_window;
      return std::make_shared<ModelWindowPolicy>(config);
    }
  }
  return nullptr;
}

std::shared_ptr<ThetaPolicy> make_theta_policy(ThetaPolicyKind kind,
                                               double initial_theta) {
  switch (kind) {
    case ThetaPolicyKind::Static:
      return nullptr;
    case ThetaPolicyKind::Adaptive: {
      AdaptiveThetaConfig config;
      config.initial_theta = initial_theta;
      // The band limits bracket the requested starting point so any CLI θ
      // is a valid seed: tighten/widen room stays symmetric around it.
      config.min_theta = std::min(config.min_theta, initial_theta / 8.0);
      config.max_theta = std::max(config.max_theta, initial_theta * 8.0);
      return std::make_shared<AdaptiveThetaPolicy>(config);
    }
  }
  return nullptr;
}

}  // namespace specomp::spec
