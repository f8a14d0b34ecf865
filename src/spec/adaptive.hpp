// Adaptive forward-window and threshold control.
//
// The paper tunes FW by hand "based on an estimate of the communication and
// computation times and the accuracy of the speculation function" and lists
// automatic selection among its future work.  This header holds the whole
// controller family (DESIGN.md §13 documents the theory→code contract):
//
//   * AdaptiveWindowPolicy — signal-threshold heuristic on the two signals
//     the engine observes every iteration (blocked time grows the window,
//     speculation failures shrink it), EWMA-smoothed with a cooldown;
//   * ModelWindowPolicy — model-driven: consumes the live per-link delay and
//     per-rank service distributions the backend records (obs::DistSketch,
//     surfaced through runtime::Communicator::dist_snapshot()) and picks a
//     stability-bounded window from the Anselmi–Walton criterion for
//     speculative queueing networks, with an explicit rollback-cascade guard
//     (Manita–Simonot regime avoidance);
//   * AdaptiveThetaPolicy — the companion θ controller: trades
//     check-threshold slack against the observed rejection rate, holding it
//     inside a target band.
//
// A fixed window or θ is no policy at all: make_window_policy and
// make_theta_policy return nullptr for the static kinds, and the engine
// then uses its fixed forward_window / threshold.
//
// All configurations are validated at policy construction: out-of-range
// smoothing/cooldown values throw std::invalid_argument with a message
// naming the field, instead of silently mis-controlling a long run.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace specomp::spec {

/// Per-iteration observations handed to a window policy.
///
/// The first block is always populated by the engine; the distribution
/// block (`dists_valid` onward) carries the live obs::DistSketch quantiles
/// when the backend records them (SimConfig::record_dists), and stays
/// zeroed otherwise — model policies must treat `dists_valid == false` as
/// "hold, inputs not observable".
struct WindowFeedback {
  long iteration = 0;
  int current_window = 0;
  /// Time this rank spent blocked in receives during the iteration.
  double wait_seconds = 0.0;
  /// Time spent computing during the iteration (including replays).
  double compute_seconds = 0.0;
  /// Speculations issued / checks that failed during the iteration.
  std::uint64_t speculated = 0;
  std::uint64_t failures = 0;

  /// True when the delay/service quantiles below were actually sampled
  /// (backend dist recording on and at least one observation each).
  bool dists_valid = false;
  /// Inbound one-way message delay to this rank, seconds (all peers
  /// aggregated): the Anselmi–Walton delay variable D.
  double delay_p50 = 0.0;
  double delay_p90 = 0.0;
  double delay_p99 = 0.0;
  /// Per-iteration compute (service) time of this rank, seconds: the
  /// service variable S.
  double service_p50 = 0.0;
  double service_p90 = 0.0;
  double service_p99 = 0.0;
  /// Sample counts behind the quantiles, for warmup gating.
  std::uint64_t delay_samples = 0;
  std::uint64_t service_samples = 0;

  /// Current rollback-chain length: number of consecutive rollbacks where
  /// each invalidated work replayed by the previous one (0 = no chain in
  /// progress).  The engine tracks this online; it is the observable the
  /// cascade guard acts on (DESIGN.md §13.4).
  int cascade_depth = 0;
};

class WindowPolicy {
 public:
  virtual ~WindowPolicy() = default;
  /// Window for the first iteration.
  virtual int initial_window() const = 0;
  /// Window for the next iteration, given this iteration's observations.
  /// The engine clamps the result to [0, EngineConfig::max_forward_window].
  virtual int next_window(const WindowFeedback& feedback) = 0;
  /// Short static label for the most recent decision ("hold", "cover",
  /// "stability", "cascade-guard", ...), for controller traces.  Policies
  /// that do not classify their moves report "".
  virtual const char* last_decision() const { return ""; }
};

struct AdaptiveWindowConfig {
  int initial_window = 1;
  /// Grow when the smoothed blocked-time fraction of compute exceeds this.
  double grow_wait_ratio = 0.05;
  /// Shrink when the smoothed failure fraction exceeds this.
  double shrink_failure_fraction = 0.25;
  /// EWMA weight of the newest observation, in (0, 1].
  double smoothing = 0.5;
  /// Iterations to sit still after an adjustment before acting again;
  /// must be >= 0.
  int cooldown = 2;
};

class AdaptiveWindowPolicy final : public WindowPolicy {
 public:
  /// Throws std::invalid_argument when `config` is out of range
  /// (initial_window < 0, smoothing outside (0, 1], cooldown < 0, or a
  /// non-positive grow/shrink threshold).
  explicit AdaptiveWindowPolicy(AdaptiveWindowConfig config = {});

  int initial_window() const override { return config_.initial_window; }
  int next_window(const WindowFeedback& feedback) override;
  const char* last_decision() const override { return last_decision_; }

  std::uint64_t grow_events() const noexcept { return grows_; }
  std::uint64_t shrink_events() const noexcept { return shrinks_; }

 private:
  AdaptiveWindowConfig config_;
  double wait_avg_ = 0.0;
  double fail_avg_ = 0.0;
  int cooldown_left_ = 0;
  std::uint64_t grows_ = 0;
  std::uint64_t shrinks_ = 0;
  const char* last_decision_ = "hold";
};

/// Model-driven window controller configuration.  The defaults implement
/// the contract of DESIGN.md §13: FW is the largest window that both covers
/// the observed delay and keeps the expected replay load within budget,
/// never exceeding the cascade guard.
struct ModelWindowConfig {
  int initial_window = 1;
  /// Which observed delay quantile stands in for D (0.5, 0.9 or 0.99 —
  /// snapped to the nearest sketch marker).  Tail quantiles size the window
  /// for delay spikes, the median for the common case.
  double delay_quantile = 0.9;
  /// Which observed service quantile stands in for S.
  double service_quantile = 0.5;
  /// Hysteresis margin ε in the cover bound FW_cover = ⌈D_q/S − ε⌉ (see
  /// DESIGN.md §13.3, eq. W1).  Window slots are integer: when D_q/S sits
  /// barely above an integer, the extra slot would hide less than ε·S of
  /// delay while exposing a full additional in-flight step to rollback, so
  /// the bound rounds down.  Must be in [0, 1).
  double cover_margin = 0.25;
  /// ρ_max: ceiling on the expected replayed-iteration load per iteration,
  /// k̂ · FW <= ρ_max (the Anselmi–Walton stability inequality as
  /// implemented; see DESIGN.md §13.3).  Must be in (0, 1].
  double utilization_budget = 0.5;
  /// EWMA weight for the observed failure fraction k̂, in (0, 1].
  double smoothing = 0.5;
  /// Iterations to sit still after a window change; must be >= 0.
  int cooldown = 2;
  /// Minimum delay/service samples before the sketches are trusted; the
  /// policy holds its current window during warmup.  Must be >= 1.
  std::uint64_t min_samples = 8;
  /// Largest tolerated rollback-chain length.  Observing a deeper chain
  /// engages the cascade guard: the window drops to 1 and stays there for
  /// `cascade_hold` iterations (Manita–Simonot regime avoidance).  The
  /// steady-state window is additionally capped at this value.  Must be
  /// >= 1.
  int cascade_budget = 3;
  /// Iterations the cascade guard pins FW = 1 after firing; must be >= 1.
  int cascade_hold = 4;
  /// Slew-rate limit: window moves at most this many steps per decision;
  /// must be >= 1.
  int max_step = 1;
};

/// Model-driven controller (the tentpole of DESIGN.md §13): computes the
/// target window from the live delay/service distributions instead of
/// reacting to symptoms.
///
///   FW_cover = ceil(D_q / S - ε) — depth that overlaps the observed delay
///   FW_stab  = floor(ρ_max / k̂)  — stability bound on replay load
///   FW*      = min(FW_cover, FW_stab, cascade_budget)
///
/// moved toward at most `max_step` per decision with a cooldown, and
/// overridden by the cascade guard whenever the engine reports a
/// rollback-chain longer than `cascade_budget`.  Decisions are pure
/// functions of the feedback sequence, so identical runs produce identical
/// window sequences (byte-identical across sweep `--jobs`).
class ModelWindowPolicy final : public WindowPolicy {
 public:
  /// Throws std::invalid_argument on an out-of-range config.
  explicit ModelWindowPolicy(ModelWindowConfig config = {});

  int initial_window() const override { return config_.initial_window; }
  int next_window(const WindowFeedback& feedback) override;
  const char* last_decision() const override { return last_decision_; }

  /// Number of decisions the cascade guard forced (diagnostics).
  std::uint64_t cascade_guard_events() const noexcept { return guard_events_; }

 private:
  ModelWindowConfig config_;
  double fail_avg_ = 0.0;
  int cooldown_left_ = 0;
  int guard_hold_left_ = 0;
  std::uint64_t guard_events_ = 0;
  const char* last_decision_ = "hold";
};

// ---- θ (check threshold) adaptation ----

/// Per-iteration observations handed to a θ policy.
struct ThetaFeedback {
  long iteration = 0;
  double current_theta = 0.0;
  /// Checks resolved / checks rejected during the iteration.
  std::uint64_t checks = 0;
  std::uint64_t failures = 0;
  /// Largest speculation error a check observed this iteration (0 when no
  /// checks resolved).
  double max_error = 0.0;
  /// Current rollback-chain length (same observable as
  /// WindowFeedback::cascade_depth).
  int cascade_depth = 0;
};

class ThetaPolicy {
 public:
  virtual ~ThetaPolicy() = default;
  /// θ for the first iteration.
  virtual double initial_theta() const = 0;
  /// θ for the next iteration, given this iteration's observations.
  virtual double next_theta(const ThetaFeedback& feedback) = 0;
};

/// Rejection-band θ controller configuration (DESIGN.md §13.5).
struct AdaptiveThetaConfig {
  double initial_theta = 0.01;
  /// Hard clamps; 0 < min_theta <= initial_theta <= max_theta.
  double min_theta = 1e-4;
  double max_theta = 0.1;
  /// Target band for the smoothed rejection fraction: below `reject_low`
  /// θ tightens (buy accuracy), above `reject_high` θ widens (buy
  /// throughput).  0 <= reject_low < reject_high <= 1.
  double reject_low = 0.02;
  double reject_high = 0.15;
  /// EWMA weight of the newest rejection observation, in (0, 1].
  double smoothing = 0.5;
  /// Iterations to sit still after a θ change; must be >= 0.
  int cooldown = 2;
  /// Multiplicative step per adjustment; must be > 1.
  double step_factor = 2.0;
};

/// Trades check-threshold slack against the observed rejection rate: when
/// rejections exceed the band, speculation is paying rollback for accuracy
/// the application did not ask for, so θ widens; when (nearly) nothing is
/// rejected, θ tightens to reclaim accuracy.  While a rollback cascade is
/// in progress the policy widens immediately (rejections are the cascade's
/// fuel) regardless of cooldown.
class AdaptiveThetaPolicy final : public ThetaPolicy {
 public:
  /// Throws std::invalid_argument on an out-of-range config.
  explicit AdaptiveThetaPolicy(AdaptiveThetaConfig config = {});

  double initial_theta() const override { return config_.initial_theta; }
  double next_theta(const ThetaFeedback& feedback) override;

  std::uint64_t widen_events() const noexcept { return widens_; }
  std::uint64_t tighten_events() const noexcept { return tightens_; }

 private:
  AdaptiveThetaConfig config_;
  double reject_avg_ = 0.0;
  /// A check-bearing iteration has fed the EWMA since the last reset;
  /// tightening is suspended until then (a zeroed average is absence of
  /// evidence, not evidence of zero rejections).
  bool observed_ = false;
  int cooldown_left_ = 0;
  std::uint64_t widens_ = 0;
  std::uint64_t tightens_ = 0;
};

// ---- CLI-facing factories ----

/// Window-policy family selector, mirroring `--window-policy=`.
enum class WindowPolicyKind {
  Static,     ///< fixed FW (EngineConfig::forward_window)
  Heuristic,  ///< AdaptiveWindowPolicy (wait/failure signal thresholds)
  Model,      ///< ModelWindowPolicy (delay/service distribution model)
};

/// θ-policy family selector, mirroring `--theta-policy=`.
enum class ThetaPolicyKind {
  Static,    ///< fixed θ (EngineConfig::threshold)
  Adaptive,  ///< AdaptiveThetaPolicy (rejection-band controller)
};

/// Parses a `--window-policy=` value ("static", "heuristic" or its alias
/// "adaptive", "model"); std::nullopt on anything else.
std::optional<WindowPolicyKind> parse_window_policy(std::string_view name);

/// Parses a `--theta-policy=` value ("static", "adaptive"); std::nullopt on
/// anything else.
std::optional<ThetaPolicyKind> parse_theta_policy(std::string_view name);

/// Builds the window policy for `kind` starting from `initial_window`.
/// Returns nullptr for Static: the engine then uses its fixed
/// forward_window, which is what "no policy" means internally.
std::shared_ptr<WindowPolicy> make_window_policy(WindowPolicyKind kind,
                                                 int initial_window);

/// Builds the θ policy for `kind` starting from `initial_theta`.  Returns
/// nullptr for Static (the engine then uses its fixed threshold).  For the
/// adaptive kind, `initial_theta` is clamped into the default band limits.
std::shared_ptr<ThetaPolicy> make_theta_policy(ThetaPolicyKind kind,
                                               double initial_theta);

}  // namespace specomp::spec
