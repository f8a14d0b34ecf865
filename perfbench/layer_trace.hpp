// Per-layer host-time tracing, measured from outside the library.
//
// The wrappers below implement the public virtual interfaces a rank body
// talks through (runtime::Communicator, spec::SyncIterativeApp,
// spec::Speculator) and record a wall-clock span around every call they
// forward.  Nothing inside src/ is instrumented.
//
// The des kernel passes one token between its event loop and the rank
// processes, so exactly one thread executes simulation code at any instant.
// A rank's wall time therefore splits into time it is actually running
// (the rank-body span minus the blocking communicator calls, during which
// other ranks and the kernel run) and time it is suspended.  Summed over
// ranks, the running time plus the time outside every rank body equals the
// simulation's wall time; that identity is what turns spans into layers.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/communicator.hpp"
#include "spec/app.hpp"
#include "spec/speculator.hpp"

namespace perfbench {

/// Span kinds, one per layer boundary the benchmark times.
enum class SpanKind : std::uint8_t {
  RankBody,          ///< the whole rank body (root span of a rank)
  AppCompute,        ///< SyncIterativeApp::compute_step
  AppCheck,          ///< SyncIterativeApp::speculation_error
  AppCorrect,        ///< SyncIterativeApp::correct_last_step
  AppCheckpoint,     ///< save_state / restore_state
  AppExchange,       ///< pack_local / install_peer
  SpecPredict,       ///< Speculator::predict
  RuntimeTryRecv,    ///< Communicator::try_recv (never yields)
  RuntimeSnapshot,   ///< Communicator::dist_snapshot (never yields)
  RuntimeBlocking,   ///< send/recv*/compute/barrier: may hand the token away
  kCount,
};

const char* span_name(SpanKind kind) noexcept;

struct Span {
  SpanKind kind;
  int rank;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  ///< index of the enclosing span, -1 for a root
};

/// In-memory span store for one simulation.  Only the thread holding the
/// des token appends, and the token handoff orders those appends, so no
/// lock is needed.
class SpanLog {
 public:
  explicit SpanLog(int ranks) : open_(static_cast<std::size_t>(ranks), -1) {}

  static std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Opens a span on `rank` under its innermost open span.
  std::int32_t open(SpanKind kind, int rank);
  void close(std::int32_t index) noexcept;

  void reserve(std::size_t count) { spans_.reserve(count); }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  ///< innermost open span per rank
};

/// RAII span.
class Scope {
 public:
  Scope(SpanLog& log, SpanKind kind, int rank)
      : log_(log), index_(log.open(kind, rank)) {}
  ~Scope() { log_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  std::int32_t index_;
};

/// Host seconds per layer for one simulation, from its spans.
struct LayerSplit {
  double wall_s = 0.0;
  double self_s[static_cast<std::size_t>(SpanKind::kCount)] = {};
  /// wall minus the time any rank was running its own code: des dispatch,
  /// process handoffs, communicator/mailbox/channel internals, obs sampling.
  double outside_s = 0.0;
  double compute_ops = 0.0;  ///< Σ compute_ops() over traced compute steps

  double self(SpanKind kind) const noexcept {
    return self_s[static_cast<std::size_t>(kind)];
  }
};

LayerSplit split_layers(const SpanLog& log, double wall_s, double compute_ops);

/// Writes spans as JSON lines: name, rank, start/end in µs from the first
/// span, parent index.
bool write_spans(const std::string& path, const SpanLog& log);

/// Forwards every call to the wrapped communicator and times the ones that
/// do real work.  PhaseTimer is not virtual: the engine bumps iterations on
/// this object's timer and reads phase times from it (the model window
/// policy's wait signal), so the wrapper mirrors the wrapped timer after
/// every forwarded call and pushes the engine's iteration bumps into it.
class TracedCommunicator final : public specomp::runtime::Communicator {
 public:
  TracedCommunicator(specomp::runtime::Communicator& inner, SpanLog& log);

  specomp::net::Rank rank() const override { return inner_.rank(); }
  int size() const override { return inner_.size(); }
  double ops_per_sec() const override { return inner_.ops_per_sec(); }
  void send(specomp::net::Rank dst, int tag,
            std::vector<std::byte> payload) override;
  bool try_recv(specomp::net::Rank src, int tag,
                specomp::net::Message& out) override;
  specomp::net::Message recv(specomp::net::Rank src, int tag) override;
  specomp::net::Message recv_any(int tag) override;
  bool recv_timeout(specomp::net::Rank src, int tag, double timeout_seconds,
                    specomp::net::Message& out) override;
  void barrier() override;
  void compute(double ops, specomp::runtime::Phase phase) override;
  double time_seconds() const override { return inner_.time_seconds(); }
  void mark_speculative(bool on) override { inner_.mark_speculative(on); }
  void mark_degraded(bool on) override { inner_.mark_degraded(on); }
  void trace_causal(specomp::des::CausalKind kind, int peer,
                    std::int64_t iter) override {
    inner_.trace_causal(kind, peer, iter);
  }
  specomp::runtime::DistSnapshot dist_snapshot() const override;

  /// Pushes outstanding iteration bumps into the wrapped timer; call once
  /// the engine has returned.
  void flush_timer();

 private:
  /// Runs `call` on the wrapped communicator inside a span of `kind`,
  /// keeping the two timers in step around it.
  template <typename Call>
  decltype(auto) forward(SpanKind kind, Call&& call);

  specomp::runtime::Communicator& inner_;
  SpanLog& log_;
  std::size_t pushed_iterations_ = 0;
};

class TracedApp final : public specomp::spec::SyncIterativeApp {
 public:
  TracedApp(specomp::spec::SyncIterativeApp& inner, SpanLog& log, int rank)
      : inner_(inner), log_(log), rank_(rank) {}

  std::vector<double> pack_local() const override;
  void install_peer(int peer, std::span<const double> block) override;
  void compute_step() override;
  double compute_ops() const override;
  double speculation_error(int peer, std::span<const double> speculated,
                           std::span<const double> actual) override;
  double check_ops(int peer) const override { return inner_.check_ops(peer); }
  bool correct_last_step(int peer, std::span<const double> actual) override;
  double correct_ops(int peer) const override {
    return inner_.correct_ops(peer);
  }
  std::vector<double> save_state() const override;
  void restore_state(std::span<const double> state) override;

  /// Σ compute_ops() the engine billed through this wrapper.
  double billed_compute_ops() const noexcept { return billed_ops_; }

 private:
  specomp::spec::SyncIterativeApp& inner_;
  SpanLog& log_;
  int rank_;
  mutable double billed_ops_ = 0.0;
};

class TracedSpeculator final : public specomp::spec::Speculator {
 public:
  TracedSpeculator(std::shared_ptr<specomp::spec::Speculator> inner,
                   SpanLog& log, int rank)
      : inner_(std::move(inner)), log_(log), rank_(rank) {}

  std::vector<double> predict(const specomp::spec::History& history,
                              int steps) const override;
  std::size_t backward_window() const noexcept override {
    return inner_->backward_window();
  }
  double ops_per_variable() const noexcept override {
    return inner_->ops_per_variable();
  }
  std::string_view name() const noexcept override { return inner_->name(); }

 private:
  std::shared_ptr<specomp::spec::Speculator> inner_;
  SpanLog& log_;
  int rank_;
};

}  // namespace perfbench
