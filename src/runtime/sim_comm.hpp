// Simulated communicator and run harness.
//
// Substitutes for the paper's physical testbed (heterogeneous SUN/Sparc
// workstations on shared ethernet under PVM): each rank becomes a
// des::Process; computation charges virtual time at the rank's M_i; sends
// traverse a net::Channel whose contention and jitter determine delivery
// times.  Numerics execute for real, so speculation error rates are genuine
// — only *time* is simulated.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "des/kernel.hpp"
#include "des/process.hpp"
#include "des/trace.hpp"
#include "net/channel.hpp"
#include "obs/dist_sketch.hpp"
#include "runtime/cluster.hpp"
#include "runtime/communicator.hpp"
#include "runtime/fault.hpp"
#include "runtime/mailbox.hpp"

namespace specomp::runtime {

struct SimConfig {
  Cluster cluster;  // one rank per machine, fastest first
  net::ChannelConfig channel;
  /// true: all ranks share one ethernet-like medium (the paper's testbed);
  /// false: independent point-to-point links (idealised switch baseline).
  bool shared_medium = true;
  /// Send-side software overhead per message (PVM pack + syscall), charged
  /// to the sending processor.
  des::SimTime send_sw_time = des::SimTime::millis(1);
  /// Record a Gantt trace of all rank activity (costs memory; used by the
  /// timeline example).
  bool record_trace = false;
  /// Record per-link delivery-delay and per-rank service-time distributions
  /// into SimResult::dists via obs::DistSketch (fixed memory: p² + p
  /// sketches; the sample paths pay one pointer test when off).
  bool record_dists = false;
  /// Run the vector-clock happens-before detector on every send/recv/barrier
  /// (see runtime/hb_check.hpp).  Off, each hook pays one null-pointer test.
  bool hb_check = false;
  /// Optional fault-injection plan consulted on every send/deliver/compute
  /// (see runtime/fault.hpp).  nullptr = fault-free; the hot paths then pay
  /// a single pointer test.
  FaultPlanPtr fault;
  /// Collective-algorithm preference for this run: resolves the Auto default
  /// of runtime/collectives.hpp calls and selects the barrier
  /// implementation (Flat = zero-cost world barrier; Tree = dissemination
  /// barrier over real messages).  Auto defers to the size heuristic (see
  /// runtime/collective_algo.hpp).
  CollectiveAlgo collective = CollectiveAlgo::Auto;
};

struct SimResult {
  /// Latest local finish time over all ranks — the run's makespan.
  double makespan_seconds = 0.0;
  /// Per-rank phase accounting (index = rank).
  std::vector<PhaseTimer> timers;
  net::ChannelStats channel_stats;
  des::KernelStats kernel_stats;
  des::Trace trace;
  /// Fault-injection bookkeeping; all zeros when SimConfig::fault is unset.
  FaultStats fault_stats;
  /// Send/receive/barrier events the happens-before detector checked; 0
  /// unless SimConfig::hb_check is on.
  std::uint64_t hb_events_checked = 0;
  /// Observed distributions ("link_delay.S->D", "service.rankR"); empty
  /// unless SimConfig::record_dists.  Links with no traffic are omitted.
  std::vector<obs::NamedDist> dists;
};

/// Runs `body` as an SPMD program, one simulated rank per cluster machine.
/// Deterministic: identical config and body ⇒ identical result.  When a
/// rank body throws a std::exception, the first one is rethrown after the
/// simulation ends (the other ranks run on until they finish or block).
SimResult run_simulated(const SimConfig& config, const RankBody& body);

namespace detail {

class SimWorld;

class SimCommunicator final : public Communicator {
 public:
  SimCommunicator(SimWorld& world, net::Rank rank);

  net::Rank rank() const override { return rank_; }
  int size() const override;
  double ops_per_sec() const override;
  void send(net::Rank dst, int tag, std::vector<std::byte> payload) override;
  bool try_recv(net::Rank src, int tag, net::Message& out) override;
  net::Message recv(net::Rank src, int tag) override;
  net::Message recv_any(int tag) override;
  bool recv_timeout(net::Rank src, int tag, double timeout_seconds,
                    net::Message& out) override;
  void barrier() override;
  void compute(double ops, Phase phase = Phase::Compute) override;
  double time_seconds() const override;
  void mark_speculative(bool on) override { speculative_ = on; }
  void mark_degraded(bool on) override;
  void trace_causal(des::CausalKind kind, int peer = -1,
                    std::int64_t iter = -1) override;
  DistSnapshot dist_snapshot() const override;

 private:
  friend class SimWorld;

  void advance_traced(des::SimTime dt, Phase phase);
  des::SpanKind span_kind_for(Phase phase) const;
  net::Message recv_blocking(bool any, net::Rank src, int tag);
  /// Bookkeeping common to every successful receive (hb check, phase timer,
  /// Wait trace span).
  void note_received(const net::Message& msg, des::SimTime wait_begin);
  /// Causal Recv edge endpoint + link-delay distribution sample; shared by
  /// every receive path.
  void note_recv_causal(const net::Message& msg);
  /// Mailbox insertion at delivery time; applies the duplicate filter when
  /// the fault plan wants it.
  void deliver_from_wire(net::Message&& msg);
  /// Raises RankCrashed once local time reaches this rank's crash time.
  void maybe_crash();

  SimWorld& world_;
  net::Rank rank_;
  des::Process* process_ = nullptr;  // bound by the harness before start
  SimMailbox mailbox_;
  std::uint64_t next_seq_ = 0;
  bool speculative_ = false;
  bool degraded_ = false;

  // Fault-plan state (all idle when the plan is unset).
  std::optional<double> crash_at_seconds_;
  std::uint64_t compute_draw_ = 0;   ///< per-charge draw for stochastic slowdowns
  std::size_t stall_cursor_ = 0;     ///< scan state for FaultPlan::take_due_stalls
  /// (src, tag, seq) of first copies of duplicated messages already
  /// delivered; the second copy erases its entry and is suppressed.
  std::vector<std::tuple<net::Rank, int, std::uint64_t>> pending_dups_;
  /// Per-(dst, tag) in-order delivery floors; entries exist only for
  /// streams a fault delayed (see send()).
  std::unordered_map<std::uint64_t, des::SimTime> delivery_floor_;
};

}  // namespace detail

}  // namespace specomp::runtime
