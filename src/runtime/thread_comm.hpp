// Real-thread communicator.
//
// Functional backend: each rank is an OS thread; messages travel through
// in-process mailboxes with optional injected delivery delays.  Used to
// cross-check that application code and the speculation engine behave
// identically under genuine concurrency (arbitrary interleavings) as under
// the deterministic simulator.  Timing figures from this backend are
// wall-clock and hardware-dependent; the simulated backend is the
// measurement instrument.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "des/trace.hpp"
#include "net/message.hpp"
#include "runtime/cluster.hpp"
#include "runtime/communicator.hpp"
#include "runtime/fault.hpp"

namespace specomp::runtime {

struct ThreadConfig {
  Cluster cluster;
  /// Real sleep per modelled second of compute: compute(ops) sleeps
  /// ops / M_i * time_scale seconds.  0 disables sleeping (fast tests).
  double time_scale = 0.0;
  /// Constant message delivery delay, seconds of wall time.
  double latency_seconds = 0.0;
  /// Extra uniform jitter in [0, latency_jitter_seconds).
  double latency_jitter_seconds = 0.0;
  std::uint64_t seed = 0x7ead5;
  /// Run the vector-clock happens-before detector on every send/recv/barrier
  /// (see runtime/hb_check.hpp).  Off, each hook pays one null-pointer test.
  bool hb_check = false;
  /// Optional fault-injection plan (see runtime/fault.hpp).  Fault decisions
  /// hash the same message identities as the simulated backend, so the same
  /// plan + seed faults the same messages on both.  Times in the plan
  /// (slow/stall/crash windows) are interpreted as wall seconds since the
  /// run started on this backend.
  FaultPlanPtr fault;
  /// Record causal trace events (send/recv edges, speculation lifecycle)
  /// into ThreadResult::trace.  Timestamps are wall seconds since run start,
  /// so causal *structure* is comparable with the simulated backend even
  /// though timings are hardware-dependent.
  bool record_trace = false;
  /// Collective-algorithm preference for this run (same semantics as
  /// SimConfig::collective): Auto resolution for collectives, and barrier()
  /// runs the dissemination barrier when this resolves to Tree.
  CollectiveAlgo collective = CollectiveAlgo::Auto;
};

struct ThreadResult {
  double makespan_seconds = 0.0;
  std::vector<PhaseTimer> timers;
  /// Fault-injection bookkeeping; all zeros when ThreadConfig::fault is unset.
  FaultStats fault_stats;
  /// Causal events only (no spans on this backend); empty unless
  /// ThreadConfig::record_trace.
  des::Trace trace;
};

/// Runs `body` on one real thread per cluster machine and joins them all.
ThreadResult run_threaded(const ThreadConfig& config, const RankBody& body);

}  // namespace specomp::runtime
