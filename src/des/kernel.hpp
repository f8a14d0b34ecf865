// Deterministic discrete-event simulation kernel.
//
// The kernel owns a priority queue of timestamped events and a set of
// cooperative processes (see process.hpp).  Exactly one thread of control is
// active at any instant — either the kernel's event loop or a single process
// body — so a simulation run is a pure function of its inputs: identical
// configuration and seeds replay to identical traces.  Ties in event time are
// broken by insertion sequence, giving a total order.
//
// Storage layout (hot path).  Callables live in a recycled arena of EventFn
// slots (48-byte small-buffer storage, see event.hpp); the priority queue is
// an indexed binary heap whose entries carry the (time, seq) key inline, so
// heap sifts never touch the arena and comparisons stay two integer
// compares.  schedule_at / run steady state performs zero heap allocations
// and zero callable copies: slots are reused through a free list and events
// are *moved* out of their slot before execution.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "des/event.hpp"
#include "des/time.hpp"

namespace specomp::des {

class Process;

/// Statistics the kernel gathers about a completed run.
struct KernelStats {
  std::uint64_t events_executed = 0;
  SimTime end_time = SimTime::zero();
  /// High-water mark of the pending-event queue over the kernel's lifetime.
  std::uint64_t queue_peak = 0;
};

class Kernel {
 public:
  Kernel();
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Current simulated time.  Outside run() this is the time of the last
  /// executed event.
  SimTime now() const noexcept { return now_; }

  /// Schedules `fn` to execute at absolute time `at` (>= now()).  Accepts any
  /// void() callable, including move-only ones.
  void schedule_at(SimTime at, EventFn fn);
  /// Schedules `fn` to execute `delay` after now().
  void schedule_in(SimTime delay, EventFn fn);

  /// Creates a process whose body runs `fn`.  The process starts at time
  /// `start` (default: immediately at the current time).  The returned
  /// pointer remains owned by the kernel and is valid for its lifetime.
  // specomp: allow(hot-path-callable): spawn runs once per process at setup, never on the per-event hot path
  Process* spawn(std::string name, std::function<void(Process&)> fn,
                 SimTime start = SimTime::zero());

  /// Runs until the event queue is empty.  Throws std::runtime_error if
  /// processes remain suspended with no pending events (deadlock).
  KernelStats run();

  /// Runs until simulated time reaches `limit` or the queue drains.
  KernelStats run_until(SimTime limit);

  const std::vector<std::unique_ptr<Process>>& processes() const noexcept {
    return processes_;
  }

  std::uint64_t events_executed() const noexcept { return events_executed_; }
  std::uint64_t queue_peak() const noexcept { return queue_peak_; }

 private:
  friend class Process;

  /// Heap entry: full ordering key inline + arena slot of the callable.
  struct HeapEntry {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool earlier(const HeapEntry& a, const HeapEntry& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;  // FIFO among equal times
  }

  /// Process::advance fast path: when no pending event precedes `at` (and a
  /// bounded run's limit is not crossed), the would-be resume event is
  /// executed inline — time, sequence and event count advance exactly as if
  /// it had been queued and popped, but the two kernel/process context
  /// switches are skipped.  Returns false when the caller must take the
  /// queued slow path to preserve ordering.
  bool try_fast_forward(SimTime at) noexcept;

  std::uint32_t acquire_slot(EventFn&& fn);
  void release_slot(std::uint32_t slot) noexcept;
  void heap_push(HeapEntry entry);
  HeapEntry heap_pop() noexcept;
  void sift_down(std::size_t hole) noexcept;

  KernelStats run_impl(bool bounded, SimTime limit);
  void check_deadlock() const;

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::uint64_t queue_peak_ = 0;
  bool bounded_run_ = false;   // valid only inside run_impl
  SimTime run_limit_ = SimTime::zero();
  std::vector<HeapEntry> heap_;
  std::vector<EventFn> arena_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::unique_ptr<Process>> processes_;
};

}  // namespace specomp::des
