// Cooperative simulated process.
//
// Each process hosts its body on a dedicated OS thread, but the kernel
// enforces strict alternation: the kernel thread and process threads exchange
// a single logical token, so only one of them ever runs.  This gives
// application code a natural blocking style (plain function calls, loops,
// blocking receives) while keeping the simulation fully deterministic.
//
// A process interacts with simulated time through three primitives:
//   - advance(dt): consume `dt` of local compute time,
//   - suspend():   block until another event calls wake(),
//   - yield_now(): reschedule at the same time (after already-queued events).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "des/kernel.hpp"
#include "des/time.hpp"

namespace specomp::des {

class Process {
 public:
  enum class State {
    NotStarted,   // spawn event not yet executed
    Waiting,      // waiting for a scheduled resume event
    Suspended,    // waiting for an external wake()
    Running,      // body currently holds the token
    Finished,     // body returned
  };

  // specomp: allow(hot-path-callable): the body callable is invoked once per process lifetime, not per event
  Process(Kernel& kernel, std::string name, std::function<void(Process&)> body,
          std::uint64_t id);
  ~Process();
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  const std::string& name() const noexcept { return name_; }
  std::uint64_t id() const noexcept { return id_; }
  State state() const noexcept { return state_; }
  Kernel& kernel() noexcept { return kernel_; }
  SimTime now() const noexcept { return kernel_.now(); }

  // ---- Called from inside the process body (body thread only). ----

  /// Advances local time by `dt`, modelling computation of that duration.
  void advance(SimTime dt);
  /// Blocks until some event calls wake().  If a wake is already pending the
  /// call consumes it and returns without advancing time.
  void suspend();
  /// Gives other same-time events a chance to run, then resumes.
  void yield_now();

  // ---- Called from kernel events (kernel thread only). ----

  /// Wakes a suspended process (resumes it at the current event time).  If
  /// the process is not currently suspended the wake is remembered and
  /// consumed by its next suspend().  Idempotent while pending.
  void wake();

 private:
  friend class Kernel;

  /// Kernel-side: transfer control to the body until it yields back.
  void resume_from_kernel();
  /// Body-side: yield control back to the kernel event loop.
  void yield_to_kernel();
  void thread_main();

  Kernel& kernel_;
  std::string name_;
  // specomp: allow(hot-path-callable): stored body, called once at process start
  std::function<void(Process&)> body_;
  std::uint64_t id_;

  std::mutex mutex_;
  std::condition_variable cv_;
  bool token_with_body_ = false;  // guarded by mutex_
  bool thread_started_ = false;

  State state_ = State::NotStarted;  // only touched while holding the token
  bool wake_pending_ = false;
  bool resume_scheduled_ = false;
  bool kill_requested_ = false;  // set once by ~Process under mutex_
  std::thread thread_;
};

}  // namespace specomp::des
