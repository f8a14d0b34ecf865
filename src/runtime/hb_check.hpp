// Vector-clock happens-before detector for both communicator backends.
//
// The paper's measurements are only meaningful if the synchronization
// protocol underneath them is sound: a speculation "check" that reads peer
// state which — per the happens-before relation — could not have been
// produced yet is not a measurement, it is a race.  PR 3 guards this
// empirically (bit-identity reruns, TSan); this detector guards it
// structurally, following the self-stabilization line of work: verify the
// protocol itself, not just sampled executions.
//
// Every send ticks the sender's clock and stamps the message; every receive
// verifies, then merges.  Violations detected:
//
//   * phantom message — a rank consumes (src, tag, seq) that no send ever
//     produced: state that cannot exist in any causal history;
//   * stream inversion — a (src, dst, tag) stream delivers seq B before an
//     earlier outstanding seq A, although send(A) happens-before send(B)
//     (the mailbox invariant both backends rely on);
//   * duplicate delivery — a seq consumed twice on one stream;
//   * time travel (simulated backend only) — a message consumed at a virtual
//     time before its delivery time, or delivered before it was sent.
//
// Each violation throws HbViolation whose what() carries a causal-path
// diagnostic: the implicated sends with their vector clocks, and the
// receiver's clock at the moment of the violation.
//
// Cost model: the detector runs only when `--hb-check`
// (SimConfig/ThreadConfig::hb_check) creates it.  Every build compiles the
// communicator hooks; with the detector off each hook is one null-pointer
// test, the same discipline as the fault plan, the trace and the
// distribution sketches.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace specomp::runtime {

/// Thrown (never swallowed) on a happens-before violation; what() is the
/// causal-path diagnostic.
class HbViolation : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

using VectorClock = std::vector<std::uint64_t>;

class HbChecker {
 public:
  explicit HbChecker(int num_ranks);

  /// Records a send: ticks `src`'s clock and stamps the (src→dst, tag, seq)
  /// message with it.  Thread-safe (the thread backend sends concurrently).
  void on_send(int src, int dst, int tag, std::uint64_t seq);

  /// Records rank `dst` consuming the (src→dst, tag, seq) message.  Verifies
  /// the message exists, is not a duplicate, and is its stream's oldest
  /// outstanding send; then merges the stamp into dst's clock.  Throws
  /// HbViolation otherwise.
  void on_receive(int dst, int src, int tag, std::uint64_t seq);

  /// Simulated-backend variant: additionally verifies virtual-time sanity
  /// (sent_at <= delivered_at <= now) before the clock checks.
  void on_receive_sim(int dst, int src, int tag, std::uint64_t seq,
                      double sent_at, double delivered_at, double now);

  /// A barrier synchronises every rank: all clocks join to their elementwise
  /// maximum, then each rank ticks.
  void on_barrier();

  /// Snapshot of one rank's clock (tests and diagnostics).
  VectorClock clock(int rank) const;

  /// Total sends + receives + barriers verified so far.
  std::uint64_t events_checked() const;

 private:
  struct StreamKey {
    int src;
    int dst;
    int tag;
    bool operator<(const StreamKey& o) const {
      if (src != o.src) return src < o.src;
      if (dst != o.dst) return dst < o.dst;
      return tag < o.tag;
    }
  };
  struct SendRecord {
    std::uint64_t seq = 0;
    VectorClock stamp;  // sender clock at send time
  };
  struct Stream {
    std::deque<SendRecord> outstanding;  // send order = seq order
    std::set<std::uint64_t> delivered;
  };

  [[noreturn]] void violation_locked(const std::string& message) const;
  void check_and_merge_locked(int dst, int src, int tag, std::uint64_t seq);
  static std::string clock_str(const VectorClock& clock);

  mutable std::mutex mutex_;
  std::vector<VectorClock> clocks_;
  std::map<StreamKey, Stream> streams_;
  std::uint64_t events_checked_ = 0;
};

}  // namespace specomp::runtime
