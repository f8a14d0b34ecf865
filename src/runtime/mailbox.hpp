// Indexed mailboxes for both communicator backends.
//
// Receives match on (source, tag).  The old mailboxes kept one flat deque
// and linearly scanned every pending message per receive, recomputing the
// lowest sequence number each time — O(mailbox) per call, quadratic over an
// iteration's message burst.  These containers index messages into
// per-(src, tag) streams ordered by sender sequence number:
//
//   * take(src, tag)     — O(1) pop of the stream head (+ tag hash lookup),
//   * take_any(tag)      — O(#sources) scan of one tag's stream heads,
//   * push/deliver       — O(log stream) heap insert, amortised O(1) for the
//                          in-order deliveries that dominate.
//
// Selection semantics are exactly the old scan's: among matching messages
// the lowest (seq, arrival-order) wins, so jitter-reordered deliveries of
// one stream are consumed in send order and equal-seq messages from
// different sources resolve by arrival — byte-identical simulation results.
//
// SimMailbox is the single-threaded variant used by SimCommunicator (the
// DES kernel serialises access).  TimedMailbox adds a mutex, a condition
// variable and per-message visibility times for the real-thread backend;
// its take_blocking no longer rescans the whole queue to recompute the next
// wake-up — the not-yet-visible messages sit in a per-stream min-heap whose
// top *is* the next maturity time.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/message.hpp"

namespace specomp::runtime {

/// How a mailbox orders messages within one (src, tag) stream.  BySeq (the
/// default) reassembles sender order — which is also what recovers from
/// network-level reordering injected by a FaultPlan.  ByArrival hands
/// messages out in delivery order, so injected reordering stays observable
/// (fault plans with recovery off use it to demonstrate the failure mode).
enum class DeliveryOrder : std::uint8_t { BySeq, ByArrival };

namespace detail_mailbox {

/// One (src, tag) stream: a min-heap of messages keyed by `key` — the
/// sender sequence number under DeliveryOrder::BySeq (seqs within a stream
/// are unique, so the head is the unambiguous next message in send order)
/// or the arrival counter under ByArrival.
struct Stored {
  net::Message msg;
  std::uint64_t arrival = 0;
  std::uint64_t key = 0;
};

class SeqStream {
 public:
  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  const Stored& front() const noexcept { return heap_.front(); }

  void push(Stored item) {
    heap_.push_back(std::move(item));
    std::size_t hole = heap_.size() - 1;
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (heap_[parent].key <= heap_[hole].key) break;
      std::swap(heap_[parent], heap_[hole]);
      hole = parent;
    }
  }

  Stored pop() {
    Stored out = std::move(heap_.front());
    heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    std::size_t hole = 0;
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t left = 2 * hole + 1;
      if (left >= n) break;
      std::size_t best = left;
      const std::size_t right = left + 1;
      if (right < n && heap_[right].key < heap_[left].key) best = right;
      if (heap_[hole].key <= heap_[best].key) break;
      std::swap(heap_[hole], heap_[best]);
      hole = best;
    }
    return out;
  }

 private:
  std::vector<Stored> heap_;
};

}  // namespace detail_mailbox

/// Mailbox of one simulated rank.  Not thread-safe: the DES kernel
/// guarantees a single active thread of control.
class SimMailbox {
 public:
  /// `num_sources` = cluster size; streams are indexed by source rank.
  explicit SimMailbox(int num_sources,
                      DeliveryOrder order = DeliveryOrder::BySeq)
      : num_sources_(num_sources > 0 ? num_sources : 1), order_(order) {}

  void push(net::Message msg) {
    const std::uint64_t arrival = next_arrival_++;
    const std::uint64_t key =
        order_ == DeliveryOrder::BySeq ? msg.seq : arrival;
    streams_for(msg.tag)[static_cast<std::size_t>(msg.src)].push(
        {std::move(msg), arrival, key});
  }

  bool take(net::Rank src, int tag, net::Message& out) {
    auto it = by_tag_.find(tag);
    if (it == by_tag_.end()) return false;
    auto& stream = it->second[static_cast<std::size_t>(src)];
    if (stream.empty()) return false;
    out = stream.pop().msg;
    return true;
  }

  bool take_any(int tag, net::Message& out) {
    auto it = by_tag_.find(tag);
    if (it == by_tag_.end()) return false;
    detail_mailbox::SeqStream* best = nullptr;
    for (auto& stream : it->second) {
      if (stream.empty()) continue;
      if (best == nullptr || wins(stream.front(), best->front())) best = &stream;
    }
    if (best == nullptr) return false;
    out = best->pop().msg;
    return true;
  }

 private:
  /// Cross-stream selection rule of the old linear scan: lowest key (seq in
  /// BySeq mode) first, ties resolve by arrival order.
  static bool wins(const detail_mailbox::Stored& a,
                   const detail_mailbox::Stored& b) noexcept {
    if (a.key != b.key) return a.key < b.key;
    return a.arrival < b.arrival;
  }

  std::vector<detail_mailbox::SeqStream>& streams_for(int tag) {
    auto [it, inserted] = by_tag_.try_emplace(tag);
    if (inserted) it->second.resize(static_cast<std::size_t>(num_sources_));
    return it->second;
  }

  int num_sources_;
  DeliveryOrder order_;
  std::uint64_t next_arrival_ = 0;
  std::unordered_map<int, std::vector<detail_mailbox::SeqStream>> by_tag_;
};

/// Thread-safe mailbox with delayed visibility for the real-thread backend:
/// a message becomes receivable only once its delivery time has passed.
class TimedMailbox {
 public:
  // specomp: allow(wall-clock): TimedMailbox serves the real-thread backend, whose delivery delays are genuine wall time
  using Clock = std::chrono::steady_clock;

  explicit TimedMailbox(int num_sources,
                        DeliveryOrder order = DeliveryOrder::BySeq)
      : num_sources_(num_sources > 0 ? num_sources : 1), order_(order) {}

  void deliver(net::Message msg, Clock::time_point deliver_at) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      auto& stream = streams_for(msg.tag)[static_cast<std::size_t>(msg.src)];
      stream.pending.push_back({std::move(msg), next_arrival_++, deliver_at});
      std::push_heap(stream.pending.begin(), stream.pending.end(), later);
    }
    cv_.notify_all();
  }

  std::optional<net::Message> try_take(net::Rank src, int tag) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return take_locked(src, tag, Clock::now());
  }

  std::optional<net::Message> try_take_any(int tag) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return take_any_locked(tag, Clock::now());
  }

  net::Message take_blocking(net::Rank src, int tag) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      const auto now = Clock::now();
      if (auto msg = take_locked(src, tag, now)) return std::move(*msg);
      // The stream's pending heap top is the earliest maturity — no rescan.
      auto next_ready = Clock::time_point::max();
      if (auto it = by_tag_.find(tag); it != by_tag_.end()) {
        const auto& stream = it->second[static_cast<std::size_t>(src)];
        if (!stream.pending.empty())
          next_ready = stream.pending.front().deliver_at;
      }
      wait(lock, next_ready);
    }
  }

  net::Message take_blocking_any(int tag) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      const auto now = Clock::now();
      if (auto msg = take_any_locked(tag, now)) return std::move(*msg);
      auto next_ready = Clock::time_point::max();
      if (auto it = by_tag_.find(tag); it != by_tag_.end()) {
        for (const auto& stream : it->second) {
          if (!stream.pending.empty() &&
              stream.pending.front().deliver_at < next_ready) {
            next_ready = stream.pending.front().deliver_at;
          }
        }
      }
      wait(lock, next_ready);
    }
  }

  /// take_blocking bounded by a deadline: returns nullopt if no matching
  /// message became receivable by `deadline`.
  std::optional<net::Message> take_blocking_until(net::Rank src, int tag,
                                                  Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      const auto now = Clock::now();
      if (auto msg = take_locked(src, tag, now)) return msg;
      if (now >= deadline) return std::nullopt;
      auto next_ready = deadline;
      if (auto it = by_tag_.find(tag); it != by_tag_.end()) {
        const auto& stream = it->second[static_cast<std::size_t>(src)];
        if (!stream.pending.empty() &&
            stream.pending.front().deliver_at < next_ready) {
          next_ready = stream.pending.front().deliver_at;
        }
      }
      wait(lock, next_ready);
    }
  }

 private:
  struct Timed {
    net::Message msg;
    std::uint64_t arrival = 0;
    Clock::time_point deliver_at;
  };

  /// std::push_heap comparator: max-heap by "later maturity", so the heap
  /// top is the message that matures first (ties by arrival for stability).
  static bool later(const Timed& a, const Timed& b) noexcept {
    if (a.deliver_at != b.deliver_at) return a.deliver_at > b.deliver_at;
    return a.arrival > b.arrival;
  }

  struct Stream {
    detail_mailbox::SeqStream ready;  // visible, ordered by seq
    std::vector<Timed> pending;       // min-heap by deliver_at
  };

  std::vector<Stream>& streams_for(int tag) {
    auto [it, inserted] = by_tag_.try_emplace(tag);
    if (inserted) it->second.resize(static_cast<std::size_t>(num_sources_));
    return it->second;
  }

  /// Moves every matured message of `stream` into its ready heap.
  void promote(Stream& stream, Clock::time_point now) {
    while (!stream.pending.empty() &&
           stream.pending.front().deliver_at <= now) {
      std::pop_heap(stream.pending.begin(), stream.pending.end(), later);
      Timed timed = std::move(stream.pending.back());
      stream.pending.pop_back();
      const std::uint64_t key =
          order_ == DeliveryOrder::BySeq ? timed.msg.seq : timed.arrival;
      stream.ready.push({std::move(timed.msg), timed.arrival, key});
    }
  }

  std::optional<net::Message> take_locked(net::Rank src, int tag,
                                          Clock::time_point now) {
    auto it = by_tag_.find(tag);
    if (it == by_tag_.end()) return std::nullopt;
    auto& stream = it->second[static_cast<std::size_t>(src)];
    promote(stream, now);
    if (stream.ready.empty()) return std::nullopt;
    return stream.ready.pop().msg;
  }

  std::optional<net::Message> take_any_locked(int tag, Clock::time_point now) {
    auto it = by_tag_.find(tag);
    if (it == by_tag_.end()) return std::nullopt;
    detail_mailbox::SeqStream* best = nullptr;
    for (auto& stream : it->second) {
      promote(stream, now);
      if (stream.ready.empty()) continue;
      if (best == nullptr ||
          stream.ready.front().key < best->front().key ||
          (stream.ready.front().key == best->front().key &&
           stream.ready.front().arrival < best->front().arrival)) {
        best = &stream.ready;
      }
    }
    if (best == nullptr) return std::nullopt;
    return best->pop().msg;
  }

  void wait(std::unique_lock<std::mutex>& lock, Clock::time_point next_ready) {
    if (next_ready == Clock::time_point::max()) {
      cv_.wait(lock);
    } else {
      cv_.wait_until(lock, next_ready);
    }
  }

  int num_sources_;
  DeliveryOrder order_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t next_arrival_ = 0;  // guarded by mutex_
  std::unordered_map<int, std::vector<Stream>> by_tag_;  // guarded by mutex_
};

}  // namespace specomp::runtime
