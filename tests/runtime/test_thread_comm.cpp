#include "runtime/thread_comm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace specomp::runtime {
namespace {

ThreadConfig quick_config(std::size_t p) {
  ThreadConfig config;
  config.cluster = Cluster::homogeneous(p, 1e6);
  config.time_scale = 0.0;
  return config;
}

TEST(ThreadComm, SendRecvRoundTrip) {
  std::vector<double> received;
  run_threaded(quick_config(2), [&](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_doubles(1, 3, std::vector<double>{9.0, 8.0});
    } else {
      received = comm.recv_doubles(0, 3);
    }
  });
  EXPECT_EQ(received, (std::vector<double>{9.0, 8.0}));
}

TEST(ThreadComm, RecordTraceCapturesCausalSendRecvEdges) {
  ThreadConfig config = quick_config(2);
  config.record_trace = true;
  const ThreadResult result =
      run_threaded(config, [&](Communicator& comm) {
        if (comm.rank() == 0) {
          comm.send_doubles(1, 3, std::vector<double>{1.0});
        } else {
          (void)comm.recv_doubles(0, 3);
        }
      });
  int sends = 0;
  int recvs = 0;
  for (const auto& e : result.trace.causal()) {
    if (e.kind == des::CausalKind::Send) {
      ++sends;
      EXPECT_EQ(e.lane, 0u);
      EXPECT_EQ(e.peer, 1);
    }
    if (e.kind == des::CausalKind::Recv) {
      ++recvs;
      EXPECT_EQ(e.lane, 1u);
      EXPECT_EQ(e.peer, 0);
      EXPECT_EQ(e.tag, 3);
    }
  }
  EXPECT_EQ(sends, 1);
  EXPECT_EQ(recvs, 1);
}

TEST(ThreadComm, TracingOffRecordsNothing) {
  const ThreadResult result =
      run_threaded(quick_config(2), [&](Communicator& comm) {
        if (comm.rank() == 0)
          comm.send_doubles(1, 3, std::vector<double>{1.0});
        else
          (void)comm.recv_doubles(0, 3);
      });
  EXPECT_TRUE(result.trace.causal().empty());
}

TEST(ThreadComm, AllToAllExchange) {
  constexpr int kRanks = 4;
  std::array<std::array<double, kRanks>, kRanks> got{};
  run_threaded(quick_config(kRanks), [&](Communicator& comm) {
    for (int k = 0; k < kRanks; ++k)
      if (k != comm.rank())
        comm.send_doubles(k, 1,
                          std::vector<double>{static_cast<double>(comm.rank())});
    for (int k = 0; k < kRanks; ++k) {
      if (k == comm.rank()) continue;
      got[static_cast<std::size_t>(comm.rank())][static_cast<std::size_t>(k)] =
          comm.recv_doubles(k, 1)[0];
    }
  });
  for (int r = 0; r < kRanks; ++r)
    for (int k = 0; k < kRanks; ++k)
      if (r != k) {
        EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(r)][static_cast<std::size_t>(k)],
                         static_cast<double>(k));
      }
}

TEST(ThreadComm, TagsKeepStreamsSeparate) {
  std::vector<double> got;
  run_threaded(quick_config(2), [&](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int t = 0; t < 10; ++t)
        comm.send_doubles(1, 100 + t, std::vector<double>{static_cast<double>(t)});
    } else {
      for (int t = 9; t >= 0; --t)  // receive in reverse tag order
        got.push_back(comm.recv_doubles(0, 100 + t)[0]);
    }
  });
  for (int i = 0; i < 10; ++i)
    EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(i)], 9.0 - i);
}

TEST(ThreadComm, BarrierRendezvous) {
  constexpr int kRanks = 8;
  std::atomic<int> arrived{0};
  std::atomic<bool> early_exit{false};
  run_threaded(quick_config(kRanks), [&](Communicator& comm) {
    ++arrived;
    comm.barrier();
    if (arrived.load() != kRanks) early_exit = true;
    comm.barrier();  // second barrier: generation logic must recycle
  });
  EXPECT_FALSE(early_exit.load());
}

TEST(ThreadComm, RecvAnyDrainsAllPeers) {
  constexpr int kRanks = 5;
  std::vector<int> sources;
  run_threaded(quick_config(kRanks), [&](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 1; i < kRanks; ++i)
        sources.push_back(comm.recv_any(2).src);
    } else {
      comm.send_doubles(0, 2, std::vector<double>{1.0});
    }
  });
  std::sort(sources.begin(), sources.end());
  EXPECT_EQ(sources, (std::vector<int>{1, 2, 3, 4}));
}

TEST(ThreadComm, InjectedLatencyDelaysDelivery) {
  ThreadConfig config = quick_config(2);
  config.latency_seconds = 0.05;
  double waited = 0.0;
  run_threaded(config, [&](Communicator& comm) {
    // Rank 1 reads its clock before the barrier and rank 0 sends after it,
    // so the whole injected latency falls inside the measured interval.
    // (At p = 2 the barrier is the condition-variable one: no messages, no
    // injected delay of its own.)
    double before = 0.0;
    if (comm.rank() == 1) before = comm.time_seconds();
    comm.barrier();
    if (comm.rank() == 0) {
      comm.send_doubles(1, 1, std::vector<double>{1.0});
    } else {
      (void)comm.recv(0, 1);
      waited = comm.time_seconds() - before;
    }
  });
  EXPECT_GE(waited, 0.045);
}

TEST(ThreadComm, TryRecvEventuallySeesMessage) {
  std::atomic<bool> got{false};
  run_threaded(quick_config(2), [&](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_doubles(1, 1, std::vector<double>{1.0});
    } else {
      net::Message msg;
      while (!comm.try_recv(0, 1, msg)) {
      }
      got = true;
    }
  });
  EXPECT_TRUE(got.load());
}

TEST(ThreadComm, SequenceNumbersOrderSameTagStream) {
  // Same (src, tag) messages must be received in send order even though the
  // receiver only matches on tag.
  std::vector<double> got;
  run_threaded(quick_config(2), [&](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 20; ++i)
        comm.send_doubles(1, 1, std::vector<double>{static_cast<double>(i)});
    } else {
      for (int i = 0; i < 20; ++i) got.push_back(comm.recv_doubles(0, 1)[0]);
    }
  });
  for (int i = 0; i < 20; ++i)
    EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(i)], static_cast<double>(i));
}

TEST(ThreadComm, ManyRanksStress) {
  constexpr int kRanks = 12;
  std::atomic<long> total{0};
  run_threaded(quick_config(kRanks), [&](Communicator& comm) {
    for (int iter = 0; iter < 10; ++iter) {
      for (int k = 0; k < kRanks; ++k)
        if (k != comm.rank())
          comm.send_doubles(k, 10 + iter, std::vector<double>{1.0});
      for (int k = 0; k < kRanks; ++k)
        if (k != comm.rank())
          total += static_cast<long>(comm.recv_doubles(k, 10 + iter)[0]);
      comm.barrier();
    }
  });
  EXPECT_EQ(total.load(), kRanks * (kRanks - 1) * 10);
}

}  // namespace
}  // namespace specomp::runtime
