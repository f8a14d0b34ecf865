#include "runtime/sim_comm.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "net/serialization.hpp"

namespace specomp::runtime {
namespace {

using des::SimTime;

SimConfig two_rank_config(double bandwidth = 1e6) {
  SimConfig config;
  config.cluster = Cluster::homogeneous(2, 1e6);
  config.channel.bandwidth_bytes_per_sec = bandwidth;
  config.channel.per_message_overhead_bytes = 0;
  config.channel.propagation = SimTime::zero();
  config.channel.extra_delay = nullptr;
  config.send_sw_time = SimTime::zero();
  return config;
}

TEST(SimComm, SendRecvRoundTrip) {
  std::vector<double> received;
  run_simulated(two_rank_config(), [&](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_doubles(1, 7, std::vector<double>{1.0, 2.0, 3.0});
    } else {
      received = comm.recv_doubles(0, 7);
    }
  });
  EXPECT_EQ(received, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(SimComm, ComputeChargesHeterogeneousTime) {
  SimConfig config;
  config.cluster = Cluster({{"fast", 2e6}, {"slow", 1e6}});
  config.send_sw_time = SimTime::zero();
  std::vector<double> finish(2);
  const SimResult result = run_simulated(config, [&](Communicator& comm) {
    comm.compute(2e6);  // 1 s on fast, 2 s on slow
    finish[static_cast<std::size_t>(comm.rank())] = comm.time_seconds();
  });
  EXPECT_DOUBLE_EQ(finish[0], 1.0);
  EXPECT_DOUBLE_EQ(finish[1], 2.0);
  EXPECT_DOUBLE_EQ(result.makespan_seconds, 2.0);
}

TEST(SimComm, RecvBlocksUntilDelivery) {
  double recv_done = 0.0;
  auto config = two_rank_config(/*bandwidth=*/1000.0);  // 1 KB/s
  run_simulated(config, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      // 1000-byte payload (125 doubles) takes ~1 s of wire time + header.
      comm.send_doubles(1, 1, std::vector<double>(125, 0.0));
    } else {
      (void)comm.recv(0, 1);
      recv_done = comm.time_seconds();
    }
  });
  EXPECT_GT(recv_done, 0.9);
  EXPECT_LT(recv_done, 1.5);
}

TEST(SimComm, WaitTimeRecordedAsCommunicate) {
  auto config = two_rank_config(1000.0);
  const SimResult result = run_simulated(config, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_doubles(1, 1, std::vector<double>(125, 0.0));
    } else {
      (void)comm.recv(0, 1);
    }
  });
  EXPECT_GT(result.timers[1].get(Phase::Communicate).to_seconds(), 0.9);
  EXPECT_DOUBLE_EQ(result.timers[0].get(Phase::Communicate).to_seconds(), 0.0);
}

TEST(SimComm, TryRecvNonBlocking) {
  std::vector<int> outcomes;
  run_simulated(two_rank_config(), [&](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.compute(1e6);  // 1 s
      comm.send_doubles(1, 2, std::vector<double>{4.0});
    } else {
      net::Message msg;
      outcomes.push_back(comm.try_recv(0, 2, msg) ? 1 : 0);  // too early
      comm.compute(3e6);                                     // 3 s
      outcomes.push_back(comm.try_recv(0, 2, msg) ? 1 : 0);  // delivered
    }
  });
  EXPECT_EQ(outcomes, (std::vector<int>{0, 1}));
}

TEST(SimComm, RecvAnyTakesArrivalOrder) {
  SimConfig config;
  config.cluster = Cluster::homogeneous(3, 1e6);
  config.send_sw_time = SimTime::zero();
  config.channel.per_message_overhead_bytes = 0;
  config.channel.propagation = SimTime::zero();
  config.channel.extra_delay = nullptr;
  std::vector<int> sources;
  run_simulated(config, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      sources.push_back(comm.recv_any(9).src);
      sources.push_back(comm.recv_any(9).src);
    } else if (comm.rank() == 1) {
      comm.compute(2e6);  // sends at t=2
      comm.send_doubles(0, 9, std::vector<double>{1.0});
    } else {
      comm.compute(1e6);  // sends at t=1: arrives first
      comm.send_doubles(0, 9, std::vector<double>{2.0});
    }
  });
  EXPECT_EQ(sources, (std::vector<int>{2, 1}));
}

TEST(SimComm, MessagesMatchedByTag) {
  std::vector<double> got;
  run_simulated(two_rank_config(), [&](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_doubles(1, 5, std::vector<double>{5.0});
      comm.send_doubles(1, 4, std::vector<double>{4.0});
    } else {
      got.push_back(comm.recv_doubles(0, 4)[0]);  // out of send order
      got.push_back(comm.recv_doubles(0, 5)[0]);
    }
  });
  EXPECT_EQ(got, (std::vector<double>{4.0, 5.0}));
}

TEST(SimComm, BarrierSynchronisesRanks) {
  SimConfig config;
  config.cluster = Cluster::homogeneous(4, 1e6);
  config.send_sw_time = SimTime::zero();
  std::vector<double> after(4);
  run_simulated(config, [&](Communicator& comm) {
    comm.compute(1e6 * static_cast<double>(comm.rank() + 1));
    comm.barrier();
    after[static_cast<std::size_t>(comm.rank())] = comm.time_seconds();
  });
  for (double t : after) EXPECT_DOUBLE_EQ(t, 4.0);  // slowest rank gates all
}

TEST(SimComm, SendOverheadChargedToSender) {
  auto config = two_rank_config();
  config.send_sw_time = SimTime::millis(10);
  const SimResult result = run_simulated(config, [&](Communicator& comm) {
    if (comm.rank() == 0) comm.send_doubles(1, 1, std::vector<double>{1.0});
    else (void)comm.recv(0, 1);
  });
  EXPECT_DOUBLE_EQ(result.timers[0].get(Phase::Send).to_seconds(), 0.010);
}

TEST(SimComm, DeterministicAcrossRuns) {
  auto scenario = [] {
    SimConfig config;
    config.cluster = Cluster::linear(5, 2e6, 4.0);
    config.channel.extra_delay =
        std::make_shared<net::ExponentialJitter>(SimTime::millis(5));
    return run_simulated(config, [](Communicator& comm) {
      // Small all-to-all ping storm with compute in between.
      for (int iter = 0; iter < 5; ++iter) {
        for (int k = 0; k < comm.size(); ++k)
          if (k != comm.rank())
            comm.send_doubles(k, 100 + iter, std::vector<double>(8, 1.0));
        comm.compute(1e5);
        for (int k = 0; k < comm.size(); ++k)
          if (k != comm.rank()) (void)comm.recv(k, 100 + iter);
      }
    });
  };
  const SimResult a = scenario();
  const SimResult b = scenario();
  EXPECT_DOUBLE_EQ(a.makespan_seconds, b.makespan_seconds);
  EXPECT_EQ(a.kernel_stats.events_executed, b.kernel_stats.events_executed);
  for (std::size_t r = 0; r < a.timers.size(); ++r)
    EXPECT_DOUBLE_EQ(a.timers[r].total().to_seconds(),
                     b.timers[r].total().to_seconds());
}

TEST(SimComm, TraceRecordsWhenEnabled) {
  auto config = two_rank_config();
  config.record_trace = true;
  const SimResult result = run_simulated(config, [](Communicator& comm) {
    comm.compute(1e6);
    if (comm.rank() == 0) comm.send_doubles(1, 1, std::vector<double>{1.0});
    else (void)comm.recv(0, 1);
  });
  EXPECT_FALSE(result.trace.spans().empty());
}

TEST(SimComm, SingleRankWorks) {
  SimConfig config;
  config.cluster = Cluster::homogeneous(1, 1e6);
  const SimResult result = run_simulated(config, [](Communicator& comm) {
    EXPECT_EQ(comm.size(), 1);
    comm.compute(5e6);
  });
  EXPECT_DOUBLE_EQ(result.makespan_seconds, 5.0);
}

TEST(SimComm, ThrowingRankBodyFailsTheRun) {
  // Rank 1 throws; rank 0 is left blocked in a receive that never arrives.
  // The run must surface rank 1's exception, not return a zeroed result.
  try {
    run_simulated(two_rank_config(), [](Communicator& comm) {
      if (comm.rank() == 1) throw std::runtime_error("rank 1 gave up");
      (void)comm.recv_doubles(1, 7);
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 1 gave up");
  }
}

}  // namespace
}  // namespace specomp::runtime
