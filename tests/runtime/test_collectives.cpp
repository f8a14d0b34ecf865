#include "runtime/collectives.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "runtime/sim_comm.hpp"
#include "runtime/thread_comm.hpp"

namespace specomp::runtime {
namespace {

SimConfig sim_config(std::size_t p) {
  SimConfig config;
  config.cluster = Cluster::linear(p, 1e6, 2.0);
  config.send_sw_time = des::SimTime::micros(10);
  return config;
}

TEST(Collectives, GatherCollectsAllBlocksAtRoot) {
  std::vector<std::vector<double>> at_root;
  run_simulated(sim_config(5), [&](Communicator& comm) {
    const std::vector<double> mine{static_cast<double>(comm.rank()),
                                   static_cast<double>(comm.rank()) * 10};
    auto blocks = gather(comm, /*root=*/2, mine, 50);
    if (comm.rank() == 2) at_root = std::move(blocks);
    else EXPECT_TRUE(blocks.empty());
  });
  ASSERT_EQ(at_root.size(), 5u);
  for (int r = 0; r < 5; ++r) {
    ASSERT_EQ(at_root[static_cast<std::size_t>(r)].size(), 2u);
    EXPECT_DOUBLE_EQ(at_root[static_cast<std::size_t>(r)][0], r);
    EXPECT_DOUBLE_EQ(at_root[static_cast<std::size_t>(r)][1], r * 10.0);
  }
}

TEST(Collectives, BroadcastReachesEveryRank) {
  std::vector<std::vector<double>> received(4);
  run_simulated(sim_config(4), [&](Communicator& comm) {
    std::vector<double> data;
    if (comm.rank() == 0) data = {3.0, 1.0, 4.0};
    broadcast(comm, 0, data, 60);
    received[static_cast<std::size_t>(comm.rank())] = data;
  });
  for (const auto& data : received)
    EXPECT_EQ(data, (std::vector<double>{3.0, 1.0, 4.0}));
}

TEST(Collectives, AllreduceSum) {
  std::vector<double> results(6);
  run_simulated(sim_config(6), [&](Communicator& comm) {
    results[static_cast<std::size_t>(comm.rank())] =
        allreduce_sum(comm, static_cast<double>(comm.rank() + 1), 70);
  });
  for (double r : results) EXPECT_DOUBLE_EQ(r, 21.0);  // 1+2+...+6
}

TEST(Collectives, AllreduceMax) {
  std::vector<double> results(5);
  run_simulated(sim_config(5), [&](Communicator& comm) {
    const double mine = comm.rank() == 3 ? 99.5 : static_cast<double>(comm.rank());
    results[static_cast<std::size_t>(comm.rank())] = allreduce_max(comm, mine, 80);
  });
  for (double r : results) EXPECT_DOUBLE_EQ(r, 99.5);
}

TEST(Collectives, RepeatedReductionsKeepStreamsOrdered) {
  std::vector<double> sums(3, 0.0);
  run_simulated(sim_config(3), [&](Communicator& comm) {
    double acc = 0.0;
    for (int round = 0; round < 10; ++round)
      acc += allreduce_sum(comm, static_cast<double>(round), 90);
    sums[static_cast<std::size_t>(comm.rank())] = acc;
  });
  for (double s : sums) EXPECT_DOUBLE_EQ(s, 3.0 * 45.0);
}

TEST(Collectives, WorkOnThreadBackendToo) {
  ThreadConfig config;
  config.cluster = Cluster::homogeneous(4, 1e6);
  std::vector<double> results(4);
  run_threaded(config, [&](Communicator& comm) {
    results[static_cast<std::size_t>(comm.rank())] =
        allreduce_sum(comm, 2.5, 100);
  });
  for (double r : results) EXPECT_DOUBLE_EQ(r, 10.0);
}

TEST(Collectives, SingleRankDegenerates) {
  run_simulated(sim_config(1), [&](Communicator& comm) {
    EXPECT_DOUBLE_EQ(allreduce_sum(comm, 7.0, 110), 7.0);
    EXPECT_DOUBLE_EQ(allreduce_max(comm, -1.0, 112), -1.0);
    std::vector<double> data{1.0};
    broadcast(comm, 0, data, 114);
    EXPECT_EQ(data, std::vector<double>{1.0});
  });
}

// ---------------------------------------------------------------------------
// Tree algorithms (binomial gather/broadcast, recursive-doubling allreduce,
// dissemination barrier) — correctness at awkward rank counts on both
// backends, bit-identity with flat, and the message-count scaling claims.
// ---------------------------------------------------------------------------

/// Rank counts that exercise every non-power-of-two edge: below/above the
/// power of two, prime, and a pow2 multiple with remainder.
const int kAwkwardRanks[] = {3, 5, 7, 12};

class TreeCollectives : public ::testing::TestWithParam<int> {};

TEST_P(TreeCollectives, AllOpsCorrectOnSimBackend) {
  const int p = GetParam();
  SimConfig config = sim_config(static_cast<std::size_t>(p));
  config.collective = CollectiveAlgo::Tree;
  std::vector<double> sums(static_cast<std::size_t>(p));
  std::vector<double> maxes(static_cast<std::size_t>(p));
  std::vector<std::vector<std::vector<double>>> gathered(
      static_cast<std::size_t>(p));
  std::vector<std::vector<double>> at_root;
  std::vector<std::vector<double>> bcast(static_cast<std::size_t>(p));
  run_simulated(config, [&](Communicator& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    const std::vector<double> mine{static_cast<double>(comm.rank()),
                                   static_cast<double>(comm.rank()) * 10};
    // Root in the middle so the virtual-rank rotation is exercised.
    const net::Rank root = comm.size() / 2;
    auto blocks = gather(comm, root, mine, 10);
    if (comm.rank() == root) at_root = std::move(blocks);

    std::vector<double> data;
    if (comm.rank() == root) data = {2.0, 7.0, 1.0};
    broadcast(comm, root, data, 20);
    bcast[me] = data;

    gathered[me] = allgather(comm, mine, 30);
    sums[me] = allreduce_sum(comm, static_cast<double>(comm.rank() + 1), 40);
    maxes[me] = allreduce_max(comm, comm.rank() == p - 1 ? 50.5 : 0.0, 42);
    comm.barrier();  // dissemination barrier (collective = Tree)
  });
  const double expect_sum = p * (p + 1) / 2.0;
  ASSERT_EQ(at_root.size(), static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    const auto rr = static_cast<std::size_t>(r);
    EXPECT_DOUBLE_EQ(sums[rr], expect_sum);
    EXPECT_DOUBLE_EQ(maxes[rr], 50.5);
    EXPECT_EQ(bcast[rr], (std::vector<double>{2.0, 7.0, 1.0}));
    ASSERT_EQ(at_root[rr].size(), 2u);
    EXPECT_DOUBLE_EQ(at_root[rr][0], r);
    ASSERT_EQ(gathered[rr].size(), static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) {
      const auto ss = static_cast<std::size_t>(s);
      ASSERT_EQ(gathered[rr][ss].size(), 2u) << "rank " << r << " block " << s;
      EXPECT_DOUBLE_EQ(gathered[rr][ss][0], s);
      EXPECT_DOUBLE_EQ(gathered[rr][ss][1], s * 10.0);
    }
  }
}

TEST_P(TreeCollectives, AllOpsCorrectOnThreadBackend) {
  const int p = GetParam();
  ThreadConfig config;
  config.cluster = Cluster::homogeneous(static_cast<std::size_t>(p), 1e6);
  config.collective = CollectiveAlgo::Tree;
  std::vector<double> sums(static_cast<std::size_t>(p));
  std::vector<std::vector<std::vector<double>>> gathered(
      static_cast<std::size_t>(p));
  run_threaded(config, [&](Communicator& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    const std::vector<double> mine{static_cast<double>(comm.rank()) + 0.25};
    gathered[me] = allgather(comm, mine, 10);
    sums[me] = allreduce_sum(comm, static_cast<double>(comm.rank() + 1), 20);
    comm.barrier();  // dissemination barrier under genuine concurrency
  });
  const double expect_sum = p * (p + 1) / 2.0;
  for (int r = 0; r < p; ++r) {
    const auto rr = static_cast<std::size_t>(r);
    EXPECT_DOUBLE_EQ(sums[rr], expect_sum);
    ASSERT_EQ(gathered[rr].size(), static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s)
      EXPECT_DOUBLE_EQ(gathered[rr][static_cast<std::size_t>(s)][0],
                       s + 0.25);
  }
}

INSTANTIATE_TEST_SUITE_P(AwkwardRankCounts, TreeCollectives,
                         ::testing::ValuesIn(kAwkwardRanks),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string("p").append(
                               std::to_string(info.param));
                         });

TEST(TreeCollectives, ReductionsBitIdenticalToFlat) {
  // Floating-point sum is not associative, so this only holds because the
  // tree allreduce moves values (not partial sums) and folds in the same
  // ascending rank order as the flat root.  Values span 16 orders of
  // magnitude to make any grouping change visible in the low bits.
  for (int p : {3, 5, 7, 12, 16}) {
    std::vector<double> flat_result(static_cast<std::size_t>(p));
    std::vector<double> tree_result(static_cast<std::size_t>(p));
    const auto value_of = [](int rank) {
      return std::pow(10.0, rank % 2 == 0 ? rank : -rank) + 1.0 / 3.0;
    };
    run_simulated(sim_config(static_cast<std::size_t>(p)),
                  [&](Communicator& comm) {
                    flat_result[static_cast<std::size_t>(comm.rank())] =
                        allreduce_sum(comm, value_of(comm.rank()), 10,
                                      CollectiveAlgo::Flat);
                  });
    run_simulated(sim_config(static_cast<std::size_t>(p)),
                  [&](Communicator& comm) {
                    tree_result[static_cast<std::size_t>(comm.rank())] =
                        allreduce_sum(comm, value_of(comm.rank()), 10,
                                      CollectiveAlgo::Tree);
                  });
    for (int r = 0; r < p; ++r) {
      const auto rr = static_cast<std::size_t>(r);
      // Exact bit equality, not a tolerance.
      EXPECT_EQ(flat_result[rr], tree_result[rr]) << "p=" << p << " r=" << r;
      EXPECT_EQ(flat_result[0], flat_result[rr]);
    }
  }
}

TEST(TreeCollectives, MessageCountsScaleLogarithmicallyAtP64) {
  // The large-p claim in one number: the flat exchange pattern (allgather =
  // the paper's all-to-all) posts p(p-1) messages, the tree allreduce posts
  // p log2 p — at p = 64 that is 4032 vs 384.
  constexpr int kP = 64;
  SimConfig config = sim_config(kP);
  config.shared_medium = false;  // p=64 all-to-all on one ethernet is slow

  const SimResult flat = run_simulated(config, [&](Communicator& comm) {
    allgather(comm, std::vector<double>{1.0}, 10, CollectiveAlgo::Flat);
  });
  const SimResult tree = run_simulated(config, [&](Communicator& comm) {
    allreduce_sum(comm, 1.0, 10, CollectiveAlgo::Tree);
  });

  EXPECT_EQ(flat.channel_stats.messages,
            static_cast<std::uint64_t>(kP) * (kP - 1));  // O(p^2) = 4032
  EXPECT_EQ(tree.channel_stats.messages,
            static_cast<std::uint64_t>(kP) * 6);         // p log2 p = 384
  EXPECT_LT(tree.channel_stats.messages * 8, flat.channel_stats.messages);

  // Tree allgather moves the same blocks in 2(p-1) messages over
  // 2 ceil(log2 p) rounds instead of p(p-1) in one storm.
  const SimResult tree_ag = run_simulated(config, [&](Communicator& comm) {
    allgather(comm, std::vector<double>{1.0}, 10, CollectiveAlgo::Tree);
  });
  EXPECT_EQ(tree_ag.channel_stats.messages,
            static_cast<std::uint64_t>(2 * (kP - 1)));
}

TEST(TreeCollectives, DisseminationBarrierSynchronisesAndCostsMessages) {
  // Unlike the flat world-level barrier (zero messages, zero virtual time),
  // the tree barrier is made of real sends: p ceil(log2 p) messages, and no
  // rank can leave before every rank has arrived.
  constexpr int kP = 12;
  SimConfig config = sim_config(kP);
  config.collective = CollectiveAlgo::Tree;
  std::vector<double> arrive(kP), leave(kP);
  const SimResult result = run_simulated(config, [&](Communicator& comm) {
    // Heterogeneous compute: rank r works r units, so arrivals are spread.
    comm.compute(static_cast<double>(comm.rank()) * 1e5);
    arrive[static_cast<std::size_t>(comm.rank())] = comm.time_seconds();
    comm.barrier();
    leave[static_cast<std::size_t>(comm.rank())] = comm.time_seconds();
  });
  EXPECT_EQ(result.channel_stats.messages,
            static_cast<std::uint64_t>(kP) * 4);  // ceil(log2 12) = 4 rounds
  const double last_arrival = *std::max_element(arrive.begin(), arrive.end());
  for (double t : leave) EXPECT_GE(t, last_arrival);

  // Flat configuration: same program, zero channel traffic.
  SimConfig flat_config = sim_config(kP);
  flat_config.collective = CollectiveAlgo::Flat;
  const SimResult flat = run_simulated(flat_config, [&](Communicator& comm) {
    comm.compute(static_cast<double>(comm.rank()) * 1e5);
    comm.barrier();
  });
  EXPECT_EQ(flat.channel_stats.messages, 0u);
}

TEST(TreeCollectives, AutoResolvesBySizeHeuristic) {
  EXPECT_EQ(resolve_collective_algo(CollectiveAlgo::Auto, 4),
            CollectiveAlgo::Flat);
  EXPECT_EQ(resolve_collective_algo(CollectiveAlgo::Auto, 8),
            CollectiveAlgo::Flat);
  EXPECT_EQ(resolve_collective_algo(CollectiveAlgo::Auto, 9),
            CollectiveAlgo::Tree);
  EXPECT_EQ(resolve_collective_algo(CollectiveAlgo::Flat, 1024),
            CollectiveAlgo::Flat);
  EXPECT_EQ(resolve_collective_algo(CollectiveAlgo::Tree, 2),
            CollectiveAlgo::Tree);

  EXPECT_EQ(parse_collective_algo("flat"), CollectiveAlgo::Flat);
  EXPECT_EQ(parse_collective_algo("tree"), CollectiveAlgo::Tree);
  EXPECT_EQ(parse_collective_algo("auto"), CollectiveAlgo::Auto);
  EXPECT_FALSE(parse_collective_algo("binomial").has_value());
}

TEST(TreeCollectives, GatherAndAllgatherMatchFlatExactly) {
  constexpr int kP = 7;
  std::vector<std::vector<std::vector<double>>> flat_ag(kP), tree_ag(kP);
  std::vector<std::vector<double>> flat_g, tree_g;
  const auto body = [&](CollectiveAlgo algo, auto& ag_out,
                        std::vector<std::vector<double>>& g_out) {
    return [&, algo](Communicator& comm) {
      std::vector<double> mine(static_cast<std::size_t>(comm.rank()) + 1,
                               std::sqrt(2.0) * comm.rank());
      ag_out[static_cast<std::size_t>(comm.rank())] =
          allgather(comm, mine, 10, algo);
      auto blocks = gather(comm, 3, mine, 20, algo);
      if (comm.rank() == 3) g_out = std::move(blocks);
    };
  };
  run_simulated(sim_config(kP), body(CollectiveAlgo::Flat, flat_ag, flat_g));
  run_simulated(sim_config(kP), body(CollectiveAlgo::Tree, tree_ag, tree_g));
  EXPECT_EQ(flat_g, tree_g);
  for (int r = 0; r < kP; ++r)
    EXPECT_EQ(flat_ag[static_cast<std::size_t>(r)],
              tree_ag[static_cast<std::size_t>(r)]);
}

}  // namespace
}  // namespace specomp::runtime
