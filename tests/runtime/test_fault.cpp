// Fault-injection layer: plan grammar, hash determinism, per-class fault
// behaviour on both backends, recovery machinery, and the engine's graceful
// degradation (DESIGN.md §9).
#include "runtime/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "apps/heat.hpp"
#include "net/buffer_pool.hpp"
#include "runtime/hb_check.hpp"
#include "runtime/sim_comm.hpp"
#include "runtime/thread_comm.hpp"

namespace specomp::runtime {
namespace {

using des::SimTime;

FaultPlanPtr make_plan(const std::string& spec, std::uint64_t seed = 0xfa017) {
  FaultPlanConfig config;
  config.seed = seed;
  std::string error;
  EXPECT_TRUE(parse_fault_plan(spec, config, error)) << error;
  return std::make_shared<const FaultPlan>(std::move(config));
}

SimConfig two_rank_config() {
  SimConfig config;
  config.cluster = Cluster::homogeneous(2, 1e6);
  config.channel.bandwidth_bytes_per_sec = 1e6;
  config.channel.per_message_overhead_bytes = 0;
  config.channel.propagation = SimTime::zero();
  config.channel.extra_delay = nullptr;
  config.send_sw_time = SimTime::zero();
  return config;
}

// ---------------------------------------------------------------- grammar

TEST(FaultPlanParse, FullGrammar) {
  FaultPlanConfig config;
  std::string error;
  ASSERT_TRUE(parse_fault_plan(
      "drop:0.05,dup:0.01@0->1,reorder:0.2@2->*,slow:1x3@10..20~0.5,"
      "stall:0@5+2.5,crash:3@55,rto:2,retries:6,reorder-hold:0.25,"
      "dup-offset:0.1,norecovery",
      config, error))
      << error;
  ASSERT_EQ(config.links.size(), 3u);
  EXPECT_DOUBLE_EQ(config.links[0].drop, 0.05);
  EXPECT_EQ(config.links[0].src, -1);
  EXPECT_EQ(config.links[0].dst, -1);
  EXPECT_DOUBLE_EQ(config.links[1].duplicate, 0.01);
  EXPECT_EQ(config.links[1].src, 0);
  EXPECT_EQ(config.links[1].dst, 1);
  EXPECT_DOUBLE_EQ(config.links[2].reorder, 0.2);
  EXPECT_EQ(config.links[2].src, 2);
  EXPECT_EQ(config.links[2].dst, -1);
  ASSERT_EQ(config.slowdowns.size(), 1u);
  EXPECT_EQ(config.slowdowns[0].rank, 1);
  EXPECT_DOUBLE_EQ(config.slowdowns[0].factor, 3.0);
  EXPECT_DOUBLE_EQ(config.slowdowns[0].begin_seconds, 10.0);
  EXPECT_DOUBLE_EQ(config.slowdowns[0].end_seconds, 20.0);
  EXPECT_DOUBLE_EQ(config.slowdowns[0].probability, 0.5);
  ASSERT_EQ(config.stalls.size(), 1u);
  EXPECT_EQ(config.stalls[0].rank, 0);
  EXPECT_DOUBLE_EQ(config.stalls[0].at_seconds, 5.0);
  EXPECT_DOUBLE_EQ(config.stalls[0].duration_seconds, 2.5);
  ASSERT_EQ(config.crashes.size(), 1u);
  EXPECT_EQ(config.crashes[0].rank, 3);
  EXPECT_DOUBLE_EQ(config.crashes[0].at_seconds, 55.0);
  EXPECT_DOUBLE_EQ(config.retransmit_timeout_seconds, 2.0);
  EXPECT_EQ(config.max_retransmits, 6);
  EXPECT_DOUBLE_EQ(config.reorder_hold_seconds, 0.25);
  EXPECT_DOUBLE_EQ(config.duplicate_offset_seconds, 0.1);
  EXPECT_FALSE(config.recovery);
}

TEST(FaultPlanParse, RejectsMalformedSpecs) {
  for (const char* bad :
       {"drop", "drop:", "drop:2.0", "drop:-0.1", "drop:abc", "nope:1",
        "slow:1", "slow:x3", "stall:0@5", "crash:0", "rto:-1", "retries:0",
        "drop:0.1@x->1", ",", "drop:0.1,,dup:0.1"}) {
    FaultPlanConfig config;
    std::string error;
    EXPECT_FALSE(parse_fault_plan(bad, config, error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(FaultPlanParse, ParsesOntoPreSeededDefaults) {
  FaultPlanConfig config;
  config.retransmit_timeout_seconds = 4.0;
  config.seed = 99;
  std::string error;
  ASSERT_TRUE(parse_fault_plan("drop:0.1", config, error)) << error;
  EXPECT_DOUBLE_EQ(config.retransmit_timeout_seconds, 4.0);
  EXPECT_EQ(config.seed, 99u);
}

// ------------------------------------------------------------ determinism

TEST(FaultPlan, DecisionsAreDeterministicAndSeedSensitive) {
  const FaultPlanPtr a = make_plan("drop:0.3,dup:0.2,reorder:0.1", 1);
  const FaultPlanPtr b = make_plan("drop:0.3,dup:0.2,reorder:0.1", 1);
  const FaultPlanPtr c = make_plan("drop:0.3,dup:0.2,reorder:0.1", 2);
  bool seed_changed_something = false;
  for (std::uint64_t seq = 0; seq < 500; ++seq) {
    const auto oa = a->on_send(0, 1, 7, seq);
    const auto ob = b->on_send(0, 1, 7, seq);
    EXPECT_EQ(oa.drops, ob.drops);
    EXPECT_EQ(oa.duplicated, ob.duplicated);
    EXPECT_EQ(oa.reordered, ob.reordered);
    EXPECT_DOUBLE_EQ(oa.extra_delay_seconds, ob.extra_delay_seconds);
    const auto oc = c->on_send(0, 1, 7, seq);
    seed_changed_something |= oa.drops != oc.drops ||
                              oa.duplicated != oc.duplicated ||
                              oa.reordered != oc.reordered;
  }
  EXPECT_TRUE(seed_changed_something);
}

TEST(FaultPlan, LinkRulesMatchOnlyTheirLink) {
  const FaultPlanPtr plan = make_plan("drop:1.0@0->1,rto:0.5");
  EXPECT_GT(plan->on_send(0, 1, 7, 0).drops, 0u);
  EXPECT_EQ(plan->on_send(1, 0, 7, 0).drops, 0u);
  EXPECT_EQ(plan->on_send(0, 2, 7, 0).drops, 0u);
}

TEST(FaultPlan, DropRecoveryHasBoundedExponentialBackoff) {
  // drop:1.0 makes every transmission drop; recovery delivers anyway after
  // max_retransmits backoffs: rto * (2^retries - 1) extra seconds.
  const FaultPlanPtr plan = make_plan("drop:1.0,rto:0.5,retries:3");
  const auto out = plan->on_send(0, 1, 7, 0);
  EXPECT_FALSE(out.lost);
  EXPECT_EQ(out.drops, 3u);
  EXPECT_EQ(out.retransmits, 3u);
  EXPECT_DOUBLE_EQ(out.extra_delay_seconds, 0.5 * 7.0);
}

TEST(FaultPlan, DropWithoutRecoveryLosesTheMessage) {
  const FaultPlanPtr plan = make_plan("drop:1.0,norecovery");
  const auto out = plan->on_send(0, 1, 7, 0);
  EXPECT_TRUE(out.lost);
  EXPECT_EQ(out.retransmits, 0u);
  EXPECT_DOUBLE_EQ(out.extra_delay_seconds, 0.0);
}

// --------------------------------------------------- simulated backend

TEST(SimFault, ZeroProbabilityPlanMatchesFaultFreeRun) {
  // Arming a plan whose rules can never fire must not perturb the
  // simulation: the byte-identity contract of DESIGN.md §9.
  const RankBody body = [](Communicator& comm) {
    for (int i = 0; i < 5; ++i) {
      if (comm.rank() == 0) {
        comm.compute(2e5);
        comm.send_doubles(1, 7, std::vector<double>{1.0 * i});
      } else {
        (void)comm.recv_doubles(0, 7);
        comm.compute(1e5);
      }
    }
  };
  const SimResult plain = run_simulated(two_rank_config(), body);
  SimConfig faulted = two_rank_config();
  faulted.fault = make_plan("drop:0.0,dup:0.0,reorder:0.0");
  const SimResult with_plan = run_simulated(faulted, body);
  EXPECT_EQ(plain.makespan_seconds, with_plan.makespan_seconds);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(plain.timers[r].get(Phase::Compute),
              with_plan.timers[r].get(Phase::Compute));
    EXPECT_EQ(plain.timers[r].get(Phase::Communicate),
              with_plan.timers[r].get(Phase::Communicate));
  }
  EXPECT_FALSE(with_plan.fault_stats.any());
}

TEST(SimFault, DropIsRetransmittedWithBackoffDelay) {
  SimConfig config = two_rank_config();
  config.fault = make_plan("drop:1.0,rto:0.5,retries:2");
  double recv_done = -1.0;
  const SimResult result = run_simulated(config, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_doubles(1, 7, std::vector<double>{42.0});
    } else {
      EXPECT_EQ(comm.recv_doubles(0, 7), std::vector<double>{42.0});
      recv_done = comm.time_seconds();
    }
  });
  // Wire time is ~16 us; the observable delay is the 0.5 * (2^2 - 1) = 1.5 s
  // of retransmit backoff.
  EXPECT_GT(recv_done, 1.5);
  EXPECT_LT(recv_done, 1.6);
  EXPECT_EQ(result.fault_stats.injected_drops, 2u);
  EXPECT_EQ(result.fault_stats.retransmits, 2u);
  EXPECT_EQ(result.fault_stats.messages_lost, 0u);
}

TEST(SimFault, DropWithoutRecoveryNeverArrives) {
  SimConfig config = two_rank_config();
  config.fault = make_plan("drop:1.0,norecovery");
  bool got = true;
  const SimResult result = run_simulated(config, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_doubles(1, 7, std::vector<double>{42.0});
    } else {
      comm.compute(5e6);  // 5 s: far past any delivery time
      net::Message msg;
      got = comm.try_recv(0, 7, msg);
    }
  });
  EXPECT_FALSE(got);
  EXPECT_EQ(result.fault_stats.messages_lost, 1u);
}

TEST(SimFault, DuplicatesAreSuppressedUnderRecovery) {
  SimConfig config = two_rank_config();
  config.fault = make_plan("dup:1.0");
  std::vector<double> got;
  bool extra = true;
  const SimResult result = run_simulated(config, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 3; ++i)
        comm.send_doubles(1, 7, std::vector<double>{1.0 * i});
    } else {
      for (int i = 0; i < 3; ++i) got.push_back(comm.recv_doubles(0, 7)[0]);
      comm.compute(5e6);  // let every duplicate's delivery time pass
      net::Message msg;
      extra = comm.try_recv(0, 7, msg);
    }
  });
  EXPECT_EQ(got, (std::vector<double>{0.0, 1.0, 2.0}));
  EXPECT_FALSE(extra);  // at-most-once delivery restored
  EXPECT_EQ(result.fault_stats.injected_duplicates, 3u);
  EXPECT_EQ(result.fault_stats.duplicates_suppressed, 3u);
}

TEST(SimFault, DuplicatesReachTheApplicationWithoutRecovery) {
  SimConfig config = two_rank_config();
  config.fault = make_plan("dup:1.0,norecovery");
  std::vector<double> got;
  run_simulated(config, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_doubles(1, 7, std::vector<double>{42.0});
    } else {
      got.push_back(comm.recv_doubles(0, 7)[0]);
      got.push_back(comm.recv_doubles(0, 7)[0]);
    }
  });
  EXPECT_EQ(got, (std::vector<double>{42.0, 42.0}));
}

TEST(SimFault, ReorderWithRecoveryPreservesSendOrder) {
  SimConfig config = two_rank_config();
  config.fault = make_plan("reorder:0.5,reorder-hold:2.0");
  std::vector<double> got;
  const SimResult result = run_simulated(config, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 20; ++i)
        comm.send_doubles(1, 7, std::vector<double>{1.0 * i});
    } else {
      for (int i = 0; i < 20; ++i) got.push_back(comm.recv_doubles(0, 7)[0]);
    }
  });
  std::vector<double> expected(20);
  std::iota(expected.begin(), expected.end(), 0.0);
  EXPECT_EQ(got, expected);  // seq-ordered mailboxes reassemble send order
  EXPECT_GT(result.fault_stats.injected_reorders, 0u);
}

TEST(SimFault, ReorderWithoutRecoveryDeliversArrivalOrder) {
  SimConfig config = two_rank_config();
  config.fault = make_plan("reorder:0.5,reorder-hold:2.0,norecovery");
  // The plan must hold back a proper subset so an inversion exists.
  std::size_t held = 0;
  for (std::uint64_t seq = 0; seq < 20; ++seq)
    held += config.fault->on_send(0, 1, 7, seq).reordered ? 1u : 0u;
  ASSERT_GT(held, 0u);
  ASSERT_LT(held, 20u);
  std::vector<double> got;
  run_simulated(config, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 20; ++i)
        comm.send_doubles(1, 7, std::vector<double>{1.0 * i});
    } else {
      for (int i = 0; i < 20; ++i) got.push_back(comm.recv_doubles(0, 7)[0]);
    }
  });
  std::vector<double> expected(20);
  std::iota(expected.begin(), expected.end(), 0.0);
  EXPECT_NE(got, expected);  // the inversion is observable...
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);  // ...but nothing is lost or duplicated
}

TEST(SimFault, SlowdownStretchesComputeCharges) {
  SimConfig config = two_rank_config();
  config.fault = make_plan("slow:0x3@0..100");
  std::vector<double> finish(2);
  run_simulated(config, [&](Communicator& comm) {
    comm.compute(1e6);  // 1 s nominal on both machines
    finish[static_cast<std::size_t>(comm.rank())] = comm.time_seconds();
  });
  EXPECT_DOUBLE_EQ(finish[0], 3.0);  // stretched by the factor
  EXPECT_DOUBLE_EQ(finish[1], 1.0);  // rule targets rank 0 only
}

TEST(SimFault, StallFreezesTheRankOnce) {
  SimConfig config = two_rank_config();
  config.fault = make_plan("stall:0@0.5+2");
  std::vector<double> finish(2);
  run_simulated(config, [&](Communicator& comm) {
    comm.compute(1e6);  // ends at 1.0; the stall is not yet due at t = 0
    comm.compute(1e6);  // due stall (0.5 <= 1.0) charges 2 s extra
    finish[static_cast<std::size_t>(comm.rank())] = comm.time_seconds();
  });
  EXPECT_DOUBLE_EQ(finish[0], 4.0);
  EXPECT_DOUBLE_EQ(finish[1], 2.0);
}

TEST(SimFault, CrashStopsTheRankAndTheRunContinues) {
  SimConfig config = two_rank_config();
  config.fault = make_plan("crash:0@1.5");
  std::vector<double> finish(2, -1.0);
  const SimResult result = run_simulated(config, [&](Communicator& comm) {
    for (int i = 0; i < 3; ++i) comm.compute(1e6);
    finish[static_cast<std::size_t>(comm.rank())] = comm.time_seconds();
  });
  EXPECT_DOUBLE_EQ(finish[0], -1.0);  // never reached: crashed mid-loop
  EXPECT_DOUBLE_EQ(finish[1], 3.0);   // unaffected survivor
  EXPECT_EQ(result.fault_stats.crashed_ranks, 1u);
  EXPECT_DOUBLE_EQ(result.makespan_seconds, 3.0);
}

TEST(SimFault, SameSeedReproducesTheRunExactly) {
  const RankBody body = [](Communicator& comm) {
    for (int i = 0; i < 10; ++i) {
      if (comm.rank() == 0) {
        comm.send_doubles(1, 7, std::vector<double>{1.0 * i});
        comm.compute(1e5);
      } else {
        (void)comm.recv_doubles(0, 7);
      }
    }
  };
  SimConfig config = two_rank_config();
  config.fault = make_plan("drop:0.3,dup:0.2,rto:0.25", 7);
  const SimResult first = run_simulated(config, body);
  const SimResult second = run_simulated(config, body);
  EXPECT_EQ(first.makespan_seconds, second.makespan_seconds);
  EXPECT_EQ(first.fault_stats.injected_drops,
            second.fault_stats.injected_drops);
  EXPECT_EQ(first.fault_stats.injected_duplicates,
            second.fault_stats.injected_duplicates);
  EXPECT_GT(first.fault_stats.injected_drops +
                first.fault_stats.injected_duplicates,
            0u);
}

TEST(SimFault, RecvTimeoutExpiresWhenNothingArrives) {
  SimConfig config = two_rank_config();
  bool got = true;
  double gave_up_at = -1.0;
  run_simulated(config, [&](Communicator& comm) {
    if (comm.rank() == 1) {
      net::Message msg;
      got = comm.recv_timeout(0, 7, 2.0, msg);
      gave_up_at = comm.time_seconds();
    }
  });
  EXPECT_FALSE(got);
  EXPECT_DOUBLE_EQ(gave_up_at, 2.0);
}

TEST(SimFault, RecvTimeoutReturnsEarlyDelivery) {
  SimConfig config = two_rank_config();
  bool got = false;
  double done_at = -1.0;
  run_simulated(config, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.compute(1e6);  // send at t = 1
      comm.send_doubles(1, 7, std::vector<double>{42.0});
    } else {
      net::Message msg;
      got = comm.recv_timeout(0, 7, 5.0, msg);
      done_at = comm.time_seconds();
      if (got) net::BufferPool::local().release(std::move(msg.payload));
    }
  });
  EXPECT_TRUE(got);
  EXPECT_GT(done_at, 0.99);
  EXPECT_LT(done_at, 1.1);
}

// ------------------------------------------------------ thread backend

TEST(ThreadFault, DropsAreRecoveredAcrossRealThreads) {
  ThreadConfig config;
  config.cluster = Cluster::homogeneous(2, 1e6);
  config.fault = make_plan("drop:1.0,rto:0.01,retries:2");
  std::vector<double> got;
  const ThreadResult result = run_threaded(config, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_doubles(1, 7, std::vector<double>{42.0});
    } else {
      got = comm.recv_doubles(0, 7);
    }
  });
  EXPECT_EQ(got, std::vector<double>{42.0});
  EXPECT_EQ(result.fault_stats.injected_drops, 2u);
  EXPECT_EQ(result.fault_stats.messages_lost, 0u);
}

TEST(ThreadFault, RecvTimeoutExpiresWhenNothingArrives) {
  ThreadConfig config;
  config.cluster = Cluster::homogeneous(2, 1e6);
  bool got = true;
  run_threaded(config, [&](Communicator& comm) {
    if (comm.rank() == 1) {
      net::Message msg;
      got = comm.recv_timeout(0, 7, 0.05, msg);
    }
  });
  EXPECT_FALSE(got);
}

TEST(ThreadFault, CrashUnblocksAPendingReceive) {
  ThreadConfig config;
  config.cluster = Cluster::homogeneous(2, 1e6);
  config.fault = make_plan("crash:0@0.05");
  const ThreadResult result = run_threaded(config, [&](Communicator& comm) {
    if (comm.rank() == 0) (void)comm.recv(1, 7);  // nothing ever arrives
  });
  EXPECT_EQ(result.fault_stats.crashed_ranks, 1u);
}

// --------------------------------------------- happens-before interplay

TEST(HbFault, RecoveryKeepsInjectedDupAndReorderHbClean) {
  SimConfig config = two_rank_config();
  config.hb_check = true;
  config.fault = make_plan("dup:0.5,reorder:0.5,reorder-hold:2.0");
  EXPECT_NO_THROW(run_simulated(config, [](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 20; ++i)
        comm.send_doubles(1, 7, std::vector<double>{1.0 * i});
    } else {
      for (int i = 0; i < 20; ++i) (void)comm.recv_doubles(0, 7);
    }
  }));
}

TEST(HbFault, DuplicateWithoutRecoveryTripsTheDetector) {
  SimConfig config = two_rank_config();
  config.hb_check = true;
  config.fault = make_plan("dup:1.0,norecovery");
  EXPECT_THROW(run_simulated(config,
                             [](Communicator& comm) {
                               if (comm.rank() == 0) {
                                 comm.send_doubles(1, 7,
                                                   std::vector<double>{1.0});
                               } else {
                                 (void)comm.recv_doubles(0, 7);
                                 (void)comm.recv_doubles(0, 7);
                               }
                             }),
               HbViolation);
}

TEST(HbFault, ReorderWithoutRecoveryTripsTheDetector) {
  SimConfig config = two_rank_config();
  config.hb_check = true;
  config.fault = make_plan("reorder:0.5,reorder-hold:2.0,norecovery");
  std::size_t held = 0;
  for (std::uint64_t seq = 0; seq < 20; ++seq)
    held += config.fault->on_send(0, 1, 7, seq).reordered ? 1u : 0u;
  ASSERT_GT(held, 0u);
  ASSERT_LT(held, 20u);
  EXPECT_THROW(run_simulated(config,
                             [](Communicator& comm) {
                               if (comm.rank() == 0) {
                                 for (int i = 0; i < 20; ++i)
                                   comm.send_doubles(
                                       1, 7, std::vector<double>{1.0 * i});
                               } else {
                                 for (int i = 0; i < 20; ++i)
                                   (void)comm.recv_doubles(0, 7);
                               }
                             }),
               HbViolation);
}

// -------------------------------------------------- graceful degradation

TEST(DegradedMode, HeatUnderDropsCompletesWithBoundedError) {
  // 5% drops with a 1 s ARQ timeout on an ~80 ms network: retransmitted
  // halos are an order of magnitude late, so the engine must degrade (the
  // overdue grace is 0.2 s) to keep the pipeline moving.
  apps::HeatScenario scenario;
  scenario.problem.n = 256;
  scenario.iterations = 30;
  scenario.forward_window = 1;
  scenario.theta = 1e-4;
  scenario.sim.cluster = Cluster::linear(4, 1e6, 4.0);
  scenario.sim.channel.propagation = SimTime::millis(80);
  scenario.sim.send_sw_time = SimTime::millis(1);
  scenario.sim.fault = make_plan("drop:0.05,rto:1.0");
  scenario.graceful_degradation = true;
  scenario.overdue_after_seconds = 0.2;
  scenario.max_degraded_window = 8;

  const apps::HeatRunResult run = apps::run_heat_scenario(scenario);
  EXPECT_GT(run.sim.fault_stats.injected_drops, 0u);
  EXPECT_GT(run.spec.degraded_entries, 0u);
  EXPECT_GT(run.spec.degraded_iterations, 0u);

  // Final-answer bound (documented in DESIGN.md §9): every accepted
  // speculation obeys the per-check threshold θ, and a degraded run accepts
  // at most iterations · (p − 1) of them per rank, so the terminal deviation
  // from the serial sweep stays below iterations · p · θ — loose by design;
  // the observed deviation is typically two orders of magnitude smaller.
  const std::vector<double> serial =
      apps::serial_heat(scenario.problem, scenario.iterations);
  double deviation = 0.0;
  for (std::size_t i = 0; i < serial.size(); ++i)
    deviation = std::max(deviation, std::fabs(run.field[i] - serial[i]));
  EXPECT_LT(deviation, 30.0 * 4.0 * scenario.theta);
}

TEST(DegradedMode, FaultFreeRunNeverDegrades) {
  apps::HeatScenario scenario;
  scenario.problem.n = 256;
  scenario.iterations = 10;
  scenario.forward_window = 1;
  scenario.sim.cluster = Cluster::linear(4, 1e6, 4.0);
  scenario.sim.channel.propagation = SimTime::millis(80);
  scenario.graceful_degradation = true;
  scenario.overdue_after_seconds = 5.0;  // far above the healthy round trip

  const apps::HeatRunResult run = apps::run_heat_scenario(scenario);
  EXPECT_EQ(run.spec.degraded_entries, 0u);
  EXPECT_EQ(run.spec.degraded_iterations, 0u);
}

}  // namespace
}  // namespace specomp::runtime
