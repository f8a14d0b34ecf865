#include "des/process.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "des/kernel.hpp"

namespace specomp::des {
namespace {

TEST(Process, AdvanceMovesLocalTime) {
  Kernel kernel;
  double finish = -1.0;
  kernel.spawn("p", [&](Process& proc) {
    proc.advance(SimTime::seconds(2));
    proc.advance(SimTime::seconds(3));
    finish = proc.now().to_seconds();
  });
  kernel.run();
  EXPECT_DOUBLE_EQ(finish, 5.0);
}

TEST(Process, StartTimeRespected) {
  Kernel kernel;
  double started = -1.0;
  kernel.spawn(
      "late", [&](Process& proc) { started = proc.now().to_seconds(); },
      SimTime::seconds(7));
  kernel.run();
  EXPECT_DOUBLE_EQ(started, 7.0);
}

TEST(Process, TwoProcessesInterleaveByTime) {
  Kernel kernel;
  std::vector<std::string> order;
  kernel.spawn("a", [&](Process& proc) {
    order.push_back("a0");
    proc.advance(SimTime::seconds(2));
    order.push_back("a2");
  });
  kernel.spawn("b", [&](Process& proc) {
    order.push_back("b0");
    proc.advance(SimTime::seconds(1));
    order.push_back("b1");
    proc.advance(SimTime::seconds(2));
    order.push_back("b3");
  });
  kernel.run();
  EXPECT_EQ(order, (std::vector<std::string>{"a0", "b0", "b1", "a2", "b3"}));
}

TEST(Process, WakeResumesSuspended) {
  Kernel kernel;
  double woken_at = -1.0;
  Process* sleeper = kernel.spawn("sleeper", [&](Process& proc) {
    proc.suspend();
    woken_at = proc.now().to_seconds();
  });
  kernel.spawn("waker", [&](Process& proc) {
    proc.advance(SimTime::seconds(4));
    sleeper->wake();
  });
  kernel.run();
  EXPECT_DOUBLE_EQ(woken_at, 4.0);
}

TEST(Process, WakePendingConsumedBySuspend) {
  Kernel kernel;
  double resumed_at = -1.0;
  Process* worker = kernel.spawn("worker", [&](Process& proc) {
    proc.advance(SimTime::seconds(5));  // wake arrives while computing
    proc.suspend();                     // must return immediately
    resumed_at = proc.now().to_seconds();
  });
  kernel.spawn("waker", [&](Process& proc) {
    proc.advance(SimTime::seconds(1));
    worker->wake();
  });
  kernel.run();
  EXPECT_DOUBLE_EQ(resumed_at, 5.0);
}

TEST(Process, YieldNowLetsQueuedEventsRun) {
  Kernel kernel;
  std::vector<int> order;
  kernel.spawn("a", [&](Process& proc) {
    order.push_back(1);
    proc.yield_now();
    order.push_back(3);
  });
  kernel.spawn("b", [&](Process&) { order.push_back(2); });
  kernel.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Process, DeadlockDetected) {
  Kernel kernel;
  kernel.spawn("stuck", [](Process& proc) { proc.suspend(); });
  EXPECT_THROW(kernel.run(), std::runtime_error);
}

TEST(Process, SuspendedProcessTornDownCleanly) {
  // A kernel destroyed while a process is suspended must unwind the body
  // (running destructors) without hanging.
  bool destroyed = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  {
    Kernel kernel;
    kernel.spawn("stuck", [&](Process& proc) {
      const Sentinel sentinel{&destroyed};
      proc.suspend();
    });
    EXPECT_THROW(kernel.run(), std::runtime_error);
  }
  EXPECT_TRUE(destroyed);
}

TEST(Process, ManyProcessesDeterministicCompletion) {
  Kernel kernel;
  std::vector<int> finish_order;
  for (int i = 0; i < 20; ++i) {
    const std::string name = std::string("p").append(std::to_string(i));
    kernel.spawn(name, [&finish_order, i](Process& proc) {
      proc.advance(SimTime::seconds((i * 7) % 5 + 1));
      finish_order.push_back(i);
    });
  }
  kernel.run();
  ASSERT_EQ(finish_order.size(), 20u);
  // Re-running an identical setup yields the identical order.
  Kernel kernel2;
  std::vector<int> finish_order2;
  for (int i = 0; i < 20; ++i) {
    const std::string name = std::string("p").append(std::to_string(i));
    kernel2.spawn(name, [&finish_order2, i](Process& proc) {
      proc.advance(SimTime::seconds((i * 7) % 5 + 1));
      finish_order2.push_back(i);
    });
  }
  kernel2.run();
  EXPECT_EQ(finish_order, finish_order2);
}

TEST(Process, ZeroAdvanceKeepsTime) {
  Kernel kernel;
  double t = -1.0;
  kernel.spawn("p", [&](Process& proc) {
    proc.advance(SimTime::zero());
    t = proc.now().to_seconds();
  });
  kernel.run();
  EXPECT_DOUBLE_EQ(t, 0.0);
}

TEST(Process, StatesVisibleFromOutside) {
  Kernel kernel;
  Process* proc = kernel.spawn("p", [](Process& self) {
    self.advance(SimTime::seconds(1));
  });
  EXPECT_EQ(proc->state(), Process::State::NotStarted);
  kernel.run();
  EXPECT_EQ(proc->state(), Process::State::Finished);
}

}  // namespace
}  // namespace specomp::des
