// Tests for the deterministic cooperative executor: virtual-time accounting,
// multi-CPU contention, events, preemption hooks, suspension and kill, and
// the fiber substrate underneath (one OS thread, 8 MB stacks).
#include "sim/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace mig::sim {
namespace {

TEST(Executor, SingleThreadAccumulatesVirtualTime) {
  Executor exec(1);
  uint64_t end_time = 0;
  exec.spawn("t", [&](ThreadCtx& ctx) {
    ctx.work(1'000);
    ctx.work(2'000);
    end_time = ctx.now();
  });
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(end_time, 3'000u);
}

TEST(Executor, TwoThreadsOnOneCpuSerialize) {
  Executor exec(1);
  uint64_t end_a = 0, end_b = 0;
  exec.spawn("a", [&](ThreadCtx& ctx) { ctx.work(10'000); end_a = ctx.now(); });
  exec.spawn("b", [&](ThreadCtx& ctx) { ctx.work(10'000); end_b = ctx.now(); });
  ASSERT_TRUE(exec.run());
  // Total CPU demand is 20 us on one CPU: the later finisher ends at 20 us.
  EXPECT_EQ(std::max(end_a, end_b), 20'000u);
}

TEST(Executor, TwoThreadsOnTwoCpusRunInParallel) {
  Executor exec(2);
  uint64_t end_a = 0, end_b = 0;
  exec.spawn("a", [&](ThreadCtx& ctx) { ctx.work(10'000); end_a = ctx.now(); });
  exec.spawn("b", [&](ThreadCtx& ctx) { ctx.work(10'000); end_b = ctx.now(); });
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(end_a, 10'000u);
  EXPECT_EQ(end_b, 10'000u);
}

TEST(Executor, ContentionEmergesWithMoreThreadsThanCpus) {
  // 8 threads x 100 us on 4 CPUs => makespan 200 us.
  Executor exec(4);
  uint64_t max_end = 0;
  for (int i = 0; i < 8; ++i) {
    exec.spawn("w", [&](ThreadCtx& ctx) {
      ctx.work(100'000);
      max_end = std::max(max_end, ctx.now());
    });
  }
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(max_end, 200'000u);
}

TEST(Executor, SleepDoesNotOccupyCpu) {
  Executor exec(1);
  uint64_t end_sleeper = 0, end_worker = 0;
  exec.spawn("sleeper", [&](ThreadCtx& ctx) {
    ctx.sleep(50'000);
    end_sleeper = ctx.now();
  });
  exec.spawn("worker", [&](ThreadCtx& ctx) {
    ctx.work(10'000);
    end_worker = ctx.now();
  });
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(end_sleeper, 50'000u);
  EXPECT_EQ(end_worker, 10'000u);  // ran during the sleep
}

TEST(Executor, EventJoinsClocks) {
  Executor exec(2);
  Event ev(exec);
  uint64_t waiter_time = 0;
  exec.spawn("waiter", [&](ThreadCtx& ctx) {
    ev.wait(ctx);
    waiter_time = ctx.now();
  });
  exec.spawn("setter", [&](ThreadCtx& ctx) {
    ctx.work(30'000);
    ev.set(ctx);
  });
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(waiter_time, 30'000u);
}

TEST(Executor, WaitOnAlreadySetEventReturnsImmediately) {
  Executor exec(1);
  Event ev(exec);
  uint64_t waiter_time = 0;
  exec.spawn("setter", [&](ThreadCtx& ctx) {
    ctx.work(5'000);
    ev.set(ctx);
  });
  ASSERT_TRUE(exec.run());
  exec.spawn("late", [&](ThreadCtx& ctx) {
    ev.wait(ctx);
    waiter_time = ctx.now();
  });
  ASSERT_TRUE(exec.run());
  EXPECT_GE(waiter_time, 5'000u);
}

TEST(Executor, HangIsReportedNotDeadlocked) {
  Executor exec(1);
  Event never(exec);
  exec.spawn("stuck", [&](ThreadCtx& ctx) { never.wait(ctx); });
  EXPECT_FALSE(exec.run());
}

TEST(Executor, DaemonDoesNotKeepRunAlive) {
  Executor exec(1);
  exec.spawn(
      "spinner",
      [&](ThreadCtx& ctx) {
        for (;;) ctx.work(1'000);  // spin forever; killed at shutdown
      },
      /*daemon=*/true);
  exec.spawn("main", [&](ThreadCtx& ctx) { ctx.work(10'000); });
  EXPECT_TRUE(exec.run());
}

TEST(Executor, PreemptHookFiresAtQuantumBoundaries) {
  Executor exec(1, /*quantum_ns=*/10'000);
  int hook_count = 0;
  exec.spawn("t", [&](ThreadCtx& ctx) {
    ctx.set_preempt_hook([&](ThreadCtx&) { ++hook_count; });
    ctx.work(55'000);  // 5 full quanta + remainder
    ctx.set_preempt_hook(nullptr);
  });
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(hook_count, 5);
}

TEST(Executor, WorkAtomicSkipsPreemptHook) {
  Executor exec(1, 10'000);
  int hook_count = 0;
  exec.spawn("t", [&](ThreadCtx& ctx) {
    ctx.set_preempt_hook([&](ThreadCtx&) { ++hook_count; });
    ctx.work_atomic(100'000);
    ctx.set_preempt_hook(nullptr);
  });
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(hook_count, 0);
}

TEST(Executor, HookMayChargeNestedWorkWithoutRecursion) {
  Executor exec(1, 10'000);
  int hook_count = 0;
  uint64_t end_time = 0;
  exec.spawn("t", [&](ThreadCtx& ctx) {
    ctx.set_preempt_hook([&](ThreadCtx& c) {
      ++hook_count;
      c.work(25'000);  // longer than a quantum: must not re-trigger the hook
    });
    ctx.work(20'000);
    ctx.set_preempt_hook(nullptr);
    end_time = ctx.now();
  });
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(hook_count, 2);
  EXPECT_EQ(end_time, 20'000u + 2 * 25'000u);
}

TEST(Executor, SuspendParksThreadUntilResume) {
  Executor exec(2);
  uint64_t victim_end = 0;
  ThreadId victim = exec.spawn("victim", [&](ThreadCtx& ctx) {
    ctx.work(5'000);
    ctx.yield();  // suspension takes effect at a scheduling point
    ctx.work(5'000);
    victim_end = ctx.now();
  });
  exec.spawn("boss", [&](ThreadCtx& ctx) {
    ctx.work(1'000);
    exec.suspend(victim);
    ctx.work(100'000);
    exec.resume(victim, ctx.now());
  });
  ASSERT_TRUE(exec.run());
  // The victim's second burst happened only after resume at ~101 us.
  EXPECT_GE(victim_end, 101'000u);
}

TEST(Executor, KillUnwindsThroughRaii) {
  Executor exec(1);
  bool cleaned_up = false;
  struct Raii {
    bool* flag;
    ~Raii() { *flag = true; }
  };
  ThreadId victim = exec.spawn("victim", [&](ThreadCtx& ctx) {
    Raii r{&cleaned_up};
    for (;;) ctx.work(1'000);
  });
  exec.spawn("killer", [&](ThreadCtx& ctx) {
    ctx.work(10'000);
    exec.kill(victim);
  });
  ASSERT_TRUE(exec.run());
  EXPECT_TRUE(cleaned_up);
  EXPECT_TRUE(exec.finished(victim));
}

TEST(Executor, SpinUntilObservesFlagWrittenByOtherThread) {
  Executor exec(2);
  std::atomic<bool> flag{false};
  uint64_t spin_end = 0;
  exec.spawn("spinner", [&](ThreadCtx& ctx) {
    ctx.spin_until([&] { return flag.load(); });
    spin_end = ctx.now();
  });
  exec.spawn("setter", [&](ThreadCtx& ctx) {
    ctx.work(40'000);
    flag.store(true);
  });
  ASSERT_TRUE(exec.run());
  EXPECT_GE(spin_end, 40'000u);
  EXPECT_LE(spin_end, 45'000u);  // poll interval bounds the lag
}

TEST(Executor, DeterministicAcrossRuns) {
  auto run_once = [] {
    Executor exec(4);
    std::vector<uint64_t> ends;
    for (int i = 0; i < 6; ++i) {
      exec.spawn("w", [&, i](ThreadCtx& ctx) {
        for (int k = 0; k < 3; ++k) ctx.work(1'000 * (i + 1));
        ends.push_back(ctx.now());
      });
    }
    EXPECT_TRUE(exec.run());
    return ends;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Executor, RunUntilPausesAndResumes) {
  Executor exec(1);
  uint64_t end_time = 0;
  exec.spawn("t", [&](ThreadCtx& ctx) {
    for (int i = 0; i < 100; ++i) ctx.work(1'000);
    end_time = ctx.now();
  });
  ASSERT_TRUE(exec.run_until(50'000));
  EXPECT_EQ(end_time, 0u);  // not yet finished
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(end_time, 100'000u);
}

TEST(Executor, SpawnFromSimThreadInheritsClock) {
  Executor exec(2);
  uint64_t child_start = 0;
  exec.spawn("parent", [&](ThreadCtx& ctx) {
    ctx.work(77'000);
    ctx.executor().spawn("child", [&](ThreadCtx& c) {
      child_start = c.now();
    });
  });
  ASSERT_TRUE(exec.run());
  EXPECT_GE(child_start, 77'000u);
}

// The process's OS thread count, from /proc/self/status.
int os_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(Executor, LiveSimThreadsAddNoOsThreads) {
  int before = os_threads();
  ASSERT_GT(before, 0);
  Executor exec(4);
  Event all_live(exec);
  int live = 0, during = -1;
  for (int i = 0; i < 64; ++i) {
    exec.spawn("w", [&](ThreadCtx& ctx) {
      ctx.work(1'000);
      if (++live == 64) {
        during = os_threads();
        all_live.set(ctx);
      }
      all_live.wait(ctx);
    });
  }
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(live, 64);
  EXPECT_EQ(during, before);
  EXPECT_EQ(os_threads(), before);
}

// About 4 KB per frame, kept alive across the recursive call.
[[gnu::noinline]] uint64_t recurse(ThreadCtx& ctx, int depth) {
  volatile char frame[4096];
  frame[0] = static_cast<char>(depth);
  frame[sizeof(frame) - 1] = static_cast<char>(depth);
  if (depth == 0) {
    ctx.work(1'000);  // a hand-off at the deepest point
    return 0;
  }
  uint64_t below = recurse(ctx, depth - 1);
  return below + static_cast<unsigned char>(frame[0]) +
         static_cast<unsigned char>(frame[sizeof(frame) - 1]);
}

TEST(Executor, DeepRecursionFitsOnAFiberStack) {
  Executor exec(1);
  uint64_t sum = 0;
  exec.spawn("deep", [&](ThreadCtx& ctx) { sum = recurse(ctx, 256); });
  exec.spawn("other", [&](ThreadCtx& ctx) { ctx.work(5'000); });
  ASSERT_TRUE(exec.run());
  uint64_t want = 0;
  for (int d = 1; d <= 256; ++d) want += 2 * static_cast<unsigned char>(d);
  EXPECT_EQ(sum, want);
}

TEST(Executor, KillBeforeFirstSliceSkipsTheBody) {
  Executor exec(1);
  bool outside_victim_ran = false, thread_victim_ran = false;
  ThreadId from_outside = exec.spawn("victim-a", [&](ThreadCtx&) {
    outside_victim_ran = true;
  });
  // Spawned after the killer, so the killer's slice comes first.
  ThreadId from_thread = kInvalidThread;
  exec.spawn("killer", [&](ThreadCtx&) { exec.kill(from_thread); });
  from_thread = exec.spawn("victim-b", [&](ThreadCtx& ctx) {
    thread_victim_ran = true;
    ctx.work(1'000);
  });
  exec.kill(from_outside);
  ASSERT_TRUE(exec.run());
  EXPECT_FALSE(outside_victim_ran);
  EXPECT_FALSE(thread_victim_ran);
  EXPECT_TRUE(exec.finished(from_outside));
  EXPECT_TRUE(exec.finished(from_thread));
}

TEST(ExecutorDeathTest, ForeignExceptionEndsTheProcess) {
  // Only ThreadKilled is caught at the fiber's base; anything else must not
  // unwind across the context switch into the scheduler.
  EXPECT_DEATH(
      {
        Executor exec(1);
        exec.spawn("thrower", [](ThreadCtx& ctx) {
          ctx.work(1'000);
          throw std::runtime_error("escaped the sim thread");
        });
        exec.run();
      },
      "escaped the sim thread");
}

TEST(EventWaitUntil, TimeoutAdvancesClockToDeadlineAndReturnsFalse) {
  Executor exec(1);
  Event ev(exec);
  bool got = true;
  uint64_t after = 0;
  exec.spawn("waiter", [&](ThreadCtx& ctx) {
    got = ev.wait_until(ctx, 5'000'000);
    after = ctx.now();
  });
  ASSERT_TRUE(exec.run());  // a timed wait never deadlocks the world
  EXPECT_FALSE(got);
  EXPECT_EQ(after, 5'000'000u);
}

TEST(EventWaitUntil, SetBeforeDeadlineWakesEarlyAndJoinsClocks) {
  Executor exec(2);
  Event ev(exec);
  bool got = false;
  uint64_t after = 0;
  exec.spawn("waiter", [&](ThreadCtx& ctx) {
    got = ev.wait_until(ctx, 50'000'000);
    after = ctx.now();
  });
  exec.spawn("setter", [&](ThreadCtx& ctx) {
    ctx.sleep(1'000'000);
    ev.set(ctx);
  });
  ASSERT_TRUE(exec.run());
  EXPECT_TRUE(got);
  EXPECT_GE(after, 1'000'000u);   // woke at the setter's time...
  EXPECT_LT(after, 50'000'000u);  // ...not at the deadline
}

TEST(EventWaitUntil, PastDeadlineChecksWithoutBlocking) {
  Executor exec(1);
  Event ev(exec);
  exec.spawn("t", [&](ThreadCtx& ctx) {
    ctx.work(2'000);
    // Unset event, deadline already behind us: false, clock untouched.
    EXPECT_FALSE(ev.wait_until(ctx, 1'000));
    EXPECT_EQ(ctx.now(), 2'000u);
    ev.set(ctx);
    // Set event: true regardless of the stale deadline.
    EXPECT_TRUE(ev.wait_until(ctx, 1'000));
  });
  ASSERT_TRUE(exec.run());
}

TEST(EventWaitUntil, AbandonedWaitersAllTimeOutIndependently) {
  // Several threads waiting on events nobody will ever set: with deadlines
  // this is not a deadlock — each times out at its own virtual instant.
  Executor exec(4);
  Event never1(exec), never2(exec);
  std::vector<uint64_t> wake(3, 0);
  exec.spawn("a", [&](ThreadCtx& ctx) {
    EXPECT_FALSE(never1.wait_until(ctx, 3'000'000));
    wake[0] = ctx.now();
  });
  exec.spawn("b", [&](ThreadCtx& ctx) {
    EXPECT_FALSE(never1.wait_until(ctx, 7'000'000));
    wake[1] = ctx.now();
  });
  exec.spawn("c", [&](ThreadCtx& ctx) {
    EXPECT_FALSE(never2.wait_until(ctx, 5'000'000));
    wake[2] = ctx.now();
  });
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(wake[0], 3'000'000u);
  EXPECT_EQ(wake[1], 7'000'000u);
  EXPECT_EQ(wake[2], 5'000'000u);
}

}  // namespace
}  // namespace mig::sim
