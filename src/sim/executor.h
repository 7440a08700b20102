// Deterministic cooperative executor with virtual time.
//
// Why this exists: the paper's system is evaluated on real Skylake hardware
// with a 4-VCPU guest. We have neither SGX silicon nor KVM, so every layer of
// the stack runs on a simulated machine. The executor provides the execution
// substrate for that machine:
//
//  * Guest threads (enclave workers, control threads, guest-OS activities,
//    the QEMU/hypervisor migration loop) are spawned as *sim threads*:
//    fibers (ucontext + mmap'd stack) on the one OS thread that calls run().
//    Exactly one runs at a time and handoff happens only at explicit points
//    (work/sleep/yield/wait), so the whole simulation is deterministic: same
//    seed + same program = same interleaving = same virtual timings.
//
//  * Virtual time: a thread charges CPU time with ctx.work(ns). The executor
//    schedules bursts onto `num_cpus` model CPUs (earliest-free CPU first),
//    so contention — e.g. 8 enclaves x 3 threads on 4 VCPUs in Fig. 9(c) —
//    emerges naturally and benches read elapsed virtual time, not wall time.
//
//  * Preemption: long work() bursts are split at a timer quantum; at each
//    boundary the thread's preempt hook runs. The SGX runtime installs a hook
//    while a thread is inside an enclave, which is how AEX (asynchronous
//    enclave exit) is delivered — exactly the mechanism the paper relies on
//    to interrupt long-running enclave threads during two-phase
//    checkpointing.
//
//  * Suspension: the guest OS can suspend/resume sim threads, which models
//    stop_other_threads(). A *malicious* OS simply declines to call it —
//    that is the paper's data-consistency attack, reproduced verbatim.
//
// Causality: each thread carries its own virtual clock; clocks join at
// synchronization points (Event::set/wait, message delivery), so "elapsed
// time observed by the orchestrator" is causally meaningful.
#pragma once

#include <ucontext.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/check.h"

namespace mig::sim {

using ThreadId = uint32_t;
inline constexpr ThreadId kInvalidThread = 0;

// Thrown inside a sim thread when it has been killed (enclave destroyed,
// process torn down, executor shutdown). The thread trampoline catches it;
// user code should simply let it propagate through RAII cleanup.
struct ThreadKilled {};

class Executor;

// Handle given to a sim thread's body; all interaction with virtual time and
// scheduling goes through it. Only valid on the thread it was given to.
class ThreadCtx {
 public:
  // Charges `ns` of CPU time. The burst is split at the timer quantum and the
  // preempt hook (if any) runs at each boundary. A scheduling point.
  void work(uint64_t ns);

  // Charges `ns` as one indivisible burst: no quantum split, no preemption
  // hook. For bulk cost modeling (e.g. "this DMA took 3 ms"), not for code
  // that must remain interruptible.
  void work_atomic(uint64_t ns);

  // Becomes runnable again `ns` virtual nanoseconds from now, without
  // occupying a CPU in between.
  void sleep(uint64_t ns);

  // Gives other threads a chance to run (no virtual time charged).
  void yield();

  // This thread's virtual clock, in ns.
  uint64_t now() const;

  ThreadId id() const { return id_; }
  const std::string& name() const { return name_; }
  Executor& executor() const { return *executor_; }

  // Installs/clears the preemption hook invoked at timer-quantum boundaries
  // inside work(). Returns the previous hook so callers can nest.
  using PreemptHook = std::function<void(ThreadCtx&)>;
  PreemptHook set_preempt_hook(PreemptHook hook);

  // Polls `pred` every `poll_ns` of virtual time until it returns true.
  // This is a genuine spin in virtual time (the caller burns CPU time), which
  // is exactly how the paper's spin regions behave.
  template <typename Pred>
  void spin_until(Pred&& pred, uint64_t poll_ns = 1000) {
    while (!pred()) work(poll_ns);
  }

 private:
  friend class Executor;
  ThreadCtx(Executor* executor, ThreadId id, std::string name)
      : executor_(executor), id_(id), name_(std::move(name)) {}

  Executor* executor_;
  ThreadId id_;
  std::string name_;
};

// One-directional synchronization: waiters block (releasing their CPU) until
// another thread calls set(). Waking joins clocks: a woken thread resumes at
// max(its clock, the setter's clock at set() time).
class Event {
 public:
  explicit Event(Executor& executor) : executor_(&executor) {}

  // Blocks the calling sim thread until the event is set. If the event is
  // already set, returns immediately (after joining clocks).
  void wait(ThreadCtx& ctx);

  // Like wait(), but gives up at virtual time `deadline_ns`. Returns true if
  // the event was set (clocks joined as in wait()); false on timeout, with
  // the caller's clock advanced to the deadline. A deadline at or before the
  // caller's clock checks the event without blocking.
  bool wait_until(ThreadCtx& ctx, uint64_t deadline_ns);

  // Sets the event and wakes all current waiters. `ctx` provides the signal
  // time. May be called multiple times; later waits return immediately.
  void set(ThreadCtx& ctx);

  // Resets to unset (for reusable barriers).
  void reset() { set_ = false; }

  bool is_set() const { return set_; }

 private:
  friend class Executor;
  Executor* executor_;
  bool set_ = false;
  uint64_t set_time_ = 0;
  std::vector<ThreadId> waiters_;
};

struct ExecutorStats {
  uint64_t slices = 0;       // scheduling decisions made
  uint64_t preemptions = 0;  // quantum-boundary hook invocations
};

class Executor {
 public:
  // `num_cpus` — model CPUs available for work() bursts (the paper's guest
  // has 4 VCPUs). `quantum_ns` — timer quantum for preemption.
  explicit Executor(int num_cpus, uint64_t quantum_ns = 100'000);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  using ThreadFn = std::function<void(ThreadCtx&)>;

  // Spawns a sim thread, runnable at >= `start_at` virtual time (default:
  // spawner's clock when spawned from a sim thread, else current sim time).
  // Daemon threads never keep run() alive (use for spin-forever workers).
  ThreadId spawn(std::string name, ThreadFn fn, bool daemon = false);

  // Runs until every non-daemon thread has finished or is unrunnable.
  // Returns false if non-daemon threads remain blocked forever (a hang —
  // tests assert on this).
  bool run();

  // Runs until the virtual scheduling clock reaches `deadline_ns` (or the
  // simulation drains). Threads stay paused and resumable afterwards.
  bool run_until(uint64_t deadline_ns);

  // Requests asynchronous cancellation: the thread observes ThreadKilled at
  // its next scheduling point. No-op on finished threads.
  void kill(ThreadId id);

  // Suspend/resume model the guest OS parking a thread. A suspended thread
  // is not schedulable; resume makes it runnable at the resumer's clock.
  void suspend(ThreadId id);
  void resume(ThreadId id, uint64_t at_ns);

  bool finished(ThreadId id) const;

  // The scheduler's notion of current time: the start time of the most
  // recently scheduled slice. Monotone and deterministic.
  uint64_t sched_now() const { return sched_now_; }

  int num_cpus() const { return static_cast<int>(cpu_free_.size()); }
  uint64_t quantum_ns() const { return quantum_ns_; }
  const ExecutorStats& stats() const { return stats_; }

  // Kills all live threads and runs each until it has unwound. Called by the
  // destructor; safe to call explicitly.
  void shutdown();

  // Diagnostic: one line per unfinished thread (name + state). For hang
  // reports after run() returns false.
  std::string dump_state() const;

 private:
  friend class ThreadCtx;
  friend class Event;

  enum class State : uint8_t {
    kRunnable,   // eligible at vtime ready_at
    kRunning,    // its fiber is the one executing
    kWaiting,    // blocked on an Event
    kSuspended,  // parked by suspend()
    kFinished,
  };

  // Sentinel for "no deadline" on a waiting thread.
  static constexpr uint64_t kNoDeadline = ~0ull;

  struct SimThread {
    ThreadId id;
    std::string name;
    bool daemon = false;
    State state = State::kRunnable;
    uint64_t vtime = 0;        // thread-local virtual clock
    uint64_t ready_at = 0;     // earliest schedulable time when kRunnable
    uint64_t cpu_release = 0;  // time up to which the current slice used CPU
    uint64_t last_sched = 0;   // scheduling sequence number (for fairness)
    // When kWaiting with a deadline, the scheduler may wake the thread at
    // this virtual time even if the event never fires.
    uint64_t wait_deadline = kNoDeadline;
    bool kill_requested = false;
    bool in_hook = false;  // preemption hook active (suppresses nesting)
    std::unique_ptr<ThreadCtx> ctx;
    ThreadCtx::PreemptHook preempt_hook;
    ThreadFn fn;  // moved onto the fiber's stack when it first runs
    ucontext_t uc{};
    char* stack = nullptr;  // mapped from first slice until finished
    void* asan_fake_stack = nullptr;
    void* tsan_fiber = nullptr;
  };

  // -- called from sim threads (via ThreadCtx/Event) --
  void thread_work(SimThread& t, uint64_t ns);
  // Ends the slice `ns` from now, holding the CPU that long only if `on_cpu`.
  void advance(SimThread& t, uint64_t ns, bool on_cpu);
  bool thread_wait_event_until(SimThread& t, Event& ev, uint64_t deadline_ns);
  void event_set(SimThread* setter, Event& ev);

  // Releases the slice's CPU and switches back to the scheduler; returns once
  // the scheduler picks this thread again (state kRunning).
  void reschedule(SimThread& t);
  void check_kill(SimThread& t);

  SimThread& get(ThreadId id);
  const SimThread& get(ThreadId id) const;

  // -- scheduler core (runs on the thread that called run/run_until) --
  // Picks the next runnable thread and switches to its fiber until it hands
  // control back; returns false if nothing is runnable.
  bool step();
  bool drained() const;

  // Scheduler -> fiber `t`, mapping its stack on first use and unmapping it
  // once `t` has finished. Returns when `t` switches back.
  void enter_fiber(SimThread& t);
  // Fiber `t` -> scheduler. `final`: `t` has finished and is never resumed.
  void leave_fiber(SimThread& t, bool final);
  // Base frame of every fiber; makecontext passes `this` as two int halves.
  static void fiber_entry(unsigned lo, unsigned hi) noexcept;

  std::vector<std::unique_ptr<SimThread>> threads_;
  std::vector<uint64_t> cpu_free_;
  uint64_t quantum_ns_;
  uint64_t sched_now_ = 0;
  ThreadId next_id_ = 1;
  ThreadId running_ = kInvalidThread;
  bool shutting_down_ = false;
  ExecutorStats stats_;
  // The scheduler's context while a fiber runs; the sanitizers' view of it.
  ucontext_t sched_ctx_{};
  const void* sched_stack_ = nullptr;
  size_t sched_stack_size_ = 0;
  void* sched_tsan_fiber_ = nullptr;
};

}  // namespace mig::sim
