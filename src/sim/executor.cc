#include "sim/executor.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <limits>

#include "obs/metrics.h"

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#endif
#ifdef __SANITIZE_THREAD__
#include <sanitizer/tsan_interface.h>
#endif

namespace mig::sim {

namespace {
// 8 MB, the glibc default for a thread stack. The mapping is committed
// lazily: a thread pays only for the pages it touches.
constexpr size_t kFiberStackBytes = 8u << 20;
const size_t kPageBytes = static_cast<size_t>(sysconf(_SC_PAGESIZE));
}  // namespace

// ---------------------------------------------------------------- ThreadCtx

void ThreadCtx::work(uint64_t ns) { executor_->thread_work(executor_->get(id_), ns); }
void ThreadCtx::work_atomic(uint64_t ns) {
  executor_->advance(executor_->get(id_), ns, /*on_cpu=*/true);
}
void ThreadCtx::sleep(uint64_t ns) {
  executor_->advance(executor_->get(id_), ns, /*on_cpu=*/false);
}
void ThreadCtx::yield() { work_atomic(0); }
uint64_t ThreadCtx::now() const { return executor_->get(id_).vtime; }

ThreadCtx::PreemptHook ThreadCtx::set_preempt_hook(PreemptHook hook) {
  auto& t = executor_->get(id_);
  std::swap(t.preempt_hook, hook);
  return hook;
}

// -------------------------------------------------------------------- Event

void Event::wait(ThreadCtx& ctx) {
  executor_->thread_wait_event_until(executor_->get(ctx.id()), *this,
                                     Executor::kNoDeadline);
}

bool Event::wait_until(ThreadCtx& ctx, uint64_t deadline_ns) {
  return executor_->thread_wait_event_until(executor_->get(ctx.id()), *this,
                                            deadline_ns);
}

void Event::set(ThreadCtx& ctx) {
  executor_->event_set(&executor_->get(ctx.id()), *this);
}

// ----------------------------------------------------------------- Executor

Executor::Executor(int num_cpus, uint64_t quantum_ns)
    : cpu_free_(static_cast<size_t>(num_cpus), 0), quantum_ns_(quantum_ns) {
  MIG_CHECK(num_cpus >= 1);
  MIG_CHECK(quantum_ns >= 1);
}

Executor::~Executor() { shutdown(); }

Executor::SimThread& Executor::get(ThreadId id) {
  MIG_CHECK_MSG(id >= 1 && id <= threads_.size(), "bad thread id " << id);
  return *threads_[id - 1];
}

const Executor::SimThread& Executor::get(ThreadId id) const {
  MIG_CHECK_MSG(id >= 1 && id <= threads_.size(), "bad thread id " << id);
  return *threads_[id - 1];
}

ThreadId Executor::spawn(std::string name, ThreadFn fn, bool daemon) {
  MIG_CHECK_MSG(!shutting_down_, "spawn during shutdown");
  auto t = std::make_unique<SimThread>();
  t->id = next_id_++;
  t->name = std::move(name);
  t->daemon = daemon;
  t->ctx.reset(new ThreadCtx(this, t->id, t->name));
  t->fn = std::move(fn);
  // Start no earlier than the spawner's clock (causality).
  uint64_t start_at = sched_now_;
  if (running_ != kInvalidThread) {
    start_at = std::max(start_at, get(running_).vtime);
  }
  t->vtime = start_at;
  t->ready_at = start_at;
  threads_.push_back(std::move(t));
  return threads_.back()->id;
}

bool Executor::drained() const {
  for (const auto& t : threads_) {
    if (!t->daemon && t->state != State::kFinished) return false;
  }
  return true;
}

bool Executor::step() {
  // Earliest-start-first among runnable threads; ties broken by id for
  // determinism. All CPUs are identical, so a burst starts at
  // max(thread.ready_at, earliest-free CPU).
  uint64_t cpu_earliest = *std::min_element(cpu_free_.begin(), cpu_free_.end());
  SimThread* best = nullptr;
  uint64_t best_start = std::numeric_limits<uint64_t>::max();
  for (const auto& t : threads_) {
    uint64_t earliest;
    if (t->state == State::kRunnable) {
      earliest = t->ready_at;
    } else if (t->state == State::kWaiting && t->wait_deadline != kNoDeadline) {
      // A timed event wait: schedulable at its deadline even if the event
      // never fires (the thread detects the timeout itself on wake).
      earliest = t->wait_deadline;
    } else {
      continue;
    }
    uint64_t start = std::max(earliest, cpu_earliest);
    // Earliest start wins; ties go to the least-recently-scheduled thread so
    // no runnable thread starves (round-robin among equals). Both criteria
    // are deterministic.
    if (start < best_start ||
        (best != nullptr && start == best_start &&
         t->last_sched < best->last_sched)) {
      best_start = start;
      best = t.get();
    }
  }
  if (best == nullptr) return false;
  best->last_sched = stats_.slices + 1;

  sched_now_ = std::max(sched_now_, best_start);
  best->vtime = std::max(best->vtime, best_start);
  best->state = State::kRunning;
  running_ = best->id;
  ++stats_.slices;

  enter_fiber(*best);
  running_ = kInvalidThread;
  return true;
}

bool Executor::run() {
  // Safety net against accidental infinite simulations (e.g. a worker
  // spin-waiting on a flag nobody will ever clear but not marked daemon).
  return run_until(std::numeric_limits<uint64_t>::max());
}

bool Executor::run_until(uint64_t deadline_ns) {
  MIG_CHECK_MSG(running_ == kInvalidThread,
                "run() called from one of the executor's own threads");
  // Scheduling stats fold into the metrics registry when the run ends, so a
  // traced capture carries the executor's view of the same interval.
  auto publish = [&] {
    if (!obs::metrics_enabled()) return;
    auto& m = obs::metrics();
    m.set_gauge("sim.slices", stats_.slices);
    m.set_gauge("sim.preemptions", stats_.preemptions);
    m.set_gauge("sim.now_ns", sched_now_);
    m.set_gauge("sim.threads", threads_.size());
  };
  for (;;) {
    if (drained() || sched_now_ >= deadline_ns) {
      publish();
      return true;
    }
    if (!step()) {
      // Non-daemon threads remain but nothing is runnable: a hang.
      publish();
      return false;
    }
  }
}

void Executor::kill(ThreadId id) {
  SimThread& t = get(id);
  if (t.state == State::kFinished) return;
  t.kill_requested = true;
  if (t.state == State::kWaiting || t.state == State::kSuspended) {
    t.state = State::kRunnable;
    t.ready_at = std::max(t.vtime, sched_now_);
  }
  // Delivery happens at the thread's next scheduling point.
}

void Executor::suspend(ThreadId id) {
  SimThread& t = get(id);
  MIG_CHECK_MSG(t.state == State::kRunnable || t.state == State::kWaiting,
                "suspend on thread '" << t.name << "' in bad state");
  if (t.state == State::kRunnable) t.state = State::kSuspended;
  // A thread blocked on an Event stays kWaiting; suspension of event-blocked
  // threads is modeled by the OS simply not scheduling them, which the event
  // already achieves.
}

void Executor::resume(ThreadId id, uint64_t at_ns) {
  SimThread& t = get(id);
  if (t.state != State::kSuspended) return;
  t.state = State::kRunnable;
  t.ready_at = std::max(t.vtime, at_ns);
}

bool Executor::finished(ThreadId id) const {
  return get(id).state == State::kFinished;
}

std::string Executor::dump_state() const {
  static const char* const kStateNames[] = {"RUNNABLE", "RUNNING", "WAITING",
                                            "SUSPENDED", "FINISHED"};
  std::string out;
  for (const auto& t : threads_) {
    if (t->state == State::kFinished) continue;
    out += "  " + t->name + (t->daemon ? " [daemon] " : " ") +
           kStateNames[static_cast<int>(t->state)] +
           " vtime=" + std::to_string(t->vtime) + "\n";
  }
  return out;
}

void Executor::shutdown() {
  if (shutting_down_) return;
  shutting_down_ = true;
  for (auto& t : threads_) kill(t->id);
  // Each live thread observes ThreadKilled at its next scheduling point (one
  // never scheduled skips its body) and unwinds. A killed thread cannot block
  // again, so this runs until every thread has finished.
  while (step()) {
  }
}

// ------------------------------------------------------------------- fibers

void Executor::enter_fiber(SimThread& t) {
  if (t.stack == nullptr) {
    // The lowest page stays PROT_NONE: an overflow faults at once.
    void* m = mmap(nullptr, kFiberStackBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
    MIG_CHECK_MSG(m != MAP_FAILED, "fiber stack mmap failed");
    t.stack = static_cast<char*>(m);
    MIG_CHECK(mprotect(t.stack, kPageBytes, PROT_NONE) == 0);
    MIG_CHECK(getcontext(&t.uc) == 0);
    t.uc.uc_stack.ss_sp = t.stack + kPageBytes;
    t.uc.uc_stack.ss_size = kFiberStackBytes - kPageBytes;
    t.uc.uc_link = nullptr;
    auto self = reinterpret_cast<uintptr_t>(this);
    makecontext(&t.uc, reinterpret_cast<void (*)()>(&Executor::fiber_entry), 2,
                static_cast<unsigned>(self), static_cast<unsigned>(self >> 32));
#ifdef __SANITIZE_THREAD__
    t.tsan_fiber = __tsan_create_fiber(0);
#endif
  }
#ifdef __SANITIZE_ADDRESS__
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, t.stack + kPageBytes,
                                 kFiberStackBytes - kPageBytes);
#endif
#ifdef __SANITIZE_THREAD__
  sched_tsan_fiber_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(t.tsan_fiber, 0);
#endif
  MIG_CHECK(swapcontext(&sched_ctx_, &t.uc) == 0);
#ifdef __SANITIZE_ADDRESS__
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
  if (t.state != State::kFinished) return;
#ifdef __SANITIZE_THREAD__
  __tsan_destroy_fiber(t.tsan_fiber);
#endif
#ifdef __SANITIZE_ADDRESS__
  // fiber_entry's frame never returned, so its redzones are still poisoned.
  __asan_unpoison_memory_region(t.stack, kFiberStackBytes);
#endif
  munmap(t.stack, kFiberStackBytes);
  t.stack = nullptr;
}

void Executor::leave_fiber(SimThread& t, [[maybe_unused]] bool final) {
#ifdef __SANITIZE_ADDRESS__
  __sanitizer_start_switch_fiber(final ? nullptr : &t.asan_fake_stack,
                                 sched_stack_, sched_stack_size_);
#endif
#ifdef __SANITIZE_THREAD__
  __tsan_switch_to_fiber(sched_tsan_fiber_, 0);
#endif
  MIG_CHECK(swapcontext(&t.uc, &sched_ctx_) == 0);
#ifdef __SANITIZE_ADDRESS__
  __sanitizer_finish_switch_fiber(t.asan_fake_stack, &sched_stack_,
                                  &sched_stack_size_);
#endif
}

void Executor::fiber_entry(unsigned lo, unsigned hi) noexcept {
  // noexcept: an exception other than ThreadKilled ends the process here
  // instead of unwinding into the makecontext trampoline.
  auto* self =
      reinterpret_cast<Executor*>(static_cast<uintptr_t>(hi) << 32 | lo);
#ifdef __SANITIZE_ADDRESS__
  __sanitizer_finish_switch_fiber(nullptr, &self->sched_stack_,
                                  &self->sched_stack_size_);
#endif
  SimThread& t = self->get(self->running_);
  {
    ThreadFn fn = std::move(t.fn);
    try {
      if (!t.kill_requested) fn(*t.ctx);
    } catch (const ThreadKilled&) {  // the normal cancellation path
    }
  }
  // Nothing on this stack is live past here: the scheduler unmaps it.
  t.state = State::kFinished;
  self->leave_fiber(t, /*final=*/true);
}

// ----------------------------------------------- sim-thread-side primitives

void Executor::check_kill(SimThread& t) {
  if (t.kill_requested) throw ThreadKilled{};
}

void Executor::reschedule(SimThread& t) {
  // Release the CPU this slice occupied. cpu_release excludes non-CPU time
  // (sleeping, waiting) so those do not block other threads' bursts.
  auto it = std::min_element(cpu_free_.begin(), cpu_free_.end());
  *it = std::max(*it, t.cpu_release);

  leave_fiber(t, /*final=*/false);
  t.state = State::kRunning;
  check_kill(t);
}

void Executor::thread_work(SimThread& t, uint64_t ns) {
  check_kill(t);
  for (uint64_t remaining = ns; remaining > 0;) {
    uint64_t chunk = std::min(remaining, quantum_ns_);
    remaining -= chunk;
    advance(t, chunk, /*on_cpu=*/true);
    // Quantum boundary: deliver the preemption hook (unless we are already
    // inside one — AEX handlers must not recursively AEX in the model).
    if (chunk == quantum_ns_ && t.preempt_hook && !t.in_hook) {
      ++stats_.preemptions;
      t.in_hook = true;
      auto hook = t.preempt_hook;  // copy: hook may replace itself
      hook(*t.ctx);
      t.in_hook = false;
      check_kill(t);
    }
  }
}

void Executor::advance(SimThread& t, uint64_t ns, bool on_cpu) {
  check_kill(t);
  t.cpu_release = on_cpu ? t.vtime + ns : t.vtime;  // a sleeper frees the CPU
  t.vtime += ns;
  t.ready_at = t.vtime;
  t.state = State::kRunnable;
  reschedule(t);
}

bool Executor::thread_wait_event_until(SimThread& t, Event& ev,
                                       uint64_t deadline_ns) {
  check_kill(t);
  if (ev.set_) {
    t.vtime = std::max(t.vtime, ev.set_time_);
    return true;
  }
  if (deadline_ns <= t.vtime) return false;
  ev.waiters_.push_back(t.id);
  t.state = State::kWaiting;
  t.cpu_release = t.vtime;
  t.wait_deadline = deadline_ns;
  reschedule(t);
  t.wait_deadline = kNoDeadline;
  // Disambiguate the wake cause: event_set() clears the waiter list, so if we
  // are still on it, the scheduler woke us at the deadline.
  auto it = std::find(ev.waiters_.begin(), ev.waiters_.end(), t.id);
  if (it == ev.waiters_.end()) return true;
  ev.waiters_.erase(it);
  t.vtime = std::max(t.vtime, deadline_ns);
  t.ready_at = t.vtime;
  return false;
}

void Executor::event_set(SimThread* setter, Event& ev) {
  uint64_t at = setter != nullptr ? setter->vtime : sched_now_;
  ev.set_ = true;
  ev.set_time_ = std::max(ev.set_time_, at);
  for (ThreadId id : ev.waiters_) {
    SimThread& w = get(id);
    if (w.state != State::kWaiting) continue;
    w.state = State::kRunnable;
    w.ready_at = std::max(w.vtime, at);
    w.vtime = w.ready_at;
  }
  ev.waiters_.clear();
}

}  // namespace mig::sim
