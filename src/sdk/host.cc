#include "sdk/host.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/serde.h"

namespace mig::sdk {

namespace {
// Cost of the per-entry migration instrumentation (save/restore local flag,
// check global flag, record CSSA_EENTER): a handful of memory operations.
// This is the entire Fig. 9(b) overhead.
constexpr uint64_t kStubNs = 60;
constexpr uint64_t kSpinPollNs = 2'000;
}  // namespace

// Trusted in-enclave runtime: the stubs the SDK measures into every enclave.
// Methods throw AexSignal when the hardware AEXes; flag-stack state lives in
// enclave memory so an unwind never loses it.
class EnclaveRuntime {
 public:
  EnclaveRuntime(sim::ThreadCtx& ctx, EnclaveHost& host, uint64_t widx,
                 sgx::CoreState& core)
      : env_(ctx, host.instance_->machine->hw(), core, host.instance_->eid,
             host.built_.layout, widx),
        host_(&host),
        widx_(widx),
        tls_(host.built_.layout.tls_offset(widx)) {
    env_.set_ocall_table(&host.ocalls_);
  }

  EnclaveEnv& env() { return env_; }

  // Fresh EENTER (rax == 0 path) carrying an ecall request.
  Result<Bytes> run_entry(uint64_t rax, uint64_t id, ByteSpan args) {
    stub_prologue(rax);
    // Write the resumable frame before anything can interrupt us, so a
    // spin-in-entry migration can re-dispatch on the target.
    env_.write_u64(tls_ + kTlEcallId, id);
    env_.write_u64(tls_ + kTlPc, 0);
    Writer w;
    w.u64(std::min<uint64_t>(args.size(), kTlArgsMax));
    env_.write_bytes(tls_ + kTlArgLen, w.data());
    env_.write_bytes(tls_ + kTlArgs, args.first(std::min<size_t>(args.size(),
                                                                 kTlArgsMax)));
    if (host_->migration_support_) {
      push_flag();
      if (env_.read_u64(kOffGlobalFlag) == 1) {
        set_flag(kFlagSpin);
        spin_wait(CtxKind::kSpinEntry);
        set_flag(kFlagBusy);
      }
    }
    return dispatch();
  }

  // Handler EENTER (rax >= 1): the paper's exception-handler path where an
  // interrupted thread checks the global flag (Fig. 4 right side).
  void run_handler(uint64_t rax) {
    stub_prologue(rax);
    if (host_->migration_support_ &&
        env_.read_u64(kOffGlobalFlag) == 1) {
      push_flag();
      set_flag(kFlagSpin);
      spin_wait(CtxKind::kSpinHandler);
      pop_flag();
    }
  }

  // ERESUME continuations.
  Result<Bytes> resume_ecall() { return dispatch(); }

  Result<Bytes> resume_spin_then_entry() {
    spin_wait(CtxKind::kSpinEntry);
    set_flag(kFlagBusy);
    return dispatch();
  }

  void resume_spin_handler() {
    spin_wait(CtxKind::kSpinHandler);
    pop_flag();
  }

 private:
  void stub_prologue(uint64_t rax) {
    if (host_->migration_support_) {
      env_.work(kStubNs);
      // §IV-C: "At the entry of enclave, the stub code will record
      // CSSA_EENTER (the return value of EENTER)."
      env_.write_u64(tls_ + kTlCssaEenter, rax);
      // CSSA-restore pumping (§IV-C, target Step-3): record and AEX out.
      if (env_.read_u64(kOffPumpMode) == 1) {
        env_.force_aex(CtxKind::kPump);
      }
    }
  }

  void push_flag() {
    uint64_t sp = env_.read_u64(tls_ + kTlFlagSp);
    MIG_CHECK_MSG(sp < 4, "flag stack overflow (nesting > nssa?)");
    env_.write_u64(tls_ + kTlFlagStack + 8 * sp,
                   env_.read_u64(tls_ + kTlLocalFlag));
    env_.write_u64(tls_ + kTlFlagSp, sp + 1);
    set_flag(kFlagBusy);
  }

  void pop_flag() {
    uint64_t sp = env_.read_u64(tls_ + kTlFlagSp);
    MIG_CHECK_MSG(sp > 0, "flag stack underflow");
    env_.write_u64(tls_ + kTlFlagSp, sp - 1);
    set_flag(env_.read_u64(tls_ + kTlFlagStack + 8 * (sp - 1)));
  }

  void set_flag(uint64_t v) { env_.write_u64(tls_ + kTlLocalFlag, v); }

  // "When running in the spin region, a thread will not change any memory
  // and will keep in the region until it finds that the global flag is
  // unset." AEX points let the timer interrupt long spins (and park the
  // thread during migration).
  void spin_wait(CtxKind kind) {
    obs::instant(env_.ctx(), "spin.enter", "sdk", {{"worker", widx_}});
    while (env_.read_u64(kOffGlobalFlag) == 1) {
      env_.work(kSpinPollNs);
      env_.aex_point(kind);
    }
    obs::instant(env_.ctx(), "spin.exit", "sdk", {{"worker", widx_}});
  }

  Result<Bytes> dispatch() {
    Frame frame(env_);
    uint64_t id = frame.ecall_id();
    const EcallFn* fn = host_->built_.program->find_ecall(id);
    if (fn == nullptr) {
      if (host_->migration_support_) pop_flag();
      return Error(ErrorCode::kNotFound, "no such ecall");
    }
    Status st = (*fn)(env_, frame);
    if (host_->migration_support_) pop_flag();
    MIG_RETURN_IF_ERROR(st);
    return env_.take_retval();
  }

  EnclaveEnv env_;
  EnclaveHost* host_;
  uint64_t widx_;
  uint64_t tls_;
};

// ------------------------------------------------------------- EnclaveHost

EnclaveHost::EnclaveHost(guestos::GuestOs& os, guestos::Process& process,
                         BuildOutput built, sgx::AttestationService& ias,
                         crypto::Drbg rng)
    : os_(&os),
      process_(&process),
      ias_(&ias),
      built_(std::move(built)),
      rng_(std::move(rng)) {
  migration_support_ = built_.migration_support;
  workers_.resize(built_.layout.params.num_workers);
  migration_done_ = std::make_unique<sim::Event>(os.executor());
}

EnclaveHost::~EnclaveHost() = default;

Status EnclaveHost::create(sim::ThreadCtx& ctx) {
  MIG_CHECK_MSG(instance_ == nullptr, "instance already bound");
  MIG_ASSIGN_OR_RETURN(sgx::EnclaveId eid,
                       os_->create_enclave(ctx, *process_, built_.image));
  auto inst = std::make_unique<EnclaveInstance>();
  inst->machine = &os_->machine();
  inst->eid = eid;
  inst->mailbox = std::make_unique<ControlMailbox>(os_->executor());
  inst->deps = std::make_unique<ControlDeps>();
  inst->deps->qe = &inst->machine->qe();
  inst->deps->ias = ias_;
  inst->deps->rng = rng_.fork(to_bytes("enclave-rdrand"));
  instance_ = std::move(inst);
  instance_lost_ = false;
  return spawn_control_thread(ctx);
}

Status EnclaveHost::spawn_control_thread(sim::ThreadCtx& ctx) {
  EnclaveInstance* inst = instance_.get();
  const Layout& l = built_.layout;
  uint64_t control_idx = l.control_tcs_index();
  uint64_t tcs = kEnclaveBase + l.tcs_offset(control_idx);
  hv::Machine* machine = inst->machine;
  sgx::EnclaveId eid = inst->eid;
  ControlMailbox* mailbox = inst->mailbox.get();
  ControlDeps* deps = inst->deps.get();
  const Layout* layout = &built_.layout;
  inst->control_thread = os_->executor().spawn(
      process_->name() + "/control",
      [machine, eid, tcs, mailbox, deps, layout,
       control_idx](sim::ThreadCtx& tctx) {
        sgx::CoreState core;
        auto rax = machine->hw().eenter(tctx, core, eid, tcs);
        MIG_CHECK_MSG(rax.ok(), "control thread EENTER failed: "
                                    << rax.status().to_string());
        EnclaveEnv env(tctx, machine->hw(), core, eid, *layout, control_idx);
        control_thread_main(env, *mailbox, *deps);
        Status st = machine->hw().eexit(tctx, core);
        MIG_CHECK(st.ok());
      },
      /*daemon=*/true);
  (void)ctx;
  return OkStatus();
}

ControlMailbox& EnclaveHost::mailbox() {
  MIG_CHECK_MSG(instance_ != nullptr, "no bound instance");
  return *instance_->mailbox;
}

std::unique_ptr<EnclaveInstance> EnclaveHost::detach_instance() {
  return std::move(instance_);
}

namespace {
// Posts kShutdown and waits until the control thread has actually EEXITed
// (its TCS must be idle before EREMOVE can succeed).
void shutdown_control_thread(sim::ThreadCtx& ctx, EnclaveInstance& inst) {
  (void)inst.mailbox->post(ctx, ControlCmd{});  // kShutdown default
  sim::Executor& exec = ctx.executor();
  ctx.spin_until([&] { return exec.finished(inst.control_thread); });
}
}  // namespace

Status EnclaveHost::destroy_detached(sim::ThreadCtx& ctx, hv::Machine& machine,
                                     std::unique_ptr<EnclaveInstance> inst) {
  if (inst == nullptr) return OkStatus();
  shutdown_control_thread(ctx, *inst);
  return machine.hw().eremove_enclave(ctx, inst->eid);
}

Status EnclaveHost::destroy(sim::ThreadCtx& ctx) {
  if (instance_ == nullptr) return OkStatus();
  shutdown_control_thread(ctx, *instance_);
  Status st = os_->destroy_enclave(ctx, *process_, instance_->eid);
  instance_.reset();
  return st;
}

void EnclaveHost::crash_instance(sim::ThreadCtx& ctx) {
  mark_instance_lost();
  if (instance_ == nullptr) return;
  // No shutdown handshake: the EPC vanishes under the control thread. That
  // (daemon) thread stays parked in its mailbox wait forever, so the mailbox
  // must outlive the instance — the untrusted shared page survives the
  // enclave. Stash the whole instance instead of freeing it.
  os_->crash_enclave(ctx, *process_, instance_->eid);
  crashed_.push_back(std::move(instance_));
}

Status EnclaveHost::pump_cssa(sim::ThreadCtx& ctx, uint64_t worker_idx,
                              uint64_t pumps) {
  MIG_CHECK(worker_idx < workers_.size());
  EnclaveInstance* inst = instance_.get();
  if (inst == nullptr) return Error(ErrorCode::kUnavailable, "no instance");
  HostThread& ht = workers_[worker_idx];
  uint64_t tcs = kEnclaveBase + built_.layout.tcs_offset(worker_idx);
  obs::Span<sim::ThreadCtx> span(ctx, "cssa_pump", "sdk",
                                 {{"worker", worker_idx}, {"pumps", pumps}});
  for (uint64_t i = 0; i < pumps; ++i) {
    auto rax = inst->machine->hw().eenter(ctx, ht.core, inst->eid, tcs);
    MIG_RETURN_IF_ERROR(rax.status());
    EnclaveRuntime rt(ctx, *this, worker_idx, ht.core);
    try {
      rt.run_entry(*rax, /*id=*/0, {});
      // Pump mode must AEX; reaching here means the enclave is not pumping.
      return Error(ErrorCode::kFailedPrecondition, "enclave not in pump mode");
    } catch (const AexSignal&) {
      // Expected: one EENTER+AEX cycle == CSSA += 1.
      obs::metrics().add("sdk.cssa_pumps");
    }
  }
  return OkStatus();
}

void EnclaveHost::finish_migration(sim::ThreadCtx& ctx,
                                   const std::vector<PumpPlan>& pumps) {
  for (HostThread& w : workers_) w.believed_cssa = 0;
  for (const PumpPlan& p : pumps) {
    MIG_CHECK(p.worker_idx < workers_.size());
    workers_[p.worker_idx].believed_cssa = p.pumps;
  }
  end_parking(ctx);
}

void EnclaveHost::end_parking(sim::ThreadCtx& ctx) {
  parked_ = false;
  migration_done_->set(ctx);
}

Result<Bytes> EnclaveHost::ecall(sim::ThreadCtx& ctx, uint64_t worker_idx,
                                 uint64_t id, ByteSpan args) {
  return dispatch_loop(ctx, worker_idx, id, args);
}

Result<Bytes> EnclaveHost::dispatch_loop(sim::ThreadCtx& ctx,
                                         uint64_t worker_idx, uint64_t id,
                                         ByteSpan args) {
  MIG_CHECK_MSG(worker_idx < workers_.size(), "bad worker index");
  HostThread& ht = workers_[worker_idx];
  const Layout& l = built_.layout;
  Bytes args_copy(args.begin(), args.end());

  enum class Next { kFresh, kAfterAex, kResumeChain };
  Next next = Next::kFresh;
  bool handler_tried = false;
  // Parking discipline: a worker may only park when its enclave-side state
  // is quiescent — before a fresh entry, or after it AEX'd out of a spin
  // region (local flag == spin). Parking mid-ecall (flag busy) would
  // deadlock the control thread's quiescence wait, and entering a
  // half-restored target instance would corrupt the CSSA pumping.
  bool park_ready = false;
  EnclaveInstance* chain_inst = nullptr;  // instance this AEX chain is on

  for (;;) {
    if (parked_ && (next == Next::kFresh || park_ready ||
                    instance_.get() == nullptr ||
                    instance_.get() != chain_inst)) {
      obs::instant(ctx, "worker.park", "sdk", {{"worker", worker_idx}});
      obs::metrics().add("sdk.parks");
      migration_done_->wait(ctx);
      obs::instant(ctx, "worker.unpark", "sdk", {{"worker", worker_idx}});
      park_ready = false;
      continue;
    }
    EnclaveInstance* inst = instance_.get();
    if (inst == nullptr) {
      if (instance_lost_) {
        // Self-destroyed after serving Kmigrate and the target never came
        // up here: this in-flight call can never complete.
        return Error(ErrorCode::kAborted, "enclave self-destroyed; instance lost");
      }
      // Between detach and re-create: behave like parked.
      ctx.sleep(10'000);
      continue;
    }
    chain_inst = inst;
    sgx::SgxHardware& hw = inst->machine->hw();
    uint64_t tcs = kEnclaveBase + l.tcs_offset(worker_idx);

    switch (next) {
      case Next::kFresh: {
        auto rax = hw.eenter(ctx, ht.core, inst->eid, tcs);
        if (!rax.ok()) {
          if (rax.status().code() == ErrorCode::kAborted) {
            ctx.sleep(100'000);  // enclave frozen (EMIGRATE path); retry
            continue;
          }
          return rax.status();
        }
        EnclaveRuntime rt(ctx, *this, worker_idx, ht.core);
        try {
          Result<Bytes> result = rt.run_entry(*rax, id, args_copy);
          MIG_RETURN_IF_ERROR(hw.eexit(ctx, ht.core));
          return result;
        } catch (const AexSignal&) {
          obs::instant(ctx, "aex", "sdk", {{"worker", worker_idx}});
          obs::metrics().add("sdk.aex");
          ht.believed_cssa += 1;
          next = Next::kAfterAex;
          handler_tried = false;
        }
        break;
      }

      case Next::kAfterAex: {
        // The library's policy after an asynchronous exit: during migration
        // it EENTERs the in-enclave exception handler so the thread can
        // observe the global flag (§IV-B); otherwise it ERESUMEs.
        if (migration_support_ && !handler_tried &&
            (os_->migration_in_progress() || parked_)) {
          handler_tried = true;
          auto rax = hw.eenter(ctx, ht.core, inst->eid, tcs);
          if (!rax.ok()) {
            next = Next::kResumeChain;
            break;
          }
          EnclaveRuntime rt(ctx, *this, worker_idx, ht.core);
          try {
            rt.run_handler(*rax);
            MIG_RETURN_IF_ERROR(hw.eexit(ctx, ht.core));
            // Handler returned: flag cleared (migration cancelled/finished).
            next = Next::kResumeChain;
          } catch (const AexSignal&) {
            // The thread AEX'd while spinning: it is now outside the
            // enclave with CSSA = CSSA_EENTER + 1 and local flag spin —
            // safe to park. believed_cssa mirrors the extra frame.
            obs::instant(ctx, "aex", "sdk", {{"worker", worker_idx}});
            obs::metrics().add("sdk.aex");
            ht.believed_cssa += 1;
            next = Next::kResumeChain;
            park_ready = true;
            if (!parked_) ctx.sleep(50'000);
          }
        } else {
          next = Next::kResumeChain;
        }
        break;
      }

      case Next::kResumeChain: {
        if (ht.believed_cssa == 0) {
          // Lost track (can only happen if untrusted bookkeeping was wrong);
          // fall back to a fresh entry, the enclave stubs stay correct.
          next = Next::kFresh;
          break;
        }
        auto saved = hw.eresume(ctx, ht.core, inst->eid, tcs);
        if (!saved.ok()) {
          if (saved.status().code() == ErrorCode::kAborted ||
              saved.status().code() == ErrorCode::kFailedPrecondition) {
            ctx.sleep(100'000);
            continue;
          }
          return saved.status();
        }
        ht.believed_cssa -= 1;
        auto parsed = parse_ctx(*saved);
        if (!parsed.ok()) return parsed.status();
        CtxKind kind = parsed->first;
        EnclaveRuntime rt(ctx, *this, worker_idx, ht.core);
        try {
          switch (kind) {
            case CtxKind::kEcall: {
              Result<Bytes> result = rt.resume_ecall();
              MIG_RETURN_IF_ERROR(hw.eexit(ctx, ht.core));
              return result;
            }
            case CtxKind::kSpinEntry: {
              Result<Bytes> result = rt.resume_spin_then_entry();
              MIG_RETURN_IF_ERROR(hw.eexit(ctx, ht.core));
              return result;
            }
            case CtxKind::kSpinHandler:
            case CtxKind::kPump: {
              rt.resume_spin_handler();
              MIG_RETURN_IF_ERROR(hw.eexit(ctx, ht.core));
              // Unwound one nesting level; keep resuming.
              next = Next::kResumeChain;
              break;
            }
          }
        } catch (const AexSignal&) {
          obs::instant(ctx, "aex", "sdk", {{"worker", worker_idx}});
          obs::metrics().add("sdk.aex");
          ht.believed_cssa += 1;
          next = Next::kAfterAex;
          // A spin that AEX'd again should not re-enter the handler (that
          // would grow CSSA past NSSA); a computation that AEX'd normally
          // should get the handler check during migration.
          handler_tried = (kind != CtxKind::kEcall);
          park_ready = (kind != CtxKind::kEcall);
        }
        break;
      }
    }
  }
}

}  // namespace mig::sdk
