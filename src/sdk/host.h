// EnclaveHost: the application-facing SDK object plus the untrusted
// "SGX library" of the paper (§VI-C).
//
// One EnclaveHost manages one logical enclave of one guest process. It
//  * builds the enclave image (entry stubs, control thread TCS, embedded
//    keys — all inserted without developer involvement),
//  * creates/destroys the enclave instance through the guest SGX driver,
//  * dispatches ecalls: EENTER, run the measured entry stub, catch AEX
//    unwinds, decide ERESUME vs. handler-entry vs. park-for-migration,
//  * tracks its *belief* of each worker's CSSA (untrusted bookkeeping — the
//    enclave verifies the truth in-enclave per §IV-C),
//  * registers the process migration handlers that the guest OS invokes on
//    SIGUSR1 (Fig. 8 step 3-5) and drives restore on the target.
//
// Migration transparency for applications: a worker blocked in ecall() when
// the VM migrates simply experiences a long call — the thread parks when its
// enclave freezes on the source and continues through ERESUME on the target
// instance after restore.
#pragma once

#include <memory>
#include <vector>

#include "guestos/guest_os.h"
#include "sdk/builder.h"
#include "sdk/control.h"
#include "sdk/enclave_env.h"
#include "sdk/program.h"

namespace mig::sdk {

// A bound enclave instance on a specific machine. During migration the old
// instance outlives the VM on the source (its control thread serves the key
// exchange and then self-destroys) while the host binds a new instance on
// the target.
struct EnclaveInstance {
  hv::Machine* machine = nullptr;
  sgx::EnclaveId eid = sgx::kNoEnclave;
  std::unique_ptr<ControlMailbox> mailbox;
  std::unique_ptr<ControlDeps> deps;
  sim::ThreadId control_thread = sim::kInvalidThread;
};

class EnclaveHost {
 public:
  EnclaveHost(guestos::GuestOs& os, guestos::Process& process,
              BuildOutput built, sgx::AttestationService& ias,
              crypto::Drbg rng);
  ~EnclaveHost();

  // Builds the instance on the process's current machine and starts the
  // control thread. Blocks for the driver build (Fig. 10(a)'s per-enclave
  // rebuild cost comes from here).
  Status create(sim::ThreadCtx& ctx);
  Status destroy(sim::ThreadCtx& ctx);
  // Crash model: the enclave's EPC is wiped abruptly (power loss / VM kill)
  // — no control-thread shutdown handshake, busy TCSs ignored. The instance
  // is dropped and the host marked lost; a later create() + store restore
  // is the only way back. For crash-recovery tests.
  void crash_instance(sim::ThreadCtx& ctx);

  // Synchronous ecall on worker `worker_idx`; survives migration.
  Result<Bytes> ecall(sim::ThreadCtx& ctx, uint64_t worker_idx, uint64_t id,
                      ByteSpan args);

  // Registers an ocall handler (untrusted, lives in the SGX library). Must
  // be called before the first ecall that uses it.
  void register_ocall(uint64_t id, EnclaveEnv::OcallFn fn) {
    ocalls_[id] = std::move(fn);
  }
  const EnclaveEnv::OcallTable& ocalls() const { return ocalls_; }

  // ---- migration plumbing (used by migration::MigrationManager) ----
  ControlMailbox& mailbox();
  EnclaveInstance* instance() { return instance_.get(); }
  const Layout& layout() const { return built_.layout; }
  const sgx::EnclaveImage& image() const { return built_.image; }
  const OwnerCredentials& owner_credentials() const { return built_.owner; }
  guestos::Process& process() { return *process_; }
  guestos::GuestOs& os() { return *os_; }

  // Marks workers "parked": in-flight ecalls wait for finish_migration().
  // The done event is re-armed here so a second migration of the same
  // enclave parks correctly (it stays set after the first one finishes).
  void begin_parking() {
    parked_ = true;
    migration_done_->reset();
  }
  // Detaches the source instance (caller keeps it alive for the key
  // handshake + self-destroy) so create() can bind a target instance.
  std::unique_ptr<EnclaveInstance> detach_instance();
  // Re-binds an instance (attack simulation: the operator "resumes" the
  // source enclave after migration — which self-destroy defeats; also the
  // rollback path when a migration is cancelled before the key was served).
  void adopt_instance(std::unique_ptr<EnclaveInstance> inst) {
    MIG_CHECK(instance_ == nullptr);
    instance_ = std::move(inst);
    instance_lost_ = false;
  }
  // Records that this host's enclave is gone for good (self-destroyed after
  // serving Kmigrate, with no target instance to adopt). Pending and future
  // ecalls fail with kAborted instead of waiting for an instance forever.
  void mark_instance_lost() { instance_lost_ = true; }
  bool instance_lost() const { return instance_lost_; }
  // Tears down a detached source instance (kShutdown + EREMOVE).
  Status destroy_detached(sim::ThreadCtx& ctx, hv::Machine& machine,
                          std::unique_ptr<EnclaveInstance> inst);
  // Untrusted CSSA pumping (§IV-C Step-3): EENTER/AEX `pumps` times.
  Status pump_cssa(sim::ThreadCtx& ctx, uint64_t worker_idx, uint64_t pumps);
  // After a restore on the target: sets every worker's believed CSSA to
  // the restore's pump plan (0 for a worker the plan leaves out; whatever it
  // believed on the source is void) and releases parked workers.
  void finish_migration(sim::ThreadCtx& ctx,
                        const std::vector<PumpPlan>& pumps);
  // Releases parked workers when the enclave did not move: the migration
  // was cancelled (the source instance, and each worker's AEX frames on it,
  // survive) or the instance is lost.
  void end_parking(sim::ThreadCtx& ctx);

  // Fig. 9(b): whether the per-entry migration instrumentation is compiled
  // in (stubs, flags, CSSA recording).
  bool migration_support() const { return migration_support_; }

 private:
  struct HostThread {
    sgx::CoreState core;
    uint64_t believed_cssa = 0;  // untrusted mirror of the TCS CSSA
    Bytes retval;                // untrusted return buffer for the ecall
  };

  friend class EnclaveRuntime;

  Status spawn_control_thread(sim::ThreadCtx& ctx);
  // Entry/handler/resume bodies (the measured stubs). Implemented in
  // host.cc next to the dispatch loop that drives them.
  Result<Bytes> dispatch_loop(sim::ThreadCtx& ctx, uint64_t worker_idx,
                              uint64_t id, ByteSpan args);

  guestos::GuestOs* os_;
  guestos::Process* process_;
  sgx::AttestationService* ias_;
  BuildOutput built_;
  crypto::Drbg rng_;
  std::unique_ptr<EnclaveInstance> instance_;
  // Instances killed by crash_instance(): their control threads never exited
  // their mailbox wait, so the mailbox memory must stay alive.
  std::vector<std::unique_ptr<EnclaveInstance>> crashed_;
  std::vector<HostThread> workers_;
  bool parked_ = false;
  bool instance_lost_ = false;
  bool migration_support_ = true;
  std::unique_ptr<sim::Event> migration_done_;
  EnclaveEnv::OcallTable ocalls_;
};

}  // namespace mig::sdk
