#include "migration/session.h"

#include "migration/page_service.h"
#include "obs/attribution.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sdk/chunk_wire.h"
#include "util/check.h"
#include "util/serde.h"

namespace mig::migration {

// ------------------------------------------------------------ EnclaveMigrator

Result<Bytes> EnclaveMigrator::prepare(sim::ThreadCtx& ctx,
                                       sdk::EnclaveHost& host,
                                       const EnclaveMigrateOptions& opts) {
  obs::Span<sim::ThreadCtx> span(ctx, "two_phase_checkpoint", "migration");
  host.begin_parking();
  sdk::ControlCmd cmd;
  cmd.type = sdk::ControlCmd::Type::kPrepareCheckpoint;
  cmd.cipher = opts.cipher;
  cmd.chunk_bytes = opts.chunk_bytes;
  cmd.seal_workers = opts.seal_workers;
  cmd.seal_batch_chunks = opts.seal_batch_chunks;
  if (opts.chunk_stream != nullptr) cmd.chunk_stream = *opts.chunk_stream;
  sdk::ControlReply reply = host.mailbox().post(ctx, cmd);
  MIG_RETURN_IF_ERROR(reply.status);
  if (obs::active()) {
    span.finish({{"checkpoint_bytes", reply.blob.size()}});
    obs::metrics().add("migration.checkpoints");
    obs::metrics().observe("migration.checkpoint_bytes", reply.blob.size());
  }
  return std::move(reply.blob);
}

Result<EnclaveMigrator::DeltaDump> EnclaveMigrator::dump_baseline(
    sim::ThreadCtx& ctx, sdk::EnclaveHost& host,
    const EnclaveMigrateOptions& opts) {
  sdk::ControlCmd cmd;
  cmd.type = sdk::ControlCmd::Type::kDumpBaseline;
  cmd.cipher = opts.cipher;
  sdk::ControlReply reply = host.mailbox().post(ctx, cmd);
  MIG_RETURN_IF_ERROR(reply.status);
  return DeltaDump{std::move(reply.blob), reply.delta};
}

Result<EnclaveMigrator::DeltaDump> EnclaveMigrator::dump_delta(
    sim::ThreadCtx& ctx, sdk::EnclaveHost& host,
    const EnclaveMigrateOptions& opts, bool final_dump) {
  // The final dump reaches the quiescent point, so workers must park there
  // just as they do under prepare()'s two-phase checkpoint.
  if (final_dump) host.begin_parking();
  sdk::ControlCmd cmd;
  cmd.type = sdk::ControlCmd::Type::kDumpDelta;
  cmd.cipher = opts.cipher;
  cmd.final_dump = final_dump;
  // Post-copy: the residual dirty pages stay behind as kRemote manifest
  // records and the enclave arms its page service for the pull phase.
  cmd.postcopy_tail = final_dump && opts.post_copy;
  sdk::ControlReply reply = host.mailbox().post(ctx, cmd);
  MIG_RETURN_IF_ERROR(reply.status);
  return DeltaDump{std::move(reply.blob), reply.delta};
}

Status EnclaveMigrator::deliver_key_to_agent(
    sim::ThreadCtx& ctx, sdk::EnclaveInstance& source_instance,
    sdk::ControlMailbox& agent_mailbox) {
  obs::Span<sim::ThreadCtx> span(ctx, "agent_key_delivery", "migration");
  auto channel = world_->make_channel();
  // Two concurrent parties: source control serves, agent control fetches.
  struct Outcome {
    sim::Event done;
    Status status = OkStatus();
    explicit Outcome(sim::Executor& e) : done(e) {}
  } serve_out(world_->executor());
  sdk::ControlMailbox* source_mailbox = source_instance.mailbox.get();
  sim::Channel* ch = channel.get();
  world_->executor().spawn("serve-key-agent", [&, source_mailbox,
                                               ch](sim::ThreadCtx& c) {
    sdk::ControlCmd serve;
    serve.type = sdk::ControlCmd::Type::kServeKey;
    serve.channel = ch->a();
    serve.allow_agent_recipient = true;
    serve_out.status = source_mailbox->post(c, serve).status;
    serve_out.done.set(c);
  });
  sdk::ControlCmd fetch;
  fetch.type = sdk::ControlCmd::Type::kAgentFetchKey;
  fetch.channel = channel->b();
  Status fetch_status = agent_mailbox.post(ctx, fetch).status;
  serve_out.done.wait(ctx);
  MIG_RETURN_IF_ERROR(serve_out.status);
  return fetch_status;
}

Status EnclaveMigrator::restore(
    sim::ThreadCtx& ctx, sdk::EnclaveHost& host, hv::Machine& source_machine,
    std::unique_ptr<sdk::EnclaveInstance>& source_instance, Bytes checkpoint,
    const EnclaveMigrateOptions& opts) {
  obs::Span<sim::ThreadCtx> span(
      ctx, "restore.enclave", "migration",
      {{"via_agent", opts.agent != nullptr}});
  // Without an agent the key can only come from the source enclave itself;
  // if a concurrent abort already disposed of it, there is nothing to do.
  if (opts.agent == nullptr && source_instance == nullptr)
    return Error(ErrorCode::kAborted, "source enclave is gone");
  // Step-1: virgin enclave from the same image, on the guest's current
  // (target) machine.
  {
    obs::Span<sim::ThreadCtx> create_span(ctx, "restore.create_enclave",
                                          "migration");
    MIG_RETURN_IF_ERROR(host.create(ctx));
  }
  // create() slept in the driver; re-check (a source-side cancel may have
  // raced us and taken the instance).
  if (opts.agent == nullptr && source_instance == nullptr)
    return Error(ErrorCode::kAborted, "source enclave is gone");

  sdk::ControlCmd restore_cmd;
  restore_cmd.type = sdk::ControlCmd::Type::kRestore;
  restore_cmd.cipher = opts.cipher;
  restore_cmd.blob = std::move(checkpoint);
  restore_cmd.allow_postcopy = opts.post_copy;

  std::unique_ptr<sim::Channel> channel;
  struct ServeOutcome {
    sim::Event done;
    Status status = OkStatus();
    explicit ServeOutcome(sim::Executor& e) : done(e) {}
  };
  std::unique_ptr<ServeOutcome> serve_out;

  if (opts.agent != nullptr) {
    // Key already parked in the agent (deliver_key_to_agent ran earlier):
    // local attestation only.
    restore_cmd.agent = opts.agent;
  } else {
    // Step-2: direct handshake with the source enclave's control thread.
    channel = world_->make_channel();
    serve_out = std::make_unique<ServeOutcome>(world_->executor());
    sdk::ControlMailbox* source_mailbox = source_instance->mailbox.get();
    sim::Channel* ch = channel.get();
    ServeOutcome* out = serve_out.get();
    world_->executor().spawn("serve-key", [source_mailbox, ch,
                                           out](sim::ThreadCtx& c) {
      sdk::ControlCmd serve;
      serve.type = sdk::ControlCmd::Type::kServeKey;
      serve.channel = ch->a();
      out->status = source_mailbox->post(c, serve).status;
      out->done.set(c);
    });
    restore_cmd.channel = channel->b();
  }

  // Step-3: decrypt + restore memory; get the pump plan.
  sdk::ControlReply restored = host.mailbox().post(ctx, restore_cmd);
  if (serve_out != nullptr) {
    serve_out->done.wait(ctx);
    MIG_RETURN_IF_ERROR(serve_out->status);
  }
  MIG_RETURN_IF_ERROR(restored.status);

  // Post-copy tail: the checkpoint promised some pages by hash only; pull
  // and verify-apply them from the retained source image before the CSSA
  // replay — kFinishRestore refuses while any are outstanding.
  if (!restored.postcopy_pending.empty()) {
    obs::Span<sim::ThreadCtx> tail_span(
        ctx, "restore.postcopy_tail", "migration",
        {{"pages", restored.postcopy_pending.size()}});
    PagePullOptions popts;
    popts.demand_batch = opts.postcopy_demand_batch;
    popts.prefetch_pages = opts.postcopy_prefetch;
    popts.reply_timeout_ns = opts.postcopy_reply_timeout_ns;

    std::unique_ptr<sim::Channel> page_ch;
    std::unique_ptr<ServeOutcome> page_serve_out;
    std::optional<sim::Channel::End> client_end;
    if (opts.page_channel != nullptr) {
      // The caller owns the link and the source-side serve loop (tests use
      // this to tamper with and sever the channel).
      client_end = *opts.page_channel;
    } else {
      if (source_instance == nullptr)
        return Error(ErrorCode::kFailedPrecondition,
                     "post-copy tail pending but the source enclave is gone");
      page_ch = world_->make_channel();
      client_end = page_ch->b();
      page_serve_out = std::make_unique<ServeOutcome>(world_->executor());
      sdk::ControlMailbox* smb = source_instance->mailbox.get();
      sim::Channel* pch = page_ch.get();
      ServeOutcome* pout = page_serve_out.get();
      uint64_t prefetch = opts.postcopy_prefetch;
      world_->executor().spawn(
          "page-service", [smb, pch, pout, prefetch](sim::ThreadCtx& c) {
            PageServiceOptions sopts;
            sopts.prefetch_pages = prefetch;
            pout->status = serve_pages(c, *smb, pch->a(), sopts).status();
            pout->done.set(c);
          });
    }
    Result<PagePullStats> pulled =
        pull_pages(ctx, host.mailbox(), *client_end, restored.postcopy_pending,
                   restored.postcopy_epoch, popts);
    if (page_serve_out != nullptr) {
      // Join the serve loop before the channel (and possibly the source
      // instance) can go away. On a failed pull it retires at its idle
      // timeout — virtual time only.
      page_serve_out->done.wait(ctx);
    }
    MIG_RETURN_IF_ERROR(pulled.status());
    if (page_serve_out != nullptr)
      MIG_RETURN_IF_ERROR(page_serve_out->status);
    tail_span.finish(
        {{"requests", pulled->requests}, {"bytes", pulled->bytes}});
  }

  // Step-3 (cont.): the untrusted library replays EENTER/AEX to pump CSSA.
  {
    obs::Span<sim::ThreadCtx> pump_span(ctx, "cssa_replay", "migration",
                                        {{"workers", restored.pumps.size()}});
    for (const sdk::PumpPlan& plan : restored.pumps) {
      MIG_RETURN_IF_ERROR(host.pump_cssa(ctx, plan.worker_idx, plan.pumps));
    }
  }
  // Step-4: in-enclave verification of the restored CSSA; SSA rebuild.
  sdk::ControlCmd finish;
  finish.type = sdk::ControlCmd::Type::kFinishRestore;
  MIG_RETURN_IF_ERROR(host.mailbox().post(ctx, finish).status);

  host.finish_migration(ctx, restored.pumps);
  obs::metrics().add("migration.restores");

  if (opts.counter_service != nullptr) {
    // Rollback defense: the migration is committed, so advance the monotonic
    // counter — every snapshot sealed before the migration becomes dead
    // ciphertext (its OPENGRANT will be refused). A failure here means the
    // restored enclave is NOT rollback-protected; the caller opted into that
    // protection, so surface it as a restore failure.
    counter_channels_.push_back(world_->make_channel());
    store::CounterBackend* ctr = opts.counter_service;
    sim::Channel* cch = counter_channels_.back().get();
    world_->executor().spawn("ctr-advance", [ctr, cch](sim::ThreadCtx& c) {
      ctr->serve_one(c, cch->a());
    });
    sdk::ControlCmd advance;
    advance.type = sdk::ControlCmd::Type::kAdvanceCounter;
    advance.channel = cch->b();
    MIG_RETURN_IF_ERROR(host.mailbox().post(ctx, advance).status);
  }

  if (opts.leave_source_alive) {
    // Fork-attack simulation: the malicious operator keeps the source
    // enclave around. Leak it deliberately; self-destroy already neutered it.
    source_instance.release();
    return OkStatus();
  }
  // The source enclave self-destroyed when it served the key; the source
  // host reclaims its EPC.
  return host.destroy_detached(ctx, source_machine,
                               std::move(source_instance));
}

Result<Bytes> EnclaveMigrator::snapshot_to_store(
    sim::ThreadCtx& ctx, sdk::EnclaveHost& host,
    store::SealedSnapshotStore& snapshots, const EnclaveMigrateOptions& opts) {
  if (opts.counter_service == nullptr)
    return Error(ErrorCode::kInvalidArgument,
                 "snapshot_to_store needs a counter service");
  obs::Span<sim::ThreadCtx> span(ctx, "store.snapshot", "store");
  counter_channels_.push_back(world_->make_channel());
  store::CounterBackend* ctr = opts.counter_service;
  sim::Channel* ch = counter_channels_.back().get();
  world_->executor().spawn("ctr-sealgrant", [ctr, ch](sim::ThreadCtx& c) {
    ctr->serve_one(c, ch->a());
  });
  sdk::ControlCmd cmd;
  cmd.type = sdk::ControlCmd::Type::kStoreSnapshot;
  cmd.channel = ch->b();
  cmd.cipher = opts.cipher;
  cmd.chunk_bytes = opts.chunk_bytes;
  cmd.seal_workers = opts.seal_workers;
  cmd.seal_batch_chunks = opts.seal_batch_chunks;
  sdk::ControlReply reply = host.mailbox().post(ctx, cmd);
  MIG_RETURN_IF_ERROR(reply.status);
  // The envelope's outer identity field addresses the head pointer. The
  // store is untrusted bookkeeping; the binding that matters is sealed
  // inside (outer fields are checked against it at restore).
  MIG_ASSIGN_OR_RETURN(sdk::SnapshotEnvelope envelope,
                       sdk::parse_snapshot_envelope(reply.blob));
  MIG_ASSIGN_OR_RETURN(Bytes id, snapshots.put(ctx, reply.blob));
  MIG_RETURN_IF_ERROR(snapshots.set_head(ctx, envelope.mrenclave, id));
  if (obs::active()) {
    span.finish(
        {{"bytes", reply.blob.size()}, {"counter", envelope.counter}});
    obs::metrics().add("migration.store_snapshots");
    obs::metrics().observe("migration.store_snapshot_bytes",
                           reply.blob.size());
  }
  return id;
}

Status EnclaveMigrator::restore_from_store(sim::ThreadCtx& ctx,
                                           sdk::EnclaveHost& host,
                                           store::SealedSnapshotStore& snapshots,
                                           ByteSpan snapshot_id,
                                           const EnclaveMigrateOptions& opts) {
  if (opts.counter_service == nullptr)
    return Error(ErrorCode::kInvalidArgument,
                 "restore_from_store needs a counter service");
  obs::Span<sim::ThreadCtx> span(ctx, "store.cold_restore", "store");
  Bytes id(snapshot_id.begin(), snapshot_id.end());
  if (id.empty()) {
    // Crash recovery: only the identity survives the crash; follow the
    // store's head pointer for it.
    crypto::Digest mre = host.image().measure();
    MIG_ASSIGN_OR_RETURN(id,
                         snapshots.head(ctx, Bytes(mre.begin(), mre.end())));
  }
  MIG_ASSIGN_OR_RETURN(Bytes blob, snapshots.get(ctx, id));

  MIG_RETURN_IF_ERROR(host.create(ctx));
  Status st = [&]() -> Status {
    counter_channels_.push_back(world_->make_channel());
    store::CounterBackend* ctr = opts.counter_service;
    sim::Channel* ch = counter_channels_.back().get();
    world_->executor().spawn("ctr-opengrant", [ctr, ch](sim::ThreadCtx& c) {
      ctr->serve_one(c, ch->a());
    });
    sdk::ControlCmd cmd;
    cmd.type = sdk::ControlCmd::Type::kStoreRestore;
    cmd.channel = ch->b();
    cmd.cipher = opts.cipher;
    cmd.blob = std::move(blob);
    sdk::ControlReply restored = host.mailbox().post(ctx, cmd);
    MIG_RETURN_IF_ERROR(restored.status);
    for (const sdk::PumpPlan& plan : restored.pumps) {
      MIG_RETURN_IF_ERROR(host.pump_cssa(ctx, plan.worker_idx, plan.pumps));
    }
    sdk::ControlCmd finish;
    finish.type = sdk::ControlCmd::Type::kFinishRestore;
    MIG_RETURN_IF_ERROR(host.mailbox().post(ctx, finish).status);
    host.finish_migration(ctx, restored.pumps);
    obs::metrics().add("migration.store_restores");
    return OkStatus();
  }();
  if (!st.ok() && host.instance() != nullptr) {
    // The virgin instance holds no state worth keeping; don't leave a
    // half-restored enclave bound to the host.
    (void)host.destroy(ctx);
  }
  return st;
}

// --------------------------------------------------------------- AgentEnclave

Result<std::unique_ptr<AgentEnclave>> AgentEnclave::create(
    sim::ThreadCtx& ctx, hv::World& world, guestos::GuestOs& host_os,
    const crypto::SigKeyPair& dev_signer, const crypto::SigKeyPair& identity,
    crypto::Drbg rng) {
  sdk::BuildInput in;
  in.program = std::make_shared<sdk::EnclaveProgram>("migration-agent");
  in.layout.num_workers = 1;  // minimal; only the control thread matters
  in.identity_override = identity;
  sdk::BuildOutput built = sdk::build_enclave_image(
      in, dev_signer, world.ias().service_pk(), rng);
  crypto::Digest agent_mrenclave = built.image.measure();

  auto agent = std::unique_ptr<AgentEnclave>(new AgentEnclave());
  guestos::Process& proc = host_os.create_process("agent");
  agent->host_ = std::make_unique<sdk::EnclaveHost>(
      host_os, proc, std::move(built), world.ias(),
      rng.fork(to_bytes("agent-host")));
  MIG_RETURN_IF_ERROR(agent->host_->create(ctx));

  agent->port_.set_target_info(sgx::TargetInfo{agent_mrenclave});
  sdk::ControlMailbox* mailbox = &agent->host_->mailbox();
  agent->port_.set_handler(
      [mailbox](sim::ThreadCtx& c,
                const sdk::AgentPort::Request& req) -> sdk::AgentPort::Response {
        sdk::ControlCmd cmd;
        cmd.type = sdk::ControlCmd::Type::kAgentServeLocal;
        cmd.agent_request = req;
        sdk::ControlReply reply = mailbox->post(c, cmd);
        sdk::AgentPort::Response resp;
        resp.status = reply.status;
        if (reply.status.ok()) {
          Reader r(reply.blob);
          resp.dh_pub = r.bytes();
          resp.enc_kmigrate = r.bytes();
          if (!r.finish().ok())
            resp.status = Error(ErrorCode::kInternal, "bad agent reply");
        }
        return resp;
      });
  return agent;
}

// --------------------------------------------------------- VmMigrationSession

VmMigrationSession::VmMigrationSession(hv::World& world, hv::Vm& vm,
                                       guestos::GuestOs& guest,
                                       hv::Machine& source,
                                       hv::Machine& target, Options opts)
    : world_(&world),
      vm_(&vm),
      guest_(&guest),
      source_(&source),
      target_(&target),
      opts_(std::move(opts)),
      migrator_(world),
      pause_event_(world.executor()) {
  // The enclave-side post-copy manifest is carved out of the final delta
  // dump, so both post-copy modes ride the incremental machinery; mirror the
  // mode into the engine's params so the VM side flips too.
  if (opts_.post_copy || opts_.hybrid) {
    opts_.incremental = true;
    opts_.precopy.post_copy = opts_.post_copy;
    opts_.precopy.hybrid = opts_.hybrid;
  }
}

VmMigrationSession::~VmMigrationSession() {
  for (auto& [proc, enclaves] : managed_) proc->clear_migration_handlers();
}

void VmMigrationSession::manage(sdk::EnclaveHost& host) {
  guestos::Process* proc = &host.process();
  auto [it, inserted] = managed_.try_emplace(proc);
  it->second.push_back(ManagedEnclave{&host, {}, nullptr});
  if (inserted) {
    proc->register_migration_handlers(
        [this, proc](sim::ThreadCtx& c) { return prepare_process(c, proc); },
        [this, proc](sim::ThreadCtx& c) { return resume_process(c, proc); },
        [this, proc](sim::ThreadCtx& c) { return cancel_process(c, proc); });
    if (opts_.incremental) {
      proc->register_delta_handlers(
          [this, proc](sim::ThreadCtx& c) {
            return delta_begin_process(c, proc);
          },
          [this, proc](sim::ThreadCtx& c) {
            return delta_round_process(c, proc);
          });
    }
  }
}

EnclaveMigrateOptions VmMigrationSession::enclave_opts() const {
  EnclaveMigrateOptions opts;
  opts.cipher = opts_.cipher;
  opts.chunk_bytes = opts_.chunk_bytes;
  opts.seal_workers = opts_.seal_workers;
  opts.counter_service = opts_.counter_service;
  opts.post_copy = opts_.post_copy || opts_.hybrid;
  return opts;
}

namespace {
void accumulate(sdk::DeltaStats& into, const sdk::DeltaStats& d) {
  into.pages_scanned += d.pages_scanned;
  into.pages_sent += d.pages_sent;
  into.pages_zero += d.pages_zero;
  into.pages_deduped += d.pages_deduped;
  into.wire_bytes += d.wire_bytes;
  into.elided_bytes += d.elided_bytes;
  into.deduped_bytes += d.deduped_bytes;
}
}  // namespace

Result<uint64_t> VmMigrationSession::delta_begin_process(sim::ThreadCtx& ctx,
                                                         guestos::Process* p) {
  EnclaveMigrateOptions opts = enclave_opts();
  uint64_t total = 0;
  for (ManagedEnclave& m : managed_[p]) {
    MIG_ASSIGN_OR_RETURN(EnclaveMigrator::DeltaDump dump,
                         migrator_.dump_baseline(ctx, *m.host, opts));
    total += dump.segment.size();
    accumulate(m.delta_stats, dump.stats);
    m.delta_segments.push_back(std::move(dump.segment));
  }
  return total;
}

Result<uint64_t> VmMigrationSession::delta_round_process(sim::ThreadCtx& ctx,
                                                         guestos::Process* p) {
  EnclaveMigrateOptions opts = enclave_opts();
  uint64_t total = 0;
  for (ManagedEnclave& m : managed_[p]) {
    MIG_ASSIGN_OR_RETURN(
        EnclaveMigrator::DeltaDump dump,
        migrator_.dump_delta(ctx, *m.host, opts, /*final_dump=*/false));
    // A round where nothing was re-dirtied produces no segment at all.
    if (dump.segment.empty()) continue;
    total += dump.segment.size();
    accumulate(m.delta_stats, dump.stats);
    m.delta_segments.push_back(std::move(dump.segment));
  }
  return total;
}

// Host-side footprint every enclave application drags along in VM memory:
// the enclave image (the target rebuilds from it), the SDK runtime/libc, the
// driver's swap area for that enclave. This is why the enclave-carrying VM
// of Fig. 10(d) ships visibly more memory than its twin.
constexpr uint64_t kEnclaveAppFootprintBytes = 512ull * 1024;

Result<uint64_t> VmMigrationSession::prepare_process(sim::ThreadCtx& ctx,
                                                     guestos::Process* p) {
  uint64_t total = 0;
  EnclaveMigrateOptions opts = enclave_opts();
  for (ManagedEnclave& m : managed_[p]) {
    if (opts_.incremental) {
      // The baseline and delta rounds already shipped; capture only the
      // residual dirty set + thread contexts at the quiescent point and
      // assemble the MGV3 container the target-side restore consumes.
      MIG_ASSIGN_OR_RETURN(
          EnclaveMigrator::DeltaDump dump,
          migrator_.dump_delta(ctx, *m.host, opts, /*final_dump=*/true));
      m.delta_residual_pages = dump.stats.pages_sent;
      accumulate(m.delta_stats, dump.stats);
      m.delta_segments.push_back(std::move(dump.segment));
      m.checkpoint = sdk::encode_delta_container(m.delta_segments);
      m.delta_segments.clear();
      if (obs::active()) {
        obs::metrics().add("migration.checkpoints");
        obs::metrics().observe("migration.checkpoint_bytes",
                               m.checkpoint.size());
      }
      // Only the final segment still has to ride the stopped-VM round; the
      // earlier segments were counted against running-VM rounds by the
      // engine's delta hooks.
      total += dump.stats.wire_bytes + kEnclaveAppFootprintBytes;
    } else {
      MIG_ASSIGN_OR_RETURN(m.checkpoint, migrator_.prepare(ctx, *m.host, opts));
      total += m.checkpoint.size() + kEnclaveAppFootprintBytes;
    }
    // The enclave is quiescent; the instance stays alive on the source for
    // the key handshake.
    m.source_instance = m.host->detach_instance();
    // §VI-D: pre-deliver the key to the target-side agent concurrently with
    // the remaining pre-copy rounds — the WAN attestation latency is hidden
    // behind the memory transfer, never on the suspend or restore path.
    if (agent_ != nullptr) {
      m.key_delivered = std::make_unique<sim::Event>(world_->executor());
      ManagedEnclave* mp = &m;
      EnclaveMigrator* migrator = &migrator_;
      sdk::ControlMailbox* agent_mb = &agent_->mailbox();
      world_->executor().spawn("agent-delivery", [mp, migrator,
                                                  agent_mb](sim::ThreadCtx& c) {
        mp->delivery_status = migrator->deliver_key_to_agent(
            c, *mp->source_instance, *agent_mb);
        mp->key_delivered->set(c);
      });
    }
  }
  return total;
}

Status VmMigrationSession::resume_process(sim::ThreadCtx& ctx,
                                          guestos::Process* p) {
  EnclaveMigrateOptions opts = enclave_opts();
  if (agent_ != nullptr) opts.agent = &agent_->port();
  for (ManagedEnclave& m : managed_[p]) {
    if (m.key_delivered != nullptr) {
      m.key_delivered->wait(ctx);
      if (!m.delivery_status.ok()) {
        obs::flight(ctx, "migration.session", "agent_delivery_failed",
                    m.delivery_status.to_string());
        cleanup_failed_restore(ctx, m);
        return m.delivery_status;
      }
    }
    if (m.fate == ManagedEnclave::Fate::kCancelled) {
      // The source rolled back before we got here (the cancel path already
      // re-attached its instance); this restore must not run.
      return Error(ErrorCode::kAborted, "migration cancelled on the source");
    }
    if (m.fate == ManagedEnclave::Fate::kCommitted) {
      // The cancel path already saw the key served and disposed of this
      // side's instances; too late to restore.
      return Error(ErrorCode::kAborted,
                   "enclave disposed after source self-destroyed");
    }
    m.restore_started = true;
    Status st = migrator_.restore(ctx, *m.host, *source_, m.source_instance,
                                  std::move(m.checkpoint), opts);
    if (!st.ok()) {
      obs::flight(ctx, "migration.session", "restore_failed", st.to_string());
      cleanup_failed_restore(ctx, m);
      return st;
    }
    m.fate = ManagedEnclave::Fate::kCommitted;
  }
  return OkStatus();
}

void VmMigrationSession::cleanup_failed_restore(sim::ThreadCtx& ctx,
                                                ManagedEnclave& m) {
  sdk::EnclaveHost& host = *m.host;
  obs::flight(ctx, "migration.session", "cleanup_failed_restore",
              m.fate == ManagedEnclave::Fate::kCancelled
                  ? "fate=cancelled (source re-attached)"
                  : "fate=committed_or_lost (teardown)");
  if (m.fate == ManagedEnclave::Fate::kCancelled) {
    // The source cancelled before the key was served: its enclave is intact
    // (Kmigrate deleted, global flag cleared) — re-attach it so the parked
    // workers continue where they left off.
    if (m.source_instance != nullptr) {
      // Restore may have bound a virgin target instance; it holds no state.
      if (host.instance() != nullptr) (void)host.destroy(ctx);
      host.adopt_instance(std::move(m.source_instance));
    }
    // else the cancel path already re-attached the source instance.
    host.end_parking(ctx);
    return;
  }
  // No rollback available: either the key was served (source self-destroyed)
  // or the VM has committed to the target and a headless source enclave is
  // useless. Tear down whatever this restore left behind; pending ecalls
  // fail with kAborted rather than waiting forever.
  if (host.instance() != nullptr) (void)host.destroy(ctx);
  if (m.source_instance != nullptr) {
    (void)host.destroy_detached(ctx, *source_, std::move(m.source_instance));
  }
  host.mark_instance_lost();
  host.end_parking(ctx);
}

Status VmMigrationSession::cancel_process(sim::ThreadCtx& ctx,
                                          guestos::Process* p) {
  obs::Span<sim::ThreadCtx> span(ctx, "cancel_migration", "migration");
  Status first = OkStatus();
  for (ManagedEnclave& m : managed_[p]) {
    if (m.fate != ManagedEnclave::Fate::kPending) continue;
    // An agent delivery in flight holds the source mailbox and channel; let
    // it settle before deciding this enclave's fate.
    if (m.key_delivered != nullptr) m.key_delivered->wait(ctx);
    sdk::EnclaveHost& host = *m.host;
    bool detached = m.source_instance != nullptr;
    sdk::ControlMailbox* mailbox = nullptr;
    if (detached) {
      mailbox = m.source_instance->mailbox.get();
    } else if (host.instance() != nullptr) {
      // Prepare failed before this enclave was detached (or never ran).
      mailbox = &host.mailbox();
    }
    if (mailbox == nullptr) {
      host.end_parking(ctx);
      continue;
    }
    // The mailbox serializes this against a concurrent kServeKey — whichever
    // gets in first decides whether the source or the target survives.
    sdk::ControlCmd cancel;
    cancel.type = sdk::ControlCmd::Type::kCancelMigration;
    Status st = mailbox->post(ctx, cancel).status;
    if (st.ok()) {
      // Kmigrate deleted before it was served: the source enclave survives
      // and any checkpoint already shipped is ciphertext without a key.
      obs::instant(ctx, "fate.cancelled", "migration");
      obs::flight(ctx, "migration.session", "fate_cancelled",
                  "Kmigrate deleted before serve; source enclave survives");
      m.fate = ManagedEnclave::Fate::kCancelled;
      m.checkpoint.clear();
      // The delta session died with the cancel (kCancelMigration disarms
      // tracking in-enclave); shipped segments are ciphertext without a key.
      m.delta_segments.clear();
      if (detached && host.instance() == nullptr && !m.restore_started) {
        host.adopt_instance(std::move(m.source_instance));
        host.end_parking(ctx);
      } else if (!detached) {
        // Never detached (the fault struck before or during prepare): the
        // instance is still attached, but workers may already be parked.
        host.end_parking(ctx);
      }
      // else: a restore is mid-flight; its key handshake will be refused
      // (the key is gone) and its failure path re-attaches the source
      // (cleanup_failed_restore).
      continue;
    }
    if (st.code() == ErrorCode::kAborted) {
      // Kmigrate already served: the source self-destroyed and the target
      // owns the enclave now (or will, if its restore is still running).
      obs::instant(ctx, "fate.committed", "migration");
      obs::flight(ctx, "migration.session", "fate_committed",
                  "Kmigrate already served; source self-destroyed");
      m.fate = ManagedEnclave::Fate::kCommitted;
      if (host.instance() == nullptr && !m.restore_started) {
        // No target instance bound and no restore in flight — nothing usable
        // remains on this side. Reclaim the dead source EPC and fail pending
        // ecalls. (A restore in flight owns this cleanup instead.)
        if (m.source_instance != nullptr) {
          (void)host.destroy_detached(ctx, *source_,
                                      std::move(m.source_instance));
        }
        host.mark_instance_lost();
        host.end_parking(ctx);
      }
      continue;
    }
    if (first.ok()) first = st;
  }
  return first;
}

Result<hv::MigrationReport> VmMigrationSession::run(sim::ThreadCtx& ctx) {
  obs::Span<sim::ThreadCtx> span(ctx, "vm_migration_session", "migration",
                                 {{"use_agent", opts_.use_agent}});
  if (opts_.use_agent) {
    MIG_CHECK_MSG(opts_.target_host_os != nullptr,
                  "use_agent requires a target host environment");
    // One agent serves all managed enclaves; they share the developer
    // identity by construction.
    MIG_CHECK_MSG(!managed_.empty(), "no enclaves managed");
    const sdk::OwnerCredentials& creds =
        managed_.begin()->second.front().host->owner_credentials();
    MIG_ASSIGN_OR_RETURN(
        agent_, AgentEnclave::create(ctx, *world_, *opts_.target_host_os,
                                     opts_.dev_signer, creds.identity,
                                     world_->fork_rng("agent")));
  }

  guest_->set_migration_target(*target_);
  // Do not let stop-and-copy happen while agent key pre-deliveries are still
  // in flight — the VM keeps running (and pre-copying) until then.
  guest_->set_stop_gate([this] {
    for (auto& [proc, enclaves] : managed_) {
      for (ManagedEnclave& m : enclaves) {
        if (m.key_delivered != nullptr && !m.key_delivered->is_set())
          return false;
      }
    }
    return true;
  });
  if (opts_.post_copy || opts_.hybrid) {
    // VM-level fail-closed: the engine calls this when the source vanishes
    // mid-pull. No enclave restore has started at that point (resume runs
    // after the VM tail drains), but any target instance a racing restore
    // bound must not survive on a partial image.
    guest_->set_postcopy_abort([this](sim::ThreadCtx& c) {
      obs::instant(c, "postcopy.session_abort", "migration");
      obs::flight(c, "migration.session", "fail_closed",
                  "phase=postcopy_pull; tearing down managed enclaves");
      for (auto& [proc, enclaves] : managed_) {
        (void)proc;
        for (ManagedEnclave& m : enclaves) {
          if (m.host->instance() == nullptr) continue;
          sdk::ControlCmd abort_cmd;
          abort_cmd.type = sdk::ControlCmd::Type::kAbortPostcopy;
          (void)m.host->mailbox().post(c, abort_cmd);
        }
      }
    });
  }
  auto channel = world_->make_channel();
  if (opts_.channel_hook) opts_.channel_hook(*channel);
  int uplink_flow = -1;
  if (opts_.uplink != nullptr) {
    // Contend for the host's shared NIC: only the bulk direction is shaped;
    // acks and restore reports return on the unshaped reverse path.
    uplink_flow = opts_.uplink->add_flow(opts_.uplink_weight);
    channel->a_to_b().attach_shared_link(opts_.uplink, uplink_flow);
  }
  // Chain the session's cooperative pause gate in front of any caller-
  // provided fleet hook, so a scheduler can both pause rounds (pause()/
  // resume()) and observe them (Options::precopy.before_round).
  hv::MigrationParams params = opts_.precopy;
  auto user_hook = params.before_round;
  params.before_round = [this, user_hook](sim::ThreadCtx& c) {
    while (paused_) {
      pause_event_.reset();
      pause_event_.wait(c);
    }
    if (user_hook) user_hook(c);
  };
  if (opts_.uplink != nullptr) {
    // The blackout's bytes ride the shared NIC's priority lane: queued
    // behind peers' pre-copy bulk, the stop-and-copy residual would inflate
    // downtime by the whole backlog. Raised after the caller's stop_begin
    // (which may block on the fleet's stop token) and cleared before the
    // caller's stop_end, so exactly the window between them is prioritized.
    sim::Pipe* bulk = &channel->a_to_b();
    auto user_stop_begin = params.stop_begin;
    params.stop_begin = [bulk, user_stop_begin](sim::ThreadCtx& c) {
      if (user_stop_begin) user_stop_begin(c);
      bulk->set_urgent(true);
    };
    auto user_stop_end = params.stop_end;
    params.stop_end = [bulk, user_stop_end](sim::ThreadCtx& c) {
      bulk->set_urgent(false);
      if (user_stop_end) user_stop_end(c);
    };
  }
  hv::LiveMigrationEngine engine(world_->cost(), params);

  struct TargetOutcome {
    sim::Event done;
    Result<hv::MigrationReport> report = Error(ErrorCode::kInternal, "unset");
    explicit TargetOutcome(sim::Executor& e) : done(e) {}
  } target_out(world_->executor());
  hv::Vm* vm = vm_;
  sim::Channel* ch = channel.get();
  world_->executor().spawn("qemu-dst", [&engine, vm, ch,
                                        &target_out](sim::ThreadCtx& c) {
    target_out.report = engine.migrate_target(c, *vm, ch->b());
    target_out.done.set(c);
  });

  Result<hv::MigrationReport> report =
      engine.migrate_source(ctx, *vm_, channel->a());
  target_out.done.wait(ctx);
  if (opts_.uplink != nullptr) {
    // Wire phase over (success or not): hand the flow's share back to the
    // still-migrating peers instead of letting the pacing heuristics age it
    // out.
    opts_.uplink->release(uplink_flow);
  }
  target_report_ = target_out.report;
  Status agent_teardown = OkStatus();
  if (agent_ != nullptr) {
    // Agents "can be destroyed after the VM resuming" — and after a failed
    // run they must not outlive the session either.
    agent_teardown = agent_->destroy(ctx);
    agent_.reset();
  }
  // The source-side error is the root cause; the target's abort is derived.
  if (!report.ok()) {
    obs::flight(ctx, "migration.session", "run_failed",
                report.status().to_string());
  } else if (!target_out.report.ok()) {
    obs::flight(ctx, "migration.session", "run_failed",
                "target: " + target_out.report.status().to_string());
  }
  MIG_RETURN_IF_ERROR(report.status());
  MIG_RETURN_IF_ERROR(target_out.report.status());
  MIG_RETURN_IF_ERROR(agent_teardown);
  if (opts_.incremental) {
    // Merge what only the control-thread replies know (the engine filled
    // delta_rounds / delta_wire_bytes) and re-publish — gauges are
    // last-write-wins, so this just completes the picture.
    for (auto& [proc, enclaves] : managed_) {
      (void)proc;
      for (const ManagedEnclave& m : enclaves) {
        report->delta_residual_pages += m.delta_residual_pages;
        report->delta_elided_bytes += m.delta_stats.elided_bytes;
        report->delta_deduped_bytes += m.delta_stats.deduped_bytes;
      }
    }
    report->publish_metrics("migration");
  }
  if (obs::tracing_enabled()) {
    // Fold the capture into the per-phase ledger and attach it, so the
    // trace-derived budget publishes alongside the engine's own numbers
    // (attr.downtime_ns must reproduce migration.downtime_ns exactly).
    Result<obs::AttributionLedger> ledger =
        obs::attribute_migration(obs::trace());
    if (ledger.ok()) {
      report->attribution = std::move(*ledger);
      report->attribution.publish();
    }
  }
  return report;
}

}  // namespace mig::migration
