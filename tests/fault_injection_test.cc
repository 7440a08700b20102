// Failure-matrix tests: scripted network faults (sim::FaultPlan) at every
// stage of the migration protocol, asserting the exact terminal state on
// both sides — which side keeps a runnable enclave, which error each half
// reports, and that everything terminates in bounded *virtual* time (no
// wall-clock sleeps anywhere).
//
// Engine-level cases drive LiveMigrationEngine directly over a plain VM;
// the matrix cases run the full stack (guest OS + enclaves + session) and
// probe the survivor with real ecalls.
#include <gtest/gtest.h>

#include "migration/session.h"
#include "sim/fault.h"
#include "util/serde.h"

namespace mig {
namespace {

// Wire tags of the migration protocol (mirrors live_migration.cc).
constexpr uint8_t kTagRound = 1;
constexpr uint8_t kTagStop = 3;
constexpr uint8_t kTagResumeAck = 4;

// All protocol frames are exactly 17 bytes: u8 tag + 2x u64.
bool frame_has_tag(const Bytes& m, uint8_t tag) {
  return m.size() == 17 && m[0] == tag;
}

// kRound frames carrying enclave checkpoints have a nonzero `extra` field
// (the second u64, bytes 9..16).
bool is_checkpoint_round(const Bytes& m) {
  if (!frame_has_tag(m, kTagRound)) return false;
  for (size_t i = 9; i < 17; ++i)
    if (m[i] != 0) return true;
  return false;
}

// ---------------------------------------------------------------------------
// Engine-level: plain VM, no enclaves. Small guest so rounds stay short.

struct EngineRun {
  Result<hv::MigrationReport> source = Error(ErrorCode::kInternal, "unset");
  Result<hv::MigrationReport> target = Error(ErrorCode::kInternal, "unset");
  uint64_t source_end_ns = 0;
  uint64_t target_end_ns = 0;
};

EngineRun run_engine(const std::function<void(sim::Channel&)>& inject) {
  hv::World world(4);
  world.add_machine("src");
  world.add_machine("dst");
  auto channel = world.make_channel();
  if (inject) inject(*channel);
  hv::VmConfig cfg;
  cfg.memory_mb = 64;  // round 0 is ~29 MB => ~0.9 s of virtual wire time
  hv::LiveMigrationEngine engine(world.cost(), hv::MigrationParams{});
  EngineRun out;
  world.executor().spawn("src", [&](sim::ThreadCtx& c) {
    hv::Vm vm(cfg, hv::DirtyModel{});
    out.source = engine.migrate_source(c, vm, channel->a());
    out.source_end_ns = c.now();
  });
  world.executor().spawn("dst", [&](sim::ThreadCtx& c) {
    hv::Vm vm(cfg, hv::DirtyModel{});
    out.target = engine.migrate_target(c, vm, channel->b());
    out.target_end_ns = c.now();
  });
  EXPECT_TRUE(world.executor().run());
  return out;
}

TEST(FaultEngine, SeverMidPrecopyTerminatesBothSidesInBoundedTime) {
  sim::FaultPlan plan;
  plan.sever_at_message(2);  // round 0 lands; round 1 kills the link
  EngineRun r = run_engine([&](sim::Channel& ch) { plan.install(ch.a_to_b()); });

  EXPECT_EQ(r.source.status().code(), ErrorCode::kDeadlineExceeded)
      << r.source.status().to_string();
  EXPECT_EQ(r.target.status().code(), ErrorCode::kDeadlineExceeded)
      << r.target.status().to_string();
  // Source gives up after its bounded retries; target after its quiet-link
  // timeout. Neither waits on the other (the severed link never heals).
  hv::MigrationParams p;
  EXPECT_LT(r.source_end_ns, p.target_recv_timeout_ns);
  EXPECT_LT(r.target_end_ns, 2 * p.target_recv_timeout_ns);
  EXPECT_GE(plan.faults_fired(), 1u);
}

TEST(FaultEngine, SeverAtStopTerminatesBothSides) {
  sim::FaultPlan plan;
  plan.sever_when([](const Bytes& m) { return frame_has_tag(m, kTagStop); });
  EngineRun r = run_engine([&](sim::Channel& ch) { plan.install(ch.a_to_b()); });
  EXPECT_EQ(r.source.status().code(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(r.target.status().code(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(plan.faults_fired(), 1u);  // the kStop frame itself
}

TEST(FaultEngine, DroppedRoundIsRepairedByRetransmission) {
  EngineRun clean = run_engine(nullptr);
  ASSERT_TRUE(clean.source.ok());

  sim::FaultPlan plan;
  plan.drop_message(2);  // round 1 vanishes once
  EngineRun r = run_engine([&](sim::Channel& ch) { plan.install(ch.a_to_b()); });
  ASSERT_TRUE(r.source.ok()) << r.source.status().to_string();
  ASSERT_TRUE(r.target.ok()) << r.target.status().to_string();
  EXPECT_TRUE(r.source->success);
  // The lost round was re-sent in full: strictly more bytes than a clean run.
  EXPECT_GT(r.source->transferred_bytes, clean.source->transferred_bytes);
  EXPECT_EQ(plan.faults_fired(), 1u);
}

TEST(FaultEngine, DroppedAckIsRepairedByRetransmission) {
  sim::FaultPlan plan;
  plan.drop_message(2);  // ack of round 1 vanishes; the round is re-sent
  EngineRun r = run_engine([&](sim::Channel& ch) { plan.install(ch.b_to_a()); });
  ASSERT_TRUE(r.source.ok()) << r.source.status().to_string();
  ASSERT_TRUE(r.target.ok()) << r.target.status().to_string();
  EXPECT_TRUE(r.source->success);
}

TEST(FaultEngine, DelayedAckDuplicateDoesNotDesyncTheProtocol) {
  // The ack of round 1 arrives *after* the retry deadline: the source
  // retransmits, the target acks again, and the stale duplicate must be
  // drained — not mistaken for a resume ack later.
  sim::FaultPlan plan;
  plan.delay_message(2, 3'000'000'000);  // 3 s > the ~1.4 s ack deadline
  EngineRun r = run_engine([&](sim::Channel& ch) { plan.install(ch.b_to_a()); });
  ASSERT_TRUE(r.source.ok()) << r.source.status().to_string();
  ASSERT_TRUE(r.target.ok()) << r.target.status().to_string();
  EXPECT_TRUE(r.source->success);
  EXPECT_EQ(plan.faults_fired(), 1u);
}

TEST(FaultEngine, CorruptedFrameIsRejectedAsInvalidArgument) {
  sim::FaultPlan plan;
  plan.corrupt_message(1);  // flips a bit in round 0's descriptor
  EngineRun r = run_engine([&](sim::Channel& ch) { plan.install(ch.a_to_b()); });
  // Target refuses the frame outright; its abort notice fails the source.
  EXPECT_EQ(r.target.status().code(), ErrorCode::kInvalidArgument)
      << r.target.status().to_string();
  EXPECT_EQ(r.source.status().code(), ErrorCode::kAborted)
      << r.source.status().to_string();
}

TEST(FaultEngine, MalformedRawFramesAreRejectedNotInterpreted) {
  // Regression: a truncated or oversized frame from the untrusted link must
  // yield kInvalidArgument, never be parsed as a protocol message.
  for (const Bytes& junk :
       {Bytes{0x01, 0x02, 0x03},        // truncated
        Bytes(18, 0x01),                // trailing garbage
        Bytes(17, 0x00),                // in-range length, tag 0 out of range
        Bytes{}}) {                     // empty
    hv::World world(4);
    world.add_machine("src");
    world.add_machine("dst");
    auto channel = world.make_channel();
    hv::LiveMigrationEngine engine(world.cost(), hv::MigrationParams{});
    Result<hv::MigrationReport> target = Error(ErrorCode::kInternal, "unset");
    world.executor().spawn("dst", [&](sim::ThreadCtx& c) {
      hv::Vm vm(hv::VmConfig{}, hv::DirtyModel{});
      target = engine.migrate_target(c, vm, channel->b());
    });
    Bytes reply;
    world.executor().spawn("attacker", [&](sim::ThreadCtx& c) {
      channel->a().send(c, junk);
      reply = channel->a().recv(c);  // the best-effort abort notice
    });
    ASSERT_TRUE(world.executor().run());
    EXPECT_EQ(target.status().code(), ErrorCode::kInvalidArgument)
        << "junk size " << junk.size() << ": " << target.status().to_string();
    ASSERT_EQ(reply.size(), 17u);
    EXPECT_EQ(reply[0], 6);  // kAbort
  }
}

// ---------------------------------------------------------------------------
// Full-stack failure matrix: guest OS + enclave + VmMigrationSession, one
// scripted fault per protocol stage, exact terminal state asserted via real
// ecalls against whichever side is supposed to survive.

constexpr uint64_t kEcallAdd = 1;
constexpr uint64_t kEcallGet = 3;

std::shared_ptr<sdk::EnclaveProgram> make_counter_program() {
  auto prog = std::make_shared<sdk::EnclaveProgram>("fault-counter");
  prog->add_ecall(kEcallAdd, "add", [](sdk::EnclaveEnv& env, sdk::Frame& f) {
    Bytes args = f.args();
    Reader r(args);
    uint64_t delta = r.u64();
    env.work(200);
    env.write_u64(env.layout().data_off,
                  env.read_u64(env.layout().data_off) + delta);
    return OkStatus();
  });
  prog->add_ecall(kEcallGet, "get", [](sdk::EnclaveEnv& env, sdk::Frame&) {
    Writer w;
    w.u64(env.read_u64(env.layout().data_off));
    env.set_retval(w.take());
    return OkStatus();
  });
  return prog;
}

// Which link the scripted fault attacks. The migration link is the first
// channel the session opens; the key-handshake channel (source control
// thread <-> target control thread) is the second.
enum class Via { kMigrationLink, kHandshake };
enum class Kind { kSever, kDrop, kCorrupt };
// Expected owner of the one runnable enclave afterwards.
enum class Survivor { kSource, kTarget, kNeither };

struct MatrixCase {
  const char* name;
  const char* stage;  // protocol stage being failed, for documentation
  Via via;
  bool a_to_b;       // direction of the attacked pipe
  Kind kind;
  uint8_t tag;       // migration link: first frame with this tag (0 = first
                     // message of the pipe, whatever it is)
  bool checkpoint_round;  // narrow kRound match to checkpoint-carrying rounds
  bool expect_run_ok;
  ErrorCode run_code;  // when !expect_run_ok
  Survivor survivor;
};

// gtest's default printer dumps the raw bytes, which include the two string
// pointers and so change with every process; that dump lands in the ctest
// name. Print the stage instead so the names are stable.
void PrintTo(const MatrixCase& mc, std::ostream* os) { *os << mc.stage; }

class FaultMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(FaultMatrix, TerminalStateIsExact) {
  const MatrixCase& mc = GetParam();

  hv::World world(4);
  hv::Machine& source = world.add_machine("source");
  hv::Machine& target = world.add_machine("target");
  hv::VmConfig cfg;
  cfg.memory_mb = 256;
  hv::Vm vm(cfg, hv::DirtyModel{});
  guestos::GuestOs guest(source, vm);
  crypto::Drbg rng(to_bytes("fault-bed"));
  crypto::Drbg srng(to_bytes("dev"));
  crypto::SigKeyPair dev_signer = crypto::sig_keygen(srng);
  migration::EnclaveOwner owner(world.ias(), crypto::Drbg(to_bytes("owner")));

  guestos::Process& proc = guest.create_process("app");
  sdk::BuildInput in;
  in.program = make_counter_program();
  in.layout.num_workers = 2;
  sdk::BuildOutput built =
      sdk::build_enclave_image(in, dev_signer, world.ias().service_pk(), rng);
  owner.enroll(built.image.measure(), built.owner);
  sdk::EnclaveHost host(guest, proc, std::move(built), world.ias(),
                        rng.fork(to_bytes("host")));

  // Build the fault plan once; install it on the right pipe of the right
  // channel as the session opens its links.
  sim::FaultPlan plan;
  auto matches = [mc](const Bytes& m) {
    if (mc.tag == 0) return true;  // first message, any content
    if (mc.checkpoint_round) return is_checkpoint_round(m);
    return frame_has_tag(m, mc.tag);
  };
  switch (mc.kind) {
    case Kind::kSever:
      plan.sever_when(matches);
      break;
    case Kind::kDrop:
      plan.drop_when(matches);
      break;
    case Kind::kCorrupt:
      // Offset 200 lands inside the quote of a KEYREQ; for 17-byte protocol
      // frames it clamps to the last byte. Either way: detected, rejected.
      plan.corrupt_when(matches, /*offset=*/200);
      break;
  }

  Result<hv::MigrationReport> run = Error(ErrorCode::kInternal, "unset");
  Result<hv::MigrationReport> target_report =
      Error(ErrorCode::kInternal, "unset");
  Status probe = OkStatus();
  uint64_t counter = 0;
  bool has_instance = false, on_target = false, lost = false;
  uint64_t started_ns = 0, finished_ns = 0;

  world.executor().spawn("test", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host.create(ctx).ok());
    {
      auto ch = world.make_channel();
      world.executor().spawn("owner", [&, c = ch.get()](sim::ThreadCtx& t) {
        owner.serve_one(t, c->b());
      });
      sdk::ControlCmd cmd;
      cmd.type = sdk::ControlCmd::Type::kProvision;
      cmd.channel = ch->a();
      ASSERT_TRUE(host.mailbox().post(ctx, cmd).status.ok());
    }
    Writer w;
    w.u64(42);
    ASSERT_TRUE(host.ecall(ctx, 0, kEcallAdd, w.data()).ok());

    migration::VmMigrationSession session(world, vm, guest, source, target,
                                          migration::VmMigrationSession::Options{});
    session.manage(host);

    // Channel 0 = migration link (opened by run()); channel 1 = the key
    // handshake the restore path opens between the two control threads.
    int next_channel = 0;
    int wanted = mc.via == Via::kMigrationLink ? 0 : 1;
    world.set_channel_interceptor([&](sim::Channel& ch) {
      if (next_channel++ == wanted)
        plan.install(mc.a_to_b ? ch.a_to_b() : ch.b_to_a());
    });

    started_ns = ctx.now();
    run = session.run(ctx);
    finished_ns = ctx.now();
    target_report = session.target_report();

    lost = host.instance_lost();
    has_instance = host.instance() != nullptr;
    if (has_instance) on_target = host.instance()->machine == &target;
    auto got = host.ecall(ctx, 0, kEcallGet, {});
    probe = got.status();
    if (got.ok()) {
      Reader r(*got);
      counter = r.u64();
    }
  });
  ASSERT_TRUE(world.executor().run()) << "virtual deadlock under fault";

  SCOPED_TRACE(std::string("stage: ") + mc.stage);
  EXPECT_GE(plan.faults_fired(), 1u) << "the scripted fault never fired";
  // Bounded virtual time: every abort path resolves well within the sum of
  // the protocol's own timeouts — nothing waits forever.
  EXPECT_LT(finished_ns - started_ns, 300'000'000'000ull);

  if (mc.expect_run_ok) {
    EXPECT_TRUE(run.ok()) << run.status().to_string();
  } else {
    EXPECT_EQ(run.status().code(), mc.run_code) << run.status().to_string();
  }

  switch (mc.survivor) {
    case Survivor::kSource:
      ASSERT_TRUE(has_instance);
      EXPECT_FALSE(on_target);
      EXPECT_FALSE(lost);
      ASSERT_TRUE(probe.ok()) << probe.to_string();
      EXPECT_EQ(counter, 42u);  // rollback preserved state
      EXPECT_TRUE(vm.running());
      EXPECT_FALSE(target_report.ok());
      break;
    case Survivor::kTarget:
      ASSERT_TRUE(has_instance);
      EXPECT_TRUE(on_target);
      EXPECT_FALSE(lost);
      ASSERT_TRUE(probe.ok()) << probe.to_string();
      EXPECT_EQ(counter, 42u);  // migrated state intact
      break;
    case Survivor::kNeither:
      // Post-commit failure: the source is gone (or useless) and the target
      // never became runnable. Pending work fails fast instead of hanging.
      EXPECT_FALSE(has_instance);
      EXPECT_TRUE(lost);
      EXPECT_EQ(probe.code(), ErrorCode::kAborted) << probe.to_string();
      EXPECT_FALSE(target_report.ok());
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Stages, FaultMatrix,
    ::testing::Values(
        // Link dies during plain pre-copy: nothing was frozen yet; the
        // source rolls back trivially and keeps running.
        MatrixCase{"precopy_round_sever", "pre-copy round",
                   Via::kMigrationLink, /*a_to_b=*/true, Kind::kSever,
                   kTagRound, false, false, ErrorCode::kDeadlineExceeded,
                   Survivor::kSource},
        // Link dies on the round that carries the enclave checkpoints: the
        // enclaves are parked and the key is armed — cancel must delete
        // Kmigrate, unpark the workers and keep the source runnable.
        MatrixCase{"checkpoint_round_sever", "enclave prepare",
                   Via::kMigrationLink, true, Kind::kSever, kTagRound,
                   /*checkpoint_round=*/true, false,
                   ErrorCode::kDeadlineExceeded, Survivor::kSource},
        // Link dies exactly at stop-and-copy: the VM is stopped when the
        // failure is detected; rollback must resume it on the source.
        MatrixCase{"stop_and_copy_sever", "stop-and-copy",
                   Via::kMigrationLink, true, Kind::kSever, kTagStop, false,
                   false, ErrorCode::kDeadlineExceeded, Survivor::kSource},
        // Only the resume ack vanishes: the target is live and its restore
        // report proves commit — the migration still succeeds.
        MatrixCase{"resume_ack_drop", "resume ack",
                   Via::kMigrationLink, /*a_to_b=*/false, Kind::kDrop,
                   kTagResumeAck, false, /*expect_run_ok=*/true,
                   ErrorCode::kInternal, Survivor::kTarget},
        // Attestation sabotage: the KEYREQ quote is corrupted in flight.
        // The source enclave refuses to serve, the target cannot restore,
        // and the committed VM leaves no runnable enclave anywhere.
        MatrixCase{"attestation_corrupt", "KEYREQ attestation",
                   Via::kHandshake, /*a_to_b=*/false, Kind::kCorrupt,
                   /*tag=*/0, false, false, ErrorCode::kAborted,
                   Survivor::kNeither},
        // The key request never reaches the source: both control threads
        // time out (bounded), restore fails post-commit.
        MatrixCase{"keyreq_sever", "key exchange", Via::kHandshake, false,
                   Kind::kSever, 0, false, false, ErrorCode::kAborted,
                   Survivor::kNeither},
        // Kmigrate delivery itself is lost *after* the source committed
        // (sending KEYREP self-destroys it): the strictest case — neither
        // side may come back, and nothing may hang.
        MatrixCase{"keyrep_sever", "Kmigrate delivery", Via::kHandshake,
                   /*a_to_b=*/true, Kind::kSever, 0, false, false,
                   ErrorCode::kAborted, Survivor::kNeither}),
    [](const auto& info) { return info.param.name; });

// After a cancelled migration the source must be fully reusable: a second,
// fault-free migration of the same enclave succeeds end to end.
TEST(FaultRecovery, CancelledMigrationCanBeRetriedSuccessfully) {
  hv::World world(4);
  hv::Machine& source = world.add_machine("source");
  hv::Machine& target = world.add_machine("target");
  hv::VmConfig cfg;
  cfg.memory_mb = 256;
  hv::Vm vm(cfg, hv::DirtyModel{});
  guestos::GuestOs guest(source, vm);
  crypto::Drbg rng(to_bytes("retry-bed"));
  crypto::Drbg srng(to_bytes("dev"));
  crypto::SigKeyPair dev_signer = crypto::sig_keygen(srng);
  migration::EnclaveOwner owner(world.ias(), crypto::Drbg(to_bytes("owner")));

  guestos::Process& proc = guest.create_process("app");
  sdk::BuildInput in;
  in.program = make_counter_program();
  in.layout.num_workers = 2;
  sdk::BuildOutput built =
      sdk::build_enclave_image(in, dev_signer, world.ias().service_pk(), rng);
  owner.enroll(built.image.measure(), built.owner);
  sdk::EnclaveHost host(guest, proc, std::move(built), world.ias(),
                        rng.fork(to_bytes("host")));

  world.executor().spawn("test", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host.create(ctx).ok());
    {
      auto ch = world.make_channel();
      world.executor().spawn("owner", [&, c = ch.get()](sim::ThreadCtx& t) {
        owner.serve_one(t, c->b());
      });
      sdk::ControlCmd cmd;
      cmd.type = sdk::ControlCmd::Type::kProvision;
      cmd.channel = ch->a();
      ASSERT_TRUE(host.mailbox().post(ctx, cmd).status.ok());
    }
    Writer w;
    w.u64(7);
    ASSERT_TRUE(host.ecall(ctx, 0, kEcallAdd, w.data()).ok());

    // Attempt 1: the checkpoint round is severed; the migration aborts and
    // rolls back.
    {
      sim::FaultPlan plan;
      plan.sever_when(is_checkpoint_round);
      int next_channel = 0;
      world.set_channel_interceptor([&](sim::Channel& ch) {
        if (next_channel++ == 0) plan.install(ch.a_to_b());
      });
      migration::VmMigrationSession session(
          world, vm, guest, source, target,
          migration::VmMigrationSession::Options{});
      session.manage(host);
      auto run = session.run(ctx);
      EXPECT_EQ(run.status().code(), ErrorCode::kDeadlineExceeded);
      world.set_channel_interceptor(nullptr);
    }
    // The enclave works between attempts (and the key was wiped by cancel).
    ASSERT_TRUE(host.ecall(ctx, 0, kEcallAdd, w.data()).ok());

    // Attempt 2: clean run; the enclave lands on the target with both adds.
    {
      migration::VmMigrationSession session(
          world, vm, guest, source, target,
          migration::VmMigrationSession::Options{});
      session.manage(host);
      auto run = session.run(ctx);
      ASSERT_TRUE(run.ok()) << run.status().to_string();
    }
    ASSERT_NE(host.instance(), nullptr);
    EXPECT_EQ(host.instance()->machine, &target);
    auto got = host.ecall(ctx, 0, kEcallGet, {});
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    Reader r(*got);
    EXPECT_EQ(r.u64(), 14u);
  });
  ASSERT_TRUE(world.executor().run());
}

// ---------------------------------------------------------------------------
// Store failure matrix: faults against the durable snapshot path. A torn
// write must leave no partial snapshot behind, an unreachable counter
// service must fail the restore closed (bounded, clean error, retryable),
// and a stale head served by the untrusted store must be refused by the
// counter check.

struct StoreFaultBed {
  hv::World world{4};
  hv::Machine* source = &world.add_machine("src");
  hv::Vm vm{hv::VmConfig{}, hv::DirtyModel{}};
  guestos::GuestOs guest{*source, vm};
  guestos::Process* process = &guest.create_process("app");
  crypto::Drbg rng{to_bytes("store-fault")};
  crypto::SigKeyPair signer = [] {
    crypto::Drbg r(to_bytes("dev"));
    return crypto::sig_keygen(r);
  }();
  migration::EnclaveOwner owner{world.ias(), crypto::Drbg(to_bytes("own"))};
  store::CounterService counters{world.ias(), crypto::Drbg(to_bytes("ctr"))};
  store::SealedSnapshotStore snapshots;
  migration::EnclaveMigrator migrator{world};

  std::unique_ptr<sdk::EnclaveHost> make_host() {
    sdk::BuildInput in;
    in.program = make_counter_program();
    in.layout.num_workers = 2;
    in.counter_service_pk = counters.public_key();
    sdk::BuildOutput built =
        sdk::build_enclave_image(in, signer, world.ias().service_pk(), rng);
    owner.enroll(built.image.measure(), built.owner);
    return std::make_unique<sdk::EnclaveHost>(guest, *process,
                                              std::move(built), world.ias(),
                                              rng.fork(to_bytes("h")));
  }

  migration::EnclaveMigrateOptions opts() {
    migration::EnclaveMigrateOptions o;
    o.counter_service = &counters;
    return o;
  }

  void provision(sim::ThreadCtx& ctx, sdk::EnclaveHost& host) {
    auto ch = world.make_channel();
    world.executor().spawn("owner", [this, c = ch.get()](sim::ThreadCtx& t) {
      owner.serve_one(t, c->b());
    });
    sdk::ControlCmd cmd;
    cmd.type = sdk::ControlCmd::Type::kProvision;
    cmd.channel = ch->a();
    ASSERT_TRUE(host.mailbox().post(ctx, cmd).status.ok());
  }

  void add(sim::ThreadCtx& ctx, sdk::EnclaveHost& host, uint64_t delta) {
    Writer w;
    w.u64(delta);
    ASSERT_TRUE(host.ecall(ctx, 0, kEcallAdd, w.data()).ok());
  }

  uint64_t get(sim::ThreadCtx& ctx, sdk::EnclaveHost& host) {
    auto got = host.ecall(ctx, 0, kEcallGet, {});
    if (!got.ok()) return ~0ull;
    Reader r(*got);
    return r.u64();
  }
};

TEST(StoreFault, TornWriteMidSealLeavesNoPartialSnapshot) {
  StoreFaultBed bed;
  auto host = bed.make_host();
  bed.world.executor().spawn("test", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    bed.add(ctx, *host, 5);

    bed.snapshots.fail_next_put_torn();
    auto id = bed.migrator.snapshot_to_store(ctx, *host, bed.snapshots,
                                             bed.opts());
    EXPECT_EQ(id.status().code(), ErrorCode::kUnavailable)
        << id.status().to_string();
    // Atomicity: nothing became visible — no object, no head pointer.
    EXPECT_EQ(bed.snapshots.object_count(), 0u);
    EXPECT_EQ(bed.snapshots.torn_writes(), 1u);
    crypto::Digest mre = host->image().measure();
    EXPECT_EQ(bed.snapshots.head(ctx, Bytes(mre.begin(), mre.end()))
                  .status().code(),
              ErrorCode::kNotFound);

    // The enclave is unharmed and the very next attempt commits.
    bed.add(ctx, *host, 1);
    auto retry = bed.migrator.snapshot_to_store(ctx, *host, bed.snapshots,
                                                bed.opts());
    ASSERT_TRUE(retry.ok()) << retry.status().to_string();
    EXPECT_EQ(bed.snapshots.object_count(), 1u);
  });
  ASSERT_TRUE(bed.world.executor().run());
}

TEST(StoreFault, CounterServiceDownFailsRestoreClosed) {
  StoreFaultBed bed;
  auto host = bed.make_host();
  bed.world.executor().spawn("test", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    bed.add(ctx, *host, 8);
    auto id = bed.migrator.snapshot_to_store(ctx, *host, bed.snapshots,
                                             bed.opts());
    ASSERT_TRUE(id.ok());
    host->crash_instance(ctx);

    // Service partitioned away: without an OPENGRANT there is no sealing
    // key. The restore fails closed after the bounded channel timeout and
    // leaves no half-bound instance.
    bed.counters.set_available(false);
    uint64_t t0 = ctx.now();
    Status st = bed.migrator.restore_from_store(ctx, *host, bed.snapshots,
                                                {}, bed.opts());
    EXPECT_EQ(st.code(), ErrorCode::kDeadlineExceeded) << st.to_string();
    EXPECT_LT(ctx.now() - t0, 60'000'000'000ull);
    EXPECT_EQ(host->instance(), nullptr);

    // Pure availability failure: once the service heals, the same head
    // restores fine (the epoch was never consumed).
    bed.counters.set_available(true);
    ASSERT_TRUE(bed.migrator.restore_from_store(ctx, *host, bed.snapshots,
                                                {}, bed.opts()).ok());
    EXPECT_EQ(bed.get(ctx, *host), 8u);
  });
  ASSERT_TRUE(bed.world.executor().run());
}

TEST(StoreFault, StaleHeadFromUntrustedStoreIsRefusedByCounter) {
  StoreFaultBed bed;
  auto host = bed.make_host();
  bed.world.executor().spawn("test", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    bed.add(ctx, *host, 2);
    auto a = bed.migrator.snapshot_to_store(ctx, *host, bed.snapshots,
                                            bed.opts());
    ASSERT_TRUE(a.ok());
    host->crash_instance(ctx);
    ASSERT_TRUE(bed.migrator.restore_from_store(ctx, *host, bed.snapshots,
                                                {}, bed.opts()).ok());
    bed.add(ctx, *host, 3);
    auto b = bed.migrator.snapshot_to_store(ctx, *host, bed.snapshots,
                                            bed.opts());
    ASSERT_TRUE(b.ok());
    host->crash_instance(ctx);

    // A rollback-minded store serves yesterday's head. The envelope parses,
    // the identity matches — but its counter epoch was consumed by the first
    // restore, so the service refuses the OPENGRANT.
    bed.snapshots.serve_stale_head_once();
    Status st = bed.migrator.restore_from_store(ctx, *host, bed.snapshots,
                                                {}, bed.opts());
    EXPECT_EQ(st.code(), ErrorCode::kPermissionDenied) << st.to_string();

    // The honest head still restores: latest state, nothing lost.
    ASSERT_TRUE(bed.migrator.restore_from_store(ctx, *host, bed.snapshots,
                                                {}, bed.opts()).ok());
    EXPECT_EQ(bed.get(ctx, *host), 5u);
  });
  ASSERT_TRUE(bed.world.executor().run());
}

}  // namespace
}  // namespace mig
