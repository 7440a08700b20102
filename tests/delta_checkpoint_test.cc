// Incremental checkpoint (wire format v3) tests: baseline + delta + final
// round trips across machines, zero-elision and content-dedup accounting,
// stale/reordered/tampered container rejection, the session-level
// incremental VM migration, and a seeded property sweep asserting the
// target can never accept state that differs from the source's quiescent
// state no matter how worker writes, delta rounds, aborts and retries
// interleave.
#include <gtest/gtest.h>

#include <random>

#include "migration/session.h"
#include "sdk/chunk_wire.h"
#include "util/serde.h"

namespace mig::migration {
namespace {

using sdk::ControlCmd;

constexpr uint64_t kEcallAdd = 1;
constexpr uint64_t kEcallGet = 3;
constexpr uint64_t kEcallFillHeap = 4;

// Counter in the data page plus a heap-page filler (for elision/dedup
// scenarios: pages sharing a fill byte have identical content).
std::shared_ptr<sdk::EnclaveProgram> make_delta_program() {
  auto prog = std::make_shared<sdk::EnclaveProgram>("delta-counter");
  prog->add_ecall(kEcallAdd, "add", [](sdk::EnclaveEnv& env, sdk::Frame& f) {
    Bytes args = f.args();
    Reader r(args);
    uint64_t delta = r.u64();
    uint64_t off = env.layout().data_off;
    env.work(200);
    env.write_u64(off, env.read_u64(off) + delta);
    Writer w;
    w.u64(env.read_u64(off));
    env.set_retval(w.take());
    return OkStatus();
  });
  prog->add_ecall(kEcallGet, "get", [](sdk::EnclaveEnv& env, sdk::Frame&) {
    Writer w;
    w.u64(env.read_u64(env.layout().data_off));
    env.set_retval(w.take());
    return OkStatus();
  });
  prog->add_ecall(kEcallFillHeap, "fill_heap",
                  [](sdk::EnclaveEnv& env, sdk::Frame& f) {
    Bytes args = f.args();
    Reader r(args);
    uint64_t page = r.u64();
    uint8_t fill = static_cast<uint8_t>(r.u64());
    env.work(500);
    env.write_bytes(env.layout().heap_off + page * sgx::kPageSize,
                    Bytes(sgx::kPageSize, fill));
    return OkStatus();
  });
  return prog;
}

struct DeltaBed {
  hv::World world;
  hv::Machine* source;
  hv::Machine* target;
  hv::Vm vm;
  guestos::GuestOs guest;
  guestos::Process* process;
  crypto::Drbg rng{to_bytes("delta-bed")};
  crypto::SigKeyPair dev_signer;
  EnclaveOwner owner;

  DeltaBed()
      : world(4),
        source(&world.add_machine("source")),
        target(&world.add_machine("target")),
        vm(hv::VmConfig{}, hv::DirtyModel{}),
        guest(*source, vm),
        process(&guest.create_process("app")),
        owner(world.ias(), crypto::Drbg(to_bytes("owner"))) {
    crypto::Drbg srng(to_bytes("dev-signer"));
    dev_signer = crypto::sig_keygen(srng);
  }

  std::unique_ptr<sdk::EnclaveHost> make_host(uint64_t heap_pages = 4) {
    sdk::BuildInput in;
    in.program = make_delta_program();
    in.layout.num_workers = 2;
    in.layout.heap_pages = heap_pages;
    sdk::BuildOutput built = sdk::build_enclave_image(
        in, dev_signer, world.ias().service_pk(), rng);
    owner.enroll(built.image.measure(), built.owner);
    return std::make_unique<sdk::EnclaveHost>(
        guest, *process, std::move(built), world.ias(),
        rng.fork(to_bytes("host")));
  }

  void provision(sim::ThreadCtx& ctx, sdk::EnclaveHost& host) {
    auto channel = world.make_channel();
    world.executor().spawn("owner", [this, ch = channel.get()](
                                        sim::ThreadCtx& c) {
      owner.serve_one(c, ch->b());
    });
    ControlCmd cmd;
    cmd.type = ControlCmd::Type::kProvision;
    cmd.channel = channel->a();
    ASSERT_TRUE(host.mailbox().post(ctx, cmd).status.ok());
  }

  void run(std::function<void(sim::ThreadCtx&)> fn) {
    world.executor().spawn("test", std::move(fn));
    ASSERT_TRUE(world.executor().run());
  }
};

uint64_t add(sim::ThreadCtx& ctx, sdk::EnclaveHost& host, uint64_t delta) {
  Writer w;
  w.u64(delta);
  auto r = host.ecall(ctx, 0, kEcallAdd, w.data());
  EXPECT_TRUE(r.ok()) << r.status().to_string();
  if (!r.ok()) return 0;
  Reader rd(*r);
  return rd.u64();
}

void fill_heap(sim::ThreadCtx& ctx, sdk::EnclaveHost& host, uint64_t page,
               uint8_t fill) {
  Writer w;
  w.u64(page);
  w.u64(fill);
  ASSERT_TRUE(host.ecall(ctx, 1, kEcallFillHeap, w.data()).ok());
}

// ---- source-side dump behavior ---------------------------------------------

TEST(DeltaCheckpoint, RoundTripPreservesStateAcrossMachines) {
  DeltaBed bed;
  auto host = bed.make_host();
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    add(ctx, *host, 1234);

    EnclaveMigrator migrator(bed.world);
    EnclaveMigrateOptions opts;
    std::vector<Bytes> segments;

    auto base = migrator.dump_baseline(ctx, *host, opts);
    ASSERT_TRUE(base.ok()) << base.status().to_string();
    EXPECT_GT(base->stats.pages_sent, 0u);
    // Baseline covers every checkpointable page: meta + data + heap.
    EXPECT_EQ(base->stats.pages_scanned, base->stats.pages_sent);
    segments.push_back(std::move(base->segment));

    // The workers keep running between dumps; their writes re-dirty pages.
    add(ctx, *host, 100);
    auto d1 = migrator.dump_delta(ctx, *host, opts, /*final_dump=*/false);
    ASSERT_TRUE(d1.ok()) << d1.status().to_string();
    EXPECT_FALSE(d1->segment.empty());
    EXPECT_GT(d1->stats.pages_sent, 0u);
    // The delta re-ships only what moved, never the whole page set.
    EXPECT_LT(d1->stats.pages_sent, base->stats.pages_sent);
    segments.push_back(std::move(d1->segment));

    add(ctx, *host, 6);
    auto fin = migrator.dump_delta(ctx, *host, opts, /*final_dump=*/true);
    ASSERT_TRUE(fin.ok()) << fin.status().to_string();
    EXPECT_LT(fin->stats.pages_sent, base->stats.pages_sent);
    segments.push_back(std::move(fin->segment));

    Bytes container = sdk::encode_delta_container(segments);
    ASSERT_TRUE(sdk::is_delta_checkpoint(container));

    auto source_inst = host->detach_instance();
    sgx::EnclaveId source_eid = source_inst->eid;
    bed.guest.set_migration_target(*bed.target);
    ASSERT_TRUE(bed.guest.resume_enclaves_after_migration(ctx).ok());
    Status st = migrator.restore(ctx, *host, *bed.source, source_inst,
                                 std::move(container), opts);
    ASSERT_TRUE(st.ok()) << st.to_string();

    EXPECT_EQ(host->instance()->machine, bed.target);
    auto got = host->ecall(ctx, 0, kEcallGet, {});
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    Reader rd(*got);
    EXPECT_EQ(rd.u64(), 1340u);
    EXPECT_FALSE(bed.source->hw().enclave_exists(source_eid));
  });
}

TEST(DeltaCheckpoint, QuietDeltaShipsNothing) {
  DeltaBed bed;
  auto host = bed.make_host();
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    EnclaveMigrator migrator(bed.world);
    EnclaveMigrateOptions opts;
    ASSERT_TRUE(migrator.dump_baseline(ctx, *host, opts).ok());
    // Nothing was written since the baseline: no segment at all goes on the
    // wire (and the chain/segment counter stay untouched).
    auto quiet = migrator.dump_delta(ctx, *host, opts, /*final_dump=*/false);
    ASSERT_TRUE(quiet.ok()) << quiet.status().to_string();
    EXPECT_TRUE(quiet->segment.empty());
    EXPECT_EQ(quiet->stats.pages_sent, 0u);
    EXPECT_EQ(quiet->stats.wire_bytes, 0u);
    // Cleanup so the executor can drain: cancel the session.
    ControlCmd cancel;
    cancel.type = ControlCmd::Type::kCancelMigration;
    ASSERT_TRUE(host->mailbox().post(ctx, cancel).status.ok());
  });
}

TEST(DeltaCheckpoint, ZeroElisionAndDedupShrinkTheWire) {
  DeltaBed bed;
  auto host = bed.make_host(/*heap_pages=*/8);
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    EnclaveMigrator migrator(bed.world);
    EnclaveMigrateOptions opts;

    // The heap starts zeroed: the baseline elides all 8 heap pages.
    auto base = migrator.dump_baseline(ctx, *host, opts);
    ASSERT_TRUE(base.ok()) << base.status().to_string();
    EXPECT_GE(base->stats.pages_zero, 8u);
    EXPECT_GE(base->stats.elided_bytes, 8 * sgx::kPageSize);

    // Two heap pages get identical content: the first ships as data, the
    // second as a 32-byte dup reference.
    fill_heap(ctx, *host, 0, 0x7f);
    fill_heap(ctx, *host, 1, 0x7f);
    auto d1 = migrator.dump_delta(ctx, *host, opts, /*final_dump=*/false);
    ASSERT_TRUE(d1.ok()) << d1.status().to_string();
    EXPECT_GE(d1->stats.pages_deduped, 1u);
    EXPECT_GE(d1->stats.deduped_bytes, sgx::kPageSize);

    // Dedup and elision must reconstruct correctly on the target.
    add(ctx, *host, 42);
    std::vector<Bytes> segments;
    segments.push_back(std::move(base->segment));
    segments.push_back(std::move(d1->segment));
    auto fin = migrator.dump_delta(ctx, *host, opts, /*final_dump=*/true);
    ASSERT_TRUE(fin.ok());
    segments.push_back(std::move(fin->segment));

    auto source_inst = host->detach_instance();
    bed.guest.set_migration_target(*bed.target);
    ASSERT_TRUE(bed.guest.resume_enclaves_after_migration(ctx).ok());
    ASSERT_TRUE(migrator.restore(ctx, *host, *bed.source, source_inst,
                                 sdk::encode_delta_container(segments), opts)
                    .ok());
    auto got = host->ecall(ctx, 0, kEcallGet, {});
    ASSERT_TRUE(got.ok());
    Reader rd(*got);
    EXPECT_EQ(rd.u64(), 42u);
  });
}

TEST(DeltaCheckpoint, DeltaWithoutBaselineIsRefused) {
  DeltaBed bed;
  auto host = bed.make_host();
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    ControlCmd cmd;
    cmd.type = ControlCmd::Type::kDumpDelta;
    sdk::ControlReply reply = host->mailbox().post(ctx, cmd);
    EXPECT_EQ(reply.status.code(), ErrorCode::kFailedPrecondition);
  });
}

// ---- target-side rejection --------------------------------------------------

// Builds an honest three-segment incremental checkpoint, lets `mutate`
// corrupt the segment list, and returns the target-side restore status.
Status restore_mutated(
    const std::function<void(std::vector<Bytes>&)>& mutate) {
  DeltaBed bed;
  auto host = bed.make_host();
  Status restore_status = OkStatus();
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    add(ctx, *host, 11);
    EnclaveMigrator migrator(bed.world);
    EnclaveMigrateOptions opts;
    std::vector<Bytes> segments;
    auto base = migrator.dump_baseline(ctx, *host, opts);
    ASSERT_TRUE(base.ok());
    segments.push_back(std::move(base->segment));
    add(ctx, *host, 22);
    auto d1 = migrator.dump_delta(ctx, *host, opts, /*final_dump=*/false);
    ASSERT_TRUE(d1.ok());
    segments.push_back(std::move(d1->segment));
    auto fin = migrator.dump_delta(ctx, *host, opts, /*final_dump=*/true);
    ASSERT_TRUE(fin.ok());
    segments.push_back(std::move(fin->segment));

    mutate(segments);
    Bytes container = sdk::encode_delta_container(segments);

    auto source_inst = host->detach_instance();
    bed.guest.set_migration_target(*bed.target);
    ASSERT_TRUE(bed.guest.resume_enclaves_after_migration(ctx).ok());
    restore_status = migrator.restore(ctx, *host, *bed.source, source_inst,
                                      std::move(container), opts);
  });
  return restore_status;
}

TEST(DeltaCheckpoint, ReorderedSegmentsAreRejected) {
  Status st = restore_mutated([](std::vector<Bytes>& segs) {
    std::swap(segs[0], segs[1]);
  });
  EXPECT_FALSE(st.ok());
}

TEST(DeltaCheckpoint, ReplayedSegmentIsRejected) {
  Status st = restore_mutated([](std::vector<Bytes>& segs) {
    segs.insert(segs.begin() + 1, segs[1]);  // delta round played twice
  });
  EXPECT_FALSE(st.ok());
}

TEST(DeltaCheckpoint, TruncatedContainerIsRejected) {
  Status st = restore_mutated([](std::vector<Bytes>& segs) {
    segs.pop_back();  // the final (quiescent) segment never arrives
  });
  EXPECT_FALSE(st.ok());
}

TEST(DeltaCheckpoint, TamperedRecordIsRejected) {
  Status st = restore_mutated([](std::vector<Bytes>& segs) {
    segs[0][segs[0].size() / 2] ^= 0x20;
  });
  EXPECT_FALSE(st.ok());
}

// ---- session-level incremental migration ------------------------------------

TEST(DeltaSession, IncrementalVmMigrationEndToEnd) {
  DeltaBed bed;
  auto host = bed.make_host();
  Result<hv::MigrationReport> report = Error(ErrorCode::kInternal, "unset");
  uint64_t final_counter = 0;
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);

    // A live workload dirtying enclave pages throughout pre-copy.
    bed.process->spawn_thread("pump", [&](sim::ThreadCtx& wctx) {
      for (int i = 0; i < 2000; ++i) {
        Writer w;
        w.u64(1);
        if (!host->ecall(wctx, 0, kEcallAdd, w.data()).ok()) break;
        wctx.sleep(1'000'000);
      }
    });

    VmMigrationSession::Options opts;
    opts.incremental = true;
    VmMigrationSession session(bed.world, bed.vm, bed.guest, *bed.source,
                               *bed.target, opts);
    session.manage(*host);
    ctx.sleep(10'000'000);
    report = session.run(ctx);
    ASSERT_TRUE(report.ok()) << report.status().to_string();

    EXPECT_EQ(host->instance()->machine, bed.target);
    auto got = host->ecall(ctx, 0, kEcallGet, {});
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    Reader rd(*got);
    final_counter = rd.u64();
  });
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->success);
  // The baseline rode a running-VM round; the stop-phase residual is small.
  EXPECT_GE(report->delta_rounds, 1u);
  EXPECT_GT(report->delta_wire_bytes, 0u);
  EXPECT_GT(report->delta_residual_pages, 0u);
  EXPECT_GT(final_counter, 10u);
}

// ---- property sweep ---------------------------------------------------------

// Random interleavings of worker writes, delta rounds, retried (no-op)
// rounds, and abort+restart must never let the target accept a checkpoint
// that differs from the source's quiescent state. 10 seeds, fully
// deterministic in virtual time.
TEST(DeltaProperty, InterleavingsNeverDivergeFromQuiescentState) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937_64 prng(seed);
    DeltaBed bed;
    auto host = bed.make_host();
    bed.run([&](sim::ThreadCtx& ctx) {
      ASSERT_TRUE(host->create(ctx).ok());
      bed.provision(ctx, *host);
      EnclaveMigrator migrator(bed.world);
      EnclaveMigrateOptions opts;

      uint64_t expected = 0;
      std::vector<Bytes> segments;
      auto baseline = [&]() {
        segments.clear();
        auto base = migrator.dump_baseline(ctx, *host, opts);
        ASSERT_TRUE(base.ok()) << base.status().to_string();
        segments.push_back(std::move(base->segment));
      };
      baseline();

      uint64_t ops = 4 + prng() % 8;
      for (uint64_t i = 0; i < ops; ++i) {
        switch (prng() % 4) {
          case 0: {  // worker writes
            uint64_t d = 1 + prng() % 1000;
            expected += d;
            add(ctx, *host, d);
            if (prng() % 2 == 0)
              fill_heap(ctx, *host, prng() % 4,
                        static_cast<uint8_t>(prng() % 256));
            break;
          }
          case 1: {  // delta round
            auto d = migrator.dump_delta(ctx, *host, opts, false);
            ASSERT_TRUE(d.ok()) << d.status().to_string();
            if (!d->segment.empty())
              segments.push_back(std::move(d->segment));
            break;
          }
          case 2: {  // "retry": an immediate re-dump ships nothing new twice
            auto d1 = migrator.dump_delta(ctx, *host, opts, false);
            ASSERT_TRUE(d1.ok());
            if (!d1->segment.empty())
              segments.push_back(std::move(d1->segment));
            auto d2 = migrator.dump_delta(ctx, *host, opts, false);
            ASSERT_TRUE(d2.ok());
            EXPECT_TRUE(d2->segment.empty())
                << "re-dump with no writes in between shipped pages";
            break;
          }
          case 3: {  // abort + restart: cancel kills the session, re-baseline
            ControlCmd cancel;
            cancel.type = ControlCmd::Type::kCancelMigration;
            ASSERT_TRUE(host->mailbox().post(ctx, cancel).status.ok());
            host->finish_migration(ctx, {});
            baseline();
            break;
          }
        }
      }

      auto fin = migrator.dump_delta(ctx, *host, opts, /*final_dump=*/true);
      ASSERT_TRUE(fin.ok()) << fin.status().to_string();
      segments.push_back(std::move(fin->segment));

      auto source_inst = host->detach_instance();
      bed.guest.set_migration_target(*bed.target);
      ASSERT_TRUE(bed.guest.resume_enclaves_after_migration(ctx).ok());
      Status st = migrator.restore(ctx, *host, *bed.source, source_inst,
                                   sdk::encode_delta_container(segments),
                                   opts);
      ASSERT_TRUE(st.ok()) << st.to_string();
      auto got = host->ecall(ctx, 0, kEcallGet, {});
      ASSERT_TRUE(got.ok()) << got.status().to_string();
      Reader rd(*got);
      // The restored counter is exactly the source's quiescent value.
      EXPECT_EQ(rd.u64(), expected);
    });
  }
}

// ---- defensive decoder hardening (MGS1 / MGV3 / MGC2) -------------------------
// Pure wire-level negatives: hostile blobs must be refused by the parse
// alone, before any key material or enclave state is involved. Each test
// first round-trips a well-formed blob as a positive control so a framing
// mistake in the hand-built hostile variant cannot pass as a rejection.

TEST(ChunkWireNegative, ZeroLengthBlobIsRefusedByEveryDecoder) {
  Bytes empty;
  EXPECT_FALSE(sdk::is_chunked_checkpoint(empty));
  EXPECT_FALSE(sdk::is_snapshot_envelope(empty));
  EXPECT_FALSE(sdk::is_delta_segment(empty));
  EXPECT_FALSE(sdk::is_delta_checkpoint(empty));
  EXPECT_FALSE(sdk::is_page_frame(empty));
  EXPECT_FALSE(sdk::parse_chunked_checkpoint(empty).ok());
  EXPECT_FALSE(sdk::parse_snapshot_envelope(empty).ok());
  EXPECT_FALSE(sdk::parse_delta_segment(empty).ok());
  EXPECT_FALSE(sdk::parse_delta_container(empty).ok());
  EXPECT_FALSE(sdk::parse_page_request(empty).ok());
  EXPECT_FALSE(sdk::parse_page_reply(empty).ok());
}

TEST(ChunkWireNegative, CounterProtocolDecodersRefuseHostileFraming) {
  // Positive controls first: a well-formed request and grant round-trip.
  Writer rq;
  rq.str("OPENGRANT");
  rq.u64(7);
  rq.bytes(Bytes(128, 0x42));
  rq.bytes(to_bytes("quote-bytes"));
  Bytes request = rq.take();
  auto req = sdk::parse_counter_request(request);
  ASSERT_TRUE(req.ok()) << req.status().to_string();
  EXPECT_EQ(req->verb, "OPENGRANT");
  EXPECT_EQ(req->counter_arg, 7u);
  EXPECT_EQ(req->dh_pub, Bytes(128, 0x42));
  EXPECT_EQ(req->quote, to_bytes("quote-bytes"));

  sdk::CounterGrantReply grant{"CTRGRANT", 8, Bytes(128, 0x17),
                               to_bytes("sealed"), to_bytes("sig")};
  Bytes reply = sdk::encode_counter_grant(grant);
  auto got = sdk::parse_counter_grant(reply);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(sdk::encode_counter_grant(*got), reply);
  auto refusal = sdk::parse_counter_grant(sdk::encode_counter_refusal("no"));
  ASSERT_TRUE(refusal.ok());
  EXPECT_EQ(refusal->tag, "REFUSED:no");
  EXPECT_EQ(refusal->counter, 0u);
  EXPECT_TRUE(refusal->enc_key.empty());

  // Zero length.
  Bytes empty;
  EXPECT_FALSE(sdk::parse_counter_request(empty).ok());
  EXPECT_FALSE(sdk::parse_counter_grant(empty).ok());
  // Truncation at every length short of the whole message.
  for (size_t n = 0; n < request.size(); ++n)
    EXPECT_FALSE(sdk::parse_counter_request(ByteSpan(request).first(n)).ok())
        << "request truncated to " << n;
  for (size_t n = 0; n < reply.size(); ++n)
    EXPECT_FALSE(sdk::parse_counter_grant(ByteSpan(reply).first(n)).ok())
        << "reply truncated to " << n;
  // Trailing bytes.
  Bytes long_request = request;
  long_request.push_back(0);
  auto trailing_req = sdk::parse_counter_request(long_request);
  EXPECT_EQ(trailing_req.status().code(), ErrorCode::kInvalidArgument);
  Bytes long_reply = reply;
  long_reply.push_back(0);
  auto trailing_reply = sdk::parse_counter_grant(long_reply);
  EXPECT_EQ(trailing_reply.status().code(), ErrorCode::kInvalidArgument);
}

TEST(ChunkWireNegative, DuplicateChunkIndexIsRefused) {
  sdk::ChunkedHeader h;
  h.chunk_bytes = 16;
  h.chunk_count = 2;
  h.total_bytes = 32;
  std::vector<Bytes> chunks = {to_bytes("sealed-chunk-zero"),
                               to_bytes("sealed-chunk-one!")};
  Bytes root(32, 0xab);
  ASSERT_TRUE(sdk::parse_chunked_checkpoint(
                  sdk::encode_chunked_checkpoint(h, chunks, root))
                  .ok());

  // Same layout, but the second record claims index 0 again: a spliced blob
  // trying to make one ciphertext count twice.
  Writer w;
  w.raw(to_bytes("MGC2"));
  w.u8(static_cast<uint8_t>(h.alg));
  w.u64(h.chunk_bytes);
  w.u64(h.chunk_count);
  w.u64(h.total_bytes);
  w.u64(0);
  w.bytes(chunks[0]);
  w.u64(0);  // duplicate index, should be 1
  w.bytes(chunks[1]);
  w.raw(root);
  auto dup = sdk::parse_chunked_checkpoint(w.data());
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), ErrorCode::kIntegrityViolation);
  EXPECT_NE(dup.status().message().find("bad chunk record 1"),
            std::string::npos)
      << dup.status().message();
}

TEST(ChunkWireNegative, SegmentCountOffByOneIsRefusedBothWays) {
  Bytes s0 = to_bytes("segment-zero-bytes");
  Bytes s1 = to_bytes("segment-one-bytes!");
  ASSERT_TRUE(
      sdk::parse_delta_container(sdk::encode_delta_container({s0, s1})).ok());

  // Header promises one segment MORE than the body carries.
  Writer over;
  over.raw(to_bytes("MGV3"));
  over.u64(3);
  over.bytes(s0);
  over.bytes(s1);
  auto o = sdk::parse_delta_container(over.data());
  ASSERT_FALSE(o.ok());
  EXPECT_EQ(o.status().code(), ErrorCode::kIntegrityViolation);
  EXPECT_NE(o.status().message().find("truncated at segment 2"),
            std::string::npos)
      << o.status().message();

  // Header promises one segment LESS: the extra one is trailing garbage a
  // lazy parser would silently drop (and with it, the final segment).
  Writer under;
  under.raw(to_bytes("MGV3"));
  under.u64(1);
  under.bytes(s0);
  under.bytes(s1);
  EXPECT_FALSE(sdk::parse_delta_container(under.data()).ok());

  // Zero segments is not a checkpoint at all.
  Writer zero;
  zero.raw(to_bytes("MGV3"));
  zero.u64(0);
  auto z = sdk::parse_delta_container(zero.data());
  ASSERT_FALSE(z.ok());
  EXPECT_NE(z.status().message().find("absurd segment count"),
            std::string::npos)
      << z.status().message();
}

TEST(ChunkWireNegative, SnapshotEnvelopeNegatives) {
  sdk::SnapshotEnvelope env;
  env.mrenclave = Bytes(32, 0x5c);
  env.counter = 7;
  env.inner = to_bytes("sealed-checkpoint-bytes");
  Bytes good = sdk::encode_snapshot_envelope(env);
  ASSERT_TRUE(sdk::parse_snapshot_envelope(good).ok());

  // Counter 0 is never granted by the counter service, so an envelope
  // claiming it is hostile by construction (the encoder refuses to even
  // build one — hand-craft it).
  Writer w;
  w.raw(to_bytes("MGS1"));
  w.raw(env.mrenclave);
  w.u64(0);
  w.bytes(env.inner);
  auto zero = sdk::parse_snapshot_envelope(w.data());
  ASSERT_FALSE(zero.ok());
  EXPECT_NE(zero.status().message().find("counter 0"), std::string::npos)
      << zero.status().message();

  Bytes none;
  Writer e;
  e.raw(to_bytes("MGS1"));
  e.raw(env.mrenclave);
  e.u64(7);
  e.bytes(none);
  auto empty_inner = sdk::parse_snapshot_envelope(e.data());
  ASSERT_FALSE(empty_inner.ok());
  EXPECT_NE(empty_inner.status().message().find("empty sealed payload"),
            std::string::npos)
      << empty_inner.status().message();

  Bytes cut = good;
  cut.pop_back();
  EXPECT_FALSE(sdk::parse_snapshot_envelope(cut).ok());
  Bytes extra = good;
  extra.push_back(0);
  EXPECT_FALSE(sdk::parse_snapshot_envelope(extra).ok());
}

}  // namespace
}  // namespace mig::migration
