// Tests for the zero-copy checkpoint data path (PR 10):
//  * golden-wire pins — the v2/v3/v4 wire bytes are frozen by hash, so a
//    refactor of the encoders (chain builders, batched sealing) can never
//    silently change what crosses the wire;
//  * chain-vs-encode equivalence — every chain_* builder flattens to exactly
//    the bytes of its encode_* counterpart;
//  * seal_batch-vs-seal_chunk and HKDF extract/expand-vs-hkdf equivalence —
//    the amortized crypto paths are bit-identical to the naive ones;
//  * SpscRing — wrap-around, full/empty, move-only payloads, and a real
//    std::thread producer/consumer race (the leg TSan exercises);
//  * BufferPool — recycle accounting, high-water, take(), free-list cap;
//  * ByteChain — inline-segment merging, exact sizes, reference semantics;
//  * golden handshake pins — every attested key-exchange message, driven
//    end to end from fixed seeds, frozen by hash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <numeric>
#include <thread>

#include "crypto/aead.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "guestos/guest_os.h"
#include "hv/machine.h"
#include "migration/owner.h"
#include "migration/session.h"
#include "quorum/quorum.h"
#include "sdk/builder.h"
#include "sdk/chunk_wire.h"
#include "sdk/host.h"
#include "store/counter_service.h"
#include "store/snapshot_store.h"
#include "util/buffer_pool.h"
#include "util/iovec.h"
#include "util/serde.h"
#include "util/spsc_ring.h"

namespace mig::sdk {
namespace {

std::string hash_hex(ByteSpan b) {
  crypto::Digest d = crypto::Sha256::hash(b);
  return hex_encode(ByteSpan(d));
}

// ---------------------------------------------------------------------------
// Golden wire bytes. These hashes were captured from the pre-zero-copy
// encoders; the chain builders (and the batched sealer feeding them) must
// reproduce them forever. A deliberate wire format change must re-pin them.
// ---------------------------------------------------------------------------

TEST(PerfPathGoldenWire, V2ChunkedCheckpointBytesArePinned) {
  crypto::Drbg rng(to_bytes("golden-wire"));
  Bytes key = rng.generate(32);
  crypto::ChunkSealer sealer(crypto::CipherAlg::kChaCha20, key);
  std::vector<Bytes> sealed;
  Bytes wire;  // concatenation of every frame, in stream order
  const size_t sizes[] = {4096, 4096, 1000};
  uint64_t total = 0;
  for (uint64_t i = 0; i < 3; ++i) {
    Bytes plain = rng.generate(sizes[i]);
    total += plain.size();
    auto s = sealer.seal_chunk(i, plain);
    ASSERT_TRUE(s.ok());
    sealed.push_back(std::move(*s));
    append(wire, encode_chunk_frame(i, sealed.back()));
  }
  auto root = sealer.integrity_root();
  ASSERT_TRUE(root.ok());
  ChunkedHeader h;
  h.alg = crypto::CipherAlg::kChaCha20;
  h.chunk_bytes = 4096;
  h.chunk_count = 3;
  h.total_bytes = total;
  append(wire, encode_end_frame(h, *root));
  append(wire, encode_chunked_checkpoint(h, sealed, *root));
  EXPECT_EQ(wire.size(), 19004u);
  EXPECT_EQ(hash_hex(wire),
            "e91cddb82523ca5350afcd96c8f3e9a824a086706cda8439c94cea20a2fd0072");
}

TEST(PerfPathGoldenWire, V3DeltaSegmentBytesArePinned) {
  crypto::Drbg rng(to_bytes("golden-wire"));
  Bytes key = rng.generate(32);
  // Burn the same rng draws the v2 pin consumes so the v3 content matches
  // the captured fixture exactly.
  rng.generate(4096);
  rng.generate(4096);
  rng.generate(1000);

  Bytes root_key = crypto::delta_root_key(key);
  crypto::Digest chain{};
  DeltaSegment seg;
  seg.alg = crypto::CipherAlg::kRc4;
  seg.index = 2;
  seg.final_segment = true;
  const uint8_t kinds[] = {0, 1, 2, 3};  // data, zero, dup, remote
  for (uint64_t r = 0; r < 4; ++r) {
    DeltaRecord rec;
    rec.page = 10 + r;
    rec.version = 5 + r;
    rec.kind = static_cast<DeltaRecordKind>(kinds[r]);
    Bytes content = rng.generate(4096);
    crypto::Digest h = crypto::Sha256::hash(content);
    if (rec.kind == DeltaRecordKind::kData)
      rec.payload = crypto::seal(
          seg.alg, crypto::delta_page_key(key, rec.page, rec.version), content);
    else if (rec.kind != DeltaRecordKind::kZero)
      rec.payload.assign(h.begin(), h.end());
    chain = crypto::delta_chain_record(root_key, chain, seg.index, rec.page,
                                       rec.version, kinds[r], h);
    seg.records.push_back(std::move(rec));
  }
  seg.trailer = crypto::seal(seg.alg, crypto::delta_final_key(key),
                             rng.generate(600));
  chain = crypto::delta_chain_close(root_key, chain, seg.index, 4, true,
                                    crypto::Sha256::hash(seg.trailer));
  seg.chain.assign(chain.begin(), chain.end());
  Bytes wire = encode_delta_segment(seg);
  EXPECT_EQ(wire.size(), 5040u);
  EXPECT_EQ(hash_hex(wire),
            "22e243384a1d6e3ba9295ed28675eaf1c79a64b24cb049d57e8ed830f90fad9b");
}

TEST(PerfPathGoldenWire, V4PageRequestReplyBytesArePinned) {
  crypto::Drbg rng(to_bytes("golden-wire"));
  Bytes key = rng.generate(32);
  // Burn the v2 + v3 draws (3 chunks, 4 pages, 600-byte trailer plaintext).
  rng.generate(4096);
  rng.generate(4096);
  rng.generate(1000);
  for (int i = 0; i < 4; ++i) rng.generate(4096);
  rng.generate(600);

  PageRequest req;
  req.epoch = 7;
  req.pages = {3, 9, 12};
  Bytes wire = encode_page_request(req);

  Bytes root_key = crypto::postcopy_root_key(key, 7);
  crypto::Digest chain{};
  PageReply reply;
  reply.epoch = 7;
  reply.first_seq = 40;
  for (uint64_t r = 0; r < 2; ++r) {
    PageReplyRecord rec;
    rec.page = 3 + r;
    rec.version = 9;
    Bytes content = rng.generate(4096);
    crypto::Digest h = crypto::Sha256::hash(content);
    rec.sealed = crypto::seal(
        crypto::CipherAlg::kRc4,
        crypto::delta_page_key(key, rec.page, rec.version), content);
    chain = crypto::delta_chain_record(root_key, chain, 40 + r, rec.page,
                                       rec.version, 0, h);
    rec.chain.assign(chain.begin(), chain.end());
    reply.records.push_back(std::move(rec));
  }
  append(wire, encode_page_reply(reply));
  append(wire, encode_page_done());
  EXPECT_EQ(wire.size(), 8513u);
  EXPECT_EQ(hash_hex(wire),
            "9f4f728887d125f1791c1c37ea9685b2d191a6367bd6a38b46432944625a6215");
}

// ---------------------------------------------------------------------------
// Golden handshake bytes. Every attested key exchange is driven end to end
// from fixed seeds — owner provisioning, the migration key, single-signer
// counter grants and refusals, a quorum grant envelope, and the agent's
// local-attestation exchange — and each message is pinned as
// "<tag>/<size>/<first 16 hex of its SHA-256>". A refactor of the handshake
// code must reproduce every one of them.
// ---------------------------------------------------------------------------

// Leading length-prefixed string of a handshake message, or its 4-byte magic
// when it has none (the MGQ1 envelope), or "bin".
std::string wire_tag(ByteSpan m) {
  auto printable = [](const std::string& s) {
    return !s.empty() && std::all_of(s.begin(), s.end(), [](char c) {
      return std::isalnum(static_cast<unsigned char>(c)) || c == ':' ||
             c == ' ' || c == '-';
    });
  };
  Reader r(m);
  std::string tag = r.str();
  if (r.ok() && tag.size() <= 48 && printable(tag)) return tag;
  std::string magic(m.begin(), m.begin() + std::min<size_t>(4, m.size()));
  return printable(magic) ? magic : "bin";
}

// Records every message sent over any channel the world creates from now
// on, both directions, in send order.
class HandshakeLog {
 public:
  explicit HandshakeLog(hv::World& world) {
    world.set_channel_interceptor([this](sim::Channel& ch) {
      ch.a_to_b().set_tap([this](Bytes& m) { note(m); });
      ch.b_to_a().set_tap([this](Bytes& m) { note(m); });
    });
  }
  // `tag` names messages that carry no tag of their own.
  void note(const Bytes& m, std::string tag = "") {
    if (tag.empty()) tag = wire_tag(m);
    pins_.push_back(tag + "/" + std::to_string(m.size()) + "/" +
                    hash_hex(m).substr(0, 16));
  }
  const std::vector<std::string>& pins() const { return pins_; }

 private:
  std::vector<std::string> pins_;
};

struct HandshakeBed {
  hv::World world{4};
  hv::Machine* source = &world.add_machine("src");
  hv::Machine* target = &world.add_machine("dst");
  hv::Vm vm{hv::VmConfig{}, hv::DirtyModel{}};
  guestos::GuestOs guest{*source, vm};
  guestos::Process* process = &guest.create_process("app");
  crypto::Drbg rng{to_bytes("golden-handshake")};
  crypto::SigKeyPair signer = [] {
    crypto::Drbg r(to_bytes("dev"));
    return crypto::sig_keygen(r);
  }();
  migration::EnclaveOwner owner{world.ias(), crypto::Drbg(to_bytes("own"))};
  store::CounterService counters{world.ias(), crypto::Drbg(to_bytes("ctr"))};
  quorum::QuorumCounterService quorum{world.executor(), world.ias(),
                                      crypto::Drbg(to_bytes("qrm")), 3};
  store::SealedSnapshotStore snapshots;
  migration::EnclaveMigrator migrator{world};

  std::unique_ptr<EnclaveHost> make_host(bool quorum_pinned = false) {
    BuildInput in;
    in.program = std::make_shared<EnclaveProgram>("golden-handshake");
    in.layout.num_workers = 1;
    if (quorum_pinned) {
      in.quorum_membership = quorum.membership_blob();
    } else {
      in.counter_service_pk = counters.public_key();
    }
    BuildOutput built = build_enclave_image(in, signer,
                                            world.ias().service_pk(), rng);
    owner.enroll(built.image.measure(), built.owner);
    return std::make_unique<EnclaveHost>(guest, *process, std::move(built),
                                         world.ias(), rng.fork(to_bytes("h")));
  }

  void provision(sim::ThreadCtx& ctx, EnclaveHost& host) {
    auto ch = world.make_channel();
    world.executor().spawn("owner", [this, c = ch.get()](sim::ThreadCtx& t) {
      owner.serve_one(t, c->b());
    });
    ControlCmd cmd;
    cmd.type = ControlCmd::Type::kProvision;
    cmd.channel = ch->a();
    ASSERT_TRUE(host.mailbox().post(ctx, cmd).status.ok());
  }

  void run(std::function<void(sim::ThreadCtx&)> fn) {
    world.executor().spawn("test", std::move(fn));
    ASSERT_TRUE(world.executor().run());
  }
};

TEST(PerfPathGoldenHandshake, OwnerProvisionAndMigrationKeyBytesArePinned) {
  HandshakeBed bed;
  HandshakeLog log(bed.world);
  auto host = bed.make_host();
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    auto blob = bed.migrator.prepare(ctx, *host, {});
    ASSERT_TRUE(blob.ok()) << blob.status().to_string();
    auto inst = host->detach_instance();
    bed.guest.set_migration_target(*bed.target);
    ASSERT_TRUE(bed.guest.resume_enclaves_after_migration(ctx).ok());
    Status st = bed.migrator.restore(ctx, *host, *bed.source, inst,
                                     std::move(*blob), {});
    ASSERT_TRUE(st.ok()) << st.to_string();
  });
  EXPECT_EQ(log.pins(),
            (std::vector<std::string>{
                "PROVISION/548/e8dcf37a82858954",
                "OWNERKEY/249/c2355b4a48896241",
                "KEYREQ/545/64d86f73d5349499",
                "KEYREP/547/f6e1b8b2aa104567"}));
}

TEST(PerfPathGoldenHandshake, CounterGrantAndRefusalBytesArePinned) {
  HandshakeBed bed;
  auto host = bed.make_host();
  std::unique_ptr<HandshakeLog> log;
  migration::EnclaveMigrateOptions opts;
  opts.counter_service = &bed.counters;
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    log = std::make_unique<HandshakeLog>(bed.world);
    // SEALGRANT -> CTRGRANT (with a key), OPENGRANT -> CTRGRANT, then the
    // same envelope again: OPENGRANT -> REFUSED (the epoch was consumed).
    auto id = bed.migrator.snapshot_to_store(ctx, *host, bed.snapshots, opts);
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    host->crash_instance(ctx);
    ASSERT_TRUE(bed.migrator
                    .restore_from_store(ctx, *host, bed.snapshots, *id, opts)
                    .ok());
    host->crash_instance(ctx);
    Status st =
        bed.migrator.restore_from_store(ctx, *host, bed.snapshots, *id, opts);
    EXPECT_EQ(st.code(), ErrorCode::kPermissionDenied) << st.to_string();
  });
  EXPECT_EQ(log->pins(),
            (std::vector<std::string>{
                "SEALGRANT/556/690ba25d4f03ef09",
                "CTRGRANT/525/66f4a1fb3b71f72f",
                "OPENGRANT/556/a5e85dc0c5d54a86",
                "CTRGRANT/525/b27efcde017b0eb0",
                "OPENGRANT/556/7255cf93b1bb8400",
                "REFUSED:stale snapshot counter/54/0f91a74df68f842b"}));
}

TEST(PerfPathGoldenHandshake, QuorumGrantEnvelopeBytesArePinned) {
  HandshakeBed bed;
  auto host = bed.make_host(/*quorum_pinned=*/true);
  std::unique_ptr<HandshakeLog> log;
  migration::EnclaveMigrateOptions opts;
  opts.counter_service = &bed.quorum;
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    log = std::make_unique<HandshakeLog>(bed.world);
    auto id = bed.migrator.snapshot_to_store(ctx, *host, bed.snapshots, opts);
    ASSERT_TRUE(id.ok()) << id.status().to_string();
  });
  EXPECT_EQ(log->pins(),
            (std::vector<std::string>{
                "SEALGRANT/556/668cd9d2d1d25c55",
                "MGQ1/2018/a23f0aea750ea5ad"}));
}

TEST(PerfPathGoldenHandshake, AgentLocalAttestationBytesArePinned) {
  HandshakeBed bed;
  hv::Vm host_vm(hv::VmConfig{.name = "target-host"}, hv::DirtyModel{});
  guestos::GuestOs host_os(*bed.target, host_vm);
  auto host = bed.make_host();
  std::unique_ptr<HandshakeLog> log;
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    auto agent = migration::AgentEnclave::create(
        ctx, bed.world, host_os, bed.signer,
        host->owner_credentials().identity, bed.world.fork_rng("agent"));
    ASSERT_TRUE(agent.ok()) << agent.status().to_string();
    log = std::make_unique<HandshakeLog>(bed.world);
    // Relay port: records the local request and response on their way
    // through the untrusted host.
    AgentPort relay;
    relay.set_target_info((*agent)->port().target_info());
    relay.set_handler([&](sim::ThreadCtx& c, const AgentRequest& req) {
      Writer w;
      w.bytes(req.report.serialize_body());
      w.raw(ByteSpan(req.report.mac));
      w.bytes(req.dh_pub);
      log->note(w.take(), "AGENTREQ");
      AgentPort::Response resp = (*agent)->port().request(c, req);
      Writer out;
      out.bytes(resp.dh_pub);
      out.bytes(resp.enc_kmigrate);
      log->note(out.take(), "AGENTREP");
      return resp;
    });
    migration::EnclaveMigrateOptions opts;
    auto blob = bed.migrator.prepare(ctx, *host, opts);
    ASSERT_TRUE(blob.ok()) << blob.status().to_string();
    auto inst = host->detach_instance();
    ASSERT_TRUE(bed.migrator
                    .deliver_key_to_agent(ctx, *inst, (*agent)->mailbox())
                    .ok());
    bed.guest.set_migration_target(*bed.target);
    ASSERT_TRUE(bed.guest.resume_enclaves_after_migration(ctx).ok());
    opts.agent = &relay;
    Status st = bed.migrator.restore(ctx, *host, *bed.source, inst,
                                     std::move(*blob), opts);
    ASSERT_TRUE(st.ok()) << st.to_string();
    ASSERT_TRUE((*agent)->destroy(ctx).ok());
  });
  EXPECT_EQ(log->pins(),
            (std::vector<std::string>{
                "KEYREQ/545/4dfe254e40405dd7",
                "KEYREP/547/d1428e2c810d66e0",
                "AGENTREQ/284/e646bd69c57d6592",
                "AGENTREP/237/63fd428ccab53a2a"}));
}

// ---------------------------------------------------------------------------
// Chain builders flatten to exactly what the classic encoders produce.
// ---------------------------------------------------------------------------

TEST(PerfPathChain, ChunkAndEndFramesMatchEncoders) {
  crypto::Drbg rng(to_bytes("chain-eq"));
  Bytes sealed = rng.generate(777);
  util::ByteChain c;
  chain_chunk_frame(c, 42, sealed);
  EXPECT_EQ(c.flatten(), encode_chunk_frame(42, sealed));
  EXPECT_EQ(c.size(), encode_chunk_frame(42, sealed).size());

  ChunkedHeader h;
  h.alg = crypto::CipherAlg::kRc4;
  h.chunk_bytes = 4096;
  h.chunk_count = 9;
  h.total_bytes = 12345;
  Bytes root = rng.generate(32);
  util::ByteChain e;
  chain_end_frame(e, h, root);
  EXPECT_EQ(e.flatten(), encode_end_frame(h, root));
}

TEST(PerfPathChain, ChunkedCheckpointMatchesEncoder) {
  crypto::Drbg rng(to_bytes("chain-eq"));
  std::vector<Bytes> sealed;
  std::vector<ByteSpan> spans;
  for (int i = 0; i < 5; ++i) sealed.push_back(rng.generate(100 + 31 * i));
  for (const Bytes& b : sealed) spans.emplace_back(b);
  ChunkedHeader h;
  h.alg = crypto::CipherAlg::kChaCha20;
  h.chunk_bytes = 256;
  h.chunk_count = sealed.size();
  h.total_bytes = 1111;
  Bytes root = rng.generate(32);
  util::ByteChain c;
  chain_chunked_checkpoint(c, h, spans, root);
  EXPECT_EQ(c.flatten(), encode_chunked_checkpoint(h, sealed, root));
}

TEST(PerfPathChain, DeltaSegmentAndPageReplyMatchEncoders) {
  crypto::Drbg rng(to_bytes("chain-eq"));
  DeltaSegment seg;
  seg.alg = crypto::CipherAlg::kRc4;
  seg.index = 3;
  seg.final_segment = true;  // only final segments carry a trailer
  for (uint64_t r = 0; r < 3; ++r) {
    DeltaRecord rec;
    rec.page = r;
    rec.version = 2 * r + 1;
    rec.kind = r == 1 ? DeltaRecordKind::kZero : DeltaRecordKind::kData;
    if (rec.kind == DeltaRecordKind::kData) rec.payload = rng.generate(300);
    seg.records.push_back(std::move(rec));
  }
  seg.trailer = rng.generate(80);
  seg.chain = rng.generate(32);
  util::ByteChain c;
  chain_delta_segment(c, seg);
  EXPECT_EQ(c.flatten(), encode_delta_segment(seg));

  PageReply reply;
  reply.epoch = 5;
  reply.first_seq = 17;
  for (uint64_t r = 0; r < 2; ++r) {
    PageReplyRecord rec;
    rec.page = 30 + r;
    rec.version = 4;
    rec.sealed = rng.generate(200);
    rec.chain = rng.generate(32);
    reply.records.push_back(std::move(rec));
  }
  util::ByteChain pc;
  chain_page_reply(pc, reply);
  EXPECT_EQ(pc.flatten(), encode_page_reply(reply));
}

// ---------------------------------------------------------------------------
// Batched crypto is bit-identical to the per-chunk path.
// ---------------------------------------------------------------------------

TEST(PerfPathSealBatch, MatchesPerChunkSealing) {
  crypto::Drbg rng(to_bytes("batch-eq"));
  Bytes key = rng.generate(32);
  std::vector<Bytes> plains;
  std::vector<ByteSpan> spans;
  for (int i = 0; i < 6; ++i) plains.push_back(rng.generate(512 + 100 * i));
  for (const Bytes& p : plains) spans.emplace_back(p);

  crypto::ChunkSealer one_by_one(crypto::CipherAlg::kChaCha20, key);
  std::vector<Bytes> expect;
  for (uint64_t i = 0; i < plains.size(); ++i) {
    auto s = one_by_one.seal_chunk(i, plains[i]);
    ASSERT_TRUE(s.ok());
    expect.push_back(std::move(*s));
  }

  crypto::ChunkSealer batched(crypto::CipherAlg::kChaCha20, key);
  // Split the same run into uneven batches starting at nonzero indices.
  auto b1 = batched.seal_batch(0, std::span<const ByteSpan>(spans).subspan(0, 2));
  auto b2 = batched.seal_batch(2, std::span<const ByteSpan>(spans).subspan(2, 4));
  ASSERT_TRUE(b1.ok() && b2.ok());
  std::vector<Bytes> got = std::move(*b1);
  for (Bytes& b : *b2) got.push_back(std::move(b));
  EXPECT_EQ(got, expect);
  EXPECT_EQ(batched.chunks_sealed(), one_by_one.chunks_sealed());

  auto r1 = one_by_one.integrity_root();
  auto r2 = batched.integrity_root();
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(*r1, *r2);

  // And the opener accepts batch-sealed chunks.
  crypto::ChunkOpener opener(key);
  for (uint64_t i = 0; i < got.size(); ++i) {
    auto p = opener.open_chunk(i, got[i]);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(*p, plains[i]);
  }
}

TEST(PerfPathHkdf, ExtractExpandSplitMatchesOneShot) {
  crypto::Drbg rng(to_bytes("hkdf-eq"));
  Bytes salt = rng.generate(13);
  Bytes ikm = rng.generate(32);
  crypto::Digest prk = crypto::hkdf_extract(salt, ikm);
  for (int len : {16, 32, 64}) {
    Bytes info = rng.generate(8);
    EXPECT_EQ(crypto::hkdf_expand(prk, info, len),
              crypto::hkdf(salt, ikm, info, len));
  }
}

// ---------------------------------------------------------------------------
// SpscRing.
// ---------------------------------------------------------------------------

TEST(PerfPathSpscRing, FillDrainAndWrapAround) {
  util::SpscRing<int> ring(4);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 4u);
  // Cycle far past capacity so head/tail wrap the index mask repeatedly.
  int next_push = 0, next_pop = 0;
  for (int round = 0; round < 10; ++round) {
    while (ring.try_push(int{next_push})) ++next_push;
    EXPECT_TRUE(ring.full());
    EXPECT_EQ(next_push - next_pop, 4);
    for (int i = 0; i < 3; ++i) {
      auto v = ring.try_pop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, next_pop++);
    }
  }
  while (auto v = ring.try_pop()) EXPECT_EQ(*v, next_pop++);
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.try_pop().has_value());
  EXPECT_EQ(next_pop, next_push);
}

TEST(PerfPathSpscRing, MoveOnlyPayloads) {
  util::SpscRing<std::unique_ptr<int>> ring(2);
  EXPECT_TRUE(ring.try_push(std::make_unique<int>(7)));
  EXPECT_TRUE(ring.try_push(std::make_unique<int>(8)));
  auto failed = std::make_unique<int>(9);
  EXPECT_FALSE(ring.try_push(std::move(failed)));
  EXPECT_NE(failed, nullptr);  // a failed push leaves the value untouched
  EXPECT_EQ(**ring.try_pop(), 7);
  EXPECT_EQ(**ring.try_pop(), 8);
}

// Real concurrent threads (not sim threads): this is the leg the TSan preset
// exists for — the acquire/release pairs in the ring are load-bearing.
TEST(PerfPathSpscRing, ConcurrentProducerConsumer) {
  constexpr uint64_t kItems = 100000;
  util::SpscRing<uint64_t> ring(64);
  uint64_t consumed_sum = 0;
  uint64_t out_of_order = 0;  // FIFO is part of the contract
  std::thread consumer([&] {
    uint64_t expect = 0;
    while (expect < kItems) {
      if (auto v = ring.try_pop()) {
        if (*v != expect) ++out_of_order;
        consumed_sum += *v;
        ++expect;
      } else {
        std::this_thread::yield();  // single-core CI: let the producer run
      }
    }
  });
  for (uint64_t i = 0; i < kItems; ++i)
    while (!ring.try_push(uint64_t{i})) std::this_thread::yield();
  consumer.join();
  EXPECT_EQ(out_of_order, 0u);
  EXPECT_EQ(consumed_sum, kItems * (kItems - 1) / 2);
  EXPECT_TRUE(ring.empty());
}

// ---------------------------------------------------------------------------
// BufferPool.
// ---------------------------------------------------------------------------

TEST(PerfPathBufferPool, RecyclesAndCountsHighWater) {
  util::BufferPool pool(128, 4);
  EXPECT_EQ(pool.buf_bytes(), 128u);
  {
    auto a = pool.acquire();
    auto b = pool.acquire();
    EXPECT_EQ((*a).size(), 128u);
    EXPECT_EQ(pool.outstanding(), 2u);
    EXPECT_EQ(pool.high_water(), 2u);
  }  // both released to the free list
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.allocations(), 2u);
  EXPECT_EQ(pool.free_count(), 2u);
  {
    auto c = pool.acquire();
    (*c)[0] = 0xab;  // dirty contents are allowed to persist across leases
    EXPECT_EQ(pool.reuses(), 1u);
    EXPECT_EQ(pool.allocations(), 2u);
  }
  auto d = pool.acquire();
  EXPECT_EQ((*d).size(), 128u);  // size reset even after a dirty lease
  EXPECT_EQ(pool.reuses(), 2u);
  EXPECT_EQ(pool.high_water(), 2u);  // never more than 2 outstanding
}

TEST(PerfPathBufferPool, TakeForfeitsRecyclingAndCapHolds) {
  util::BufferPool pool(64, 1);  // free list keeps at most one buffer
  Bytes kept;
  {
    auto a = pool.acquire();
    auto b = pool.acquire();
    auto c = pool.acquire();
    kept = a.take();  // leaves the lease; the buffer will not come back
    EXPECT_FALSE(a.valid());
    EXPECT_EQ(pool.outstanding(), 2u);
  }  // b and c release; the cap of 1 drops one of them
  EXPECT_EQ(kept.size(), 64u);
  EXPECT_EQ(pool.free_count(), 1u);
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.allocations(), 3u);
}

// ---------------------------------------------------------------------------
// ByteChain.
// ---------------------------------------------------------------------------

TEST(PerfPathByteChain, InlineWritesMatchWriterAndMergeSegments) {
  util::ByteChain c;
  c.u8(0x41);
  c.u16(0x4243);
  c.u32(0x11223344);
  c.u64(0x0102030405060708ull);
  Writer w;
  w.u8(0x41);
  w.u16(0x4243);
  w.u32(0x11223344);
  w.u64(0x0102030405060708ull);
  EXPECT_EQ(c.flatten(), w.take());
  // Consecutive inline writes coalesce into one segment.
  EXPECT_EQ(c.segments(), 1u);
}

TEST(PerfPathByteChain, RefSegmentsAreViewsNotCopies) {
  Bytes payload = to_bytes("0123456789");
  util::ByteChain c;
  c.u32(1);
  c.ref(payload);
  c.u32(2);
  EXPECT_EQ(c.segments(), 3u);
  EXPECT_EQ(c.size(), 4u + payload.size() + 4u);
  // A referenced segment sees mutations made before the flatten: the chain
  // holds a view, not a copy.
  payload[0] = 'X';
  Bytes flat = c.flatten();
  EXPECT_EQ(flat[4], 'X');

  // bytes() is Writer::bytes(): u32 length prefix + payload.
  util::ByteChain b;
  b.bytes(payload);
  Writer wb;
  wb.bytes(payload);
  EXPECT_EQ(b.flatten(), wb.take());

  // flatten_into appends after one exact reservation.
  Bytes out = to_bytes("prefix-");
  c.flatten_into(out);
  EXPECT_EQ(out.size(), 7u + c.size());
  EXPECT_EQ(ByteSpan(out).subspan(7).size(), flat.size());
}

}  // namespace
}  // namespace mig::sdk
