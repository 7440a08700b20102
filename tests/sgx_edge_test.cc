// Additional SGX-model edge cases: build-time validation, paging corner
// cases, attestation misuse, extension-instruction lifecycle errors, and the
// attested Diffie-Hellman handshake module.
#include <gtest/gtest.h>

#include "crypto/drbg.h"
#include "sgx/attestation.h"
#include "sgx/attested_dh.h"
#include "sgx/hardware.h"
#include "sgx/image.h"
#include "util/serde.h"

namespace mig::sgx {
namespace {

using crypto::Drbg;
constexpr uint64_t kBase = 0x10000000;

struct EdgeBed {
  sim::Executor exec{2};
  SgxHardware hw{exec, sim::default_cost_model(), Drbg(to_bytes("seed")),
                 HardwareConfig{.machine_name = "m", .epc_pages = 64,
                                .migration_ext = true}};
  void run(std::function<void(sim::ThreadCtx&)> fn) {
    exec.spawn("t", std::move(fn));
    ASSERT_TRUE(exec.run());
  }
};

TEST(SgxEdge, EcreateValidatesAlignmentAndSize) {
  EdgeBed bed;
  bed.run([&](sim::ThreadCtx& ctx) {
    EXPECT_FALSE(bed.hw.ecreate(ctx, kBase + 1, kPageSize, 1, 1).ok());
    EXPECT_FALSE(bed.hw.ecreate(ctx, kBase, 100, 1, 1).ok());
    EXPECT_FALSE(bed.hw.ecreate(ctx, kBase, 0, 1, 1).ok());
    EXPECT_TRUE(bed.hw.ecreate(ctx, kBase, kPageSize, 1, 1).ok());
  });
}

TEST(SgxEdge, EaddValidatesRangeTypeAndDuplicates) {
  EdgeBed bed;
  bed.run([&](sim::ThreadCtx& ctx) {
    auto eid = *bed.hw.ecreate(ctx, kBase, 2 * kPageSize, 1, 1);
    EXPECT_FALSE(bed.hw.eadd(ctx, eid, kBase - kPageSize, PageType::kReg,
                             Perms::rw(), {}).ok());
    EXPECT_FALSE(bed.hw.eadd(ctx, eid, kBase + 2 * kPageSize, PageType::kReg,
                             Perms::rw(), {}).ok());
    EXPECT_FALSE(bed.hw.eadd(ctx, eid, kBase, PageType::kVa,
                             Perms::rw(), {}).ok());
    EXPECT_TRUE(bed.hw.eadd(ctx, eid, kBase, PageType::kReg, Perms::rw(),
                            {}).ok());
    EXPECT_EQ(bed.hw.eadd(ctx, eid, kBase, PageType::kReg, Perms::rw(), {})
                  .code(),
              ErrorCode::kFailedPrecondition);  // duplicate
    // Malformed TCS content.
    EXPECT_FALSE(bed.hw.eadd(ctx, eid, kBase + kPageSize, PageType::kTcs,
                             Perms{}, to_bytes("xx")).ok());
  });
}

TEST(SgxEdge, EnterUninitializedEnclaveFails) {
  EdgeBed bed;
  bed.run([&](sim::ThreadCtx& ctx) {
    auto eid = *bed.hw.ecreate(ctx, kBase, 2 * kPageSize, 1, 1);
    Writer tcs;
    tcs.u64(0);
    tcs.u64(kPageSize);
    tcs.u64(2);
    ASSERT_TRUE(bed.hw.eadd(ctx, eid, kBase, PageType::kTcs, Perms{},
                            tcs.data()).ok());
    CoreState core;
    EXPECT_EQ(bed.hw.eenter(ctx, core, eid, kBase).status().code(),
              ErrorCode::kFailedPrecondition);
    // EENTER at a non-TCS address also fails post-init — checked elsewhere;
    // here: nonexistent enclave.
    EXPECT_FALSE(bed.hw.eenter(ctx, core, 999, kBase).ok());
  });
}

TEST(SgxEdge, VaSlotLifecycle) {
  EdgeBed bed;
  bed.run([&](sim::ThreadCtx& ctx) {
    // Build a minimal measured enclave via the image helper.
    crypto::Drbg srng(to_bytes("dev"));
    crypto::SigKeyPair signer = crypto::sig_keygen(srng);
    EnclaveImage img;
    img.base = kBase;
    img.size = 2 * kPageSize;
    img.isv_prod_id = 1;
    img.isv_svn = 1;
    img.pages.push_back(
        ImagePage{0, PageType::kReg, Perms::rw(), Bytes(8, 0x11)});
    crypto::Drbg rng2(to_bytes("r"));
    img.sign(signer, rng2);
    auto eid = bed.hw.ecreate(ctx, img.base, img.size, 1, 1);
    ASSERT_TRUE(eid.ok());
    ASSERT_TRUE(bed.hw.eadd(ctx, *eid, kBase, PageType::kReg, Perms::rw(),
                            img.pages[0].content).ok());
    ASSERT_TRUE(bed.hw.eextend(ctx, *eid, kBase).ok());
    ASSERT_TRUE(bed.hw.einit(ctx, *eid, img.sigstruct).ok());

    uint64_t va = *bed.hw.epa(ctx);
    // Bad slot indices.
    EXPECT_FALSE(bed.hw.ewb(ctx, *eid, kBase, va, -1).ok());
    EXPECT_FALSE(bed.hw.ewb(ctx, *eid, kBase, va, kVaSlotsPerPage).ok());
    EXPECT_FALSE(bed.hw.ewb(ctx, *eid, kBase, va + 7, 0).ok());  // no such VA
    auto ev = bed.hw.ewb(ctx, *eid, kBase, va, 3);
    ASSERT_TRUE(ev.ok());
    // Occupied slot refuses a second EWB... need another resident page; the
    // enclave only had one, so re-load and re-evict into the same slot.
    ASSERT_TRUE(bed.hw.eldb(ctx, *ev).ok());
    auto ev2 = bed.hw.ewb(ctx, *eid, kBase, va, 3);
    ASSERT_TRUE(ev2.ok());  // slot was consumed by ELDB, usable again
    // EWB of a non-resident page fails.
    EXPECT_FALSE(bed.hw.ewb(ctx, *eid, kBase, va, 4).ok());
    // ELDB after the enclave is gone fails.
    ASSERT_TRUE(bed.hw.eremove_enclave(ctx, *eid).ok());
    EXPECT_FALSE(bed.hw.eldb(ctx, *ev2).ok());
  });
}

TEST(SgxEdge, ReportMacDoesNotVerifyOnAnotherMachine) {
  // Local attestation is machine-local: a report produced on machine A is
  // garbage to machine B's quoting enclave.
  sim::Executor exec(2);
  SgxHardware hw_a(exec, sim::default_cost_model(), Drbg(to_bytes("a")),
                   HardwareConfig{.machine_name = "a", .epc_pages = 64});
  SgxHardware hw_b(exec, sim::default_cost_model(), Drbg(to_bytes("b")),
                   HardwareConfig{.machine_name = "b", .epc_pages = 64});
  QuotingEnclave qe_b(hw_b, Drbg(to_bytes("qb")));
  exec.spawn("t", [&](sim::ThreadCtx& ctx) {
    crypto::Drbg srng(to_bytes("dev"));
    crypto::SigKeyPair signer = crypto::sig_keygen(srng);
    EnclaveImage img;
    img.base = kBase;
    img.size = 2 * kPageSize;
    img.isv_prod_id = 1;
    img.isv_svn = 1;
    Writer tcs;
    tcs.u64(0);
    tcs.u64(kPageSize);
    tcs.u64(2);
    img.pages.push_back(ImagePage{0, PageType::kTcs, Perms{}, tcs.take()});
    img.pages.push_back(ImagePage{kPageSize, PageType::kReg, Perms::rw(), {}});
    crypto::Drbg rng2(to_bytes("r"));
    img.sign(signer, rng2);
    auto eid = hw_a.ecreate(ctx, img.base, img.size, 1, 1);
    ASSERT_TRUE(eid.ok());
    for (const ImagePage& p : img.pages) {
      ASSERT_TRUE(hw_a.eadd(ctx, *eid, img.base + p.offset, p.type, p.perms,
                            p.content).ok());
      ASSERT_TRUE(hw_a.eextend(ctx, *eid, img.base + p.offset).ok());
    }
    ASSERT_TRUE(hw_a.einit(ctx, *eid, img.sigstruct).ok());
    CoreState core;
    ASSERT_TRUE(hw_a.eenter(ctx, core, *eid, kBase).ok());
    auto rep = hw_a.ereport(ctx, core, qe_b.target_info(), to_bytes("x"));
    ASSERT_TRUE(rep.ok());
    ASSERT_TRUE(hw_a.eexit(ctx, core).ok());
    // Machine B's QE cannot verify machine A's report (different roots).
    EXPECT_FALSE(qe_b.quote(ctx, *rep).ok());
  });
  ASSERT_TRUE(exec.run());
}

TEST(SgxEdge, ExtensionLifecycleErrors) {
  EdgeBed bed;
  bed.run([&](sim::ThreadCtx& ctx) {
    Bytes k = Drbg(to_bytes("k")).generate(32);
    // ESWPOUT/EMIGRATEDONE before EMIGRATE / EPUTKEY.
    EXPECT_FALSE(bed.hw.emigrate(ctx, 1).ok());  // no key, no enclave
    ASSERT_TRUE(bed.hw.eputkey(ctx, k, k).ok());
    EXPECT_FALSE(bed.hw.eswpout(ctx, 1, kBase).ok());
    crypto::Digest d{};
    EXPECT_FALSE(bed.hw.emigratedone(ctx, 1, d, 0).ok());
    EXPECT_FALSE(bed.hw.eputkey(ctx, Bytes(4, 0), k).ok());  // bad key size
    // Import with a tampered SECS blob.
    SgxHardware::MigratedSecs secs;
    secs.ciphertext = Bytes(64, 0);
    secs.mac = crypto::Digest{};
    EXPECT_EQ(bed.hw.emigrate_import_secs(ctx, secs).status().code(),
              ErrorCode::kIntegrityViolation);
  });
}

// ---- attested Diffie-Hellman handshake (sgx/attested_dh.h) ------------------

// One genuine machine with a registered quoting enclave and one enclave on
// it that can quote arbitrary report data.
struct DhBed {
  sim::Executor exec{2};
  SgxHardware hw{exec, sim::default_cost_model(), Drbg(to_bytes("dh-hw")),
                 HardwareConfig{.machine_name = "m", .epc_pages = 64}};
  QuotingEnclave qe{hw, Drbg(to_bytes("dh-qe"))};
  AttestationService ias{Drbg(to_bytes("dh-ias"))};
  const uint64_t wan_ns = sim::default_cost_model().wan_latency_ns;
  uint64_t charged = 0;
  Charge charge = [this](uint64_t ns) { charged += ns; };

  DhBed() { ias.register_platform(qe.platform(), qe.platform_pk()); }

  // Serialized quote of a report whose report_data is `data`.
  Bytes quote(sim::ThreadCtx& ctx, ByteSpan data) {
    if (eid_ == 0) {
      crypto::Drbg srng(to_bytes("dev"));
      crypto::SigKeyPair signer = crypto::sig_keygen(srng);
      EnclaveImage img;
      img.base = kBase;
      img.size = 2 * kPageSize;
      img.isv_prod_id = 1;
      img.isv_svn = 1;
      Writer tcs;
      tcs.u64(0);
      tcs.u64(kPageSize);
      tcs.u64(2);
      img.pages.push_back(ImagePage{0, PageType::kTcs, Perms{}, tcs.take()});
      img.pages.push_back(
          ImagePage{kPageSize, PageType::kReg, Perms::rw(), {}});
      crypto::Drbg irng(to_bytes("img"));
      img.sign(signer, irng);
      eid_ = *hw.ecreate(ctx, img.base, img.size, 1, 1);
      for (const ImagePage& p : img.pages) {
        MIG_CHECK(hw.eadd(ctx, eid_, img.base + p.offset, p.type, p.perms,
                          p.content).ok());
        MIG_CHECK(hw.eextend(ctx, eid_, img.base + p.offset).ok());
      }
      MIG_CHECK(hw.einit(ctx, eid_, img.sigstruct).ok());
    }
    CoreState core;
    MIG_CHECK(hw.eenter(ctx, core, eid_, kBase).ok());
    auto rep = hw.ereport(ctx, core, qe.target_info(), data);
    MIG_CHECK(rep.ok());
    MIG_CHECK(hw.eexit(ctx, core).ok());
    auto q = qe.quote(ctx, *rep);
    MIG_CHECK(q.ok());
    return q->serialize();
  }

  void run(std::function<void(sim::ThreadCtx&)> fn) {
    exec.spawn("t", std::move(fn));
    ASSERT_TRUE(exec.run());
  }

 private:
  uint64_t eid_ = 0;
};

TEST(AttestedDh, InitiatorAndResponderDeriveTheSameSessionKey) {
  DhBed bed;
  bed.run([&](sim::ThreadCtx& ctx) {
    Drbg init_rng(to_bytes("initiator")), resp_rng(to_bytes("responder"));
    DhInitiator dh(init_rng, bed.charge, DhCost{10, 20});
    EXPECT_EQ(bed.charged, 10u);  // key generation, before anything is sent
    EXPECT_EQ(dh.pub().size(), kDhPubBytes);

    Bytes quote = bed.quote(ctx, ByteSpan(dh.binding()));
    auto verdict = check_quote(ctx, bed.ias, resp_rng, bed.wan_ns, quote,
                               dh.pub());
    ASSERT_TRUE(verdict.ok()) << verdict.status().to_string();
    EXPECT_TRUE(verdict->ok);

    Bytes payload = to_bytes("the migration key travels sealed");
    auto answer = dh_answer(resp_rng, bed.charge, DhCost{10, 20},
                            "test-channel", dh.pub(), payload);
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(bed.charged, 40u);  // the responder's one combined charge
    EXPECT_EQ(answer->pub.size(), kDhPubBytes);
    EXPECT_NE(answer->sealed, payload);

    // Opening succeeds only under the same derived session key.
    auto opened = dh.open("test-channel", answer->pub, answer->sealed);
    ASSERT_TRUE(opened.ok()) << opened.status().to_string();
    EXPECT_EQ(*opened, payload);
    EXPECT_EQ(bed.charged, 60u);
    // The label is domain separation: another protocol's key does not open.
    EXPECT_FALSE(dh.open("other-channel", answer->pub, answer->sealed).ok());

    // An empty payload stays empty (an ADVANCE grant carries no key).
    auto empty = dh_answer(resp_rng, bed.charge, DhCost{10, 20},
                           "test-channel", dh.pub(), {});
    ASSERT_TRUE(empty.ok());
    EXPECT_TRUE(empty->sealed.empty());
  });
}

TEST(AttestedDh, QuoteBindingADifferentDhValueIsRefused) {
  DhBed bed;
  bed.run([&](sim::ThreadCtx& ctx) {
    Drbg rng(to_bytes("bind"));
    DhInitiator honest(rng, bed.charge, DhCost{});
    DhInitiator other(rng, bed.charge, DhCost{});
    // A genuine quote, but over another DH value: a replayed or spliced
    // quote must not vouch for the value it arrives with.
    Bytes quote = bed.quote(ctx, ByteSpan(other.binding()));
    auto verdict = check_quote(ctx, bed.ias, rng, bed.wan_ns, quote,
                               honest.pub());
    ASSERT_FALSE(verdict.ok());
    EXPECT_EQ(verdict.status().code(), ErrorCode::kAuthFailure);
    EXPECT_EQ(verdict.status().message(), "quote does not bind DH value");
    EXPECT_TRUE(binds_dh(ByteSpan(honest.binding()), honest.pub()));
    EXPECT_FALSE(binds_dh(ByteSpan(other.binding()), honest.pub()));
  });
}

TEST(AttestedDh, VerdictFailingThePinnedIasKeyIsRefused) {
  DhBed bed;
  bed.run([&](sim::ThreadCtx& ctx) {
    Drbg rng(to_bytes("pin"));
    DhInitiator dh(rng, bed.charge, DhCost{});
    Bytes quote = bed.quote(ctx, ByteSpan(dh.binding()));
    // The verdict is signed by the real service; a pinned key that is not
    // the service's makes its signature fail.
    Drbg impostor_rng(to_bytes("impostor"));
    crypto::BigNum impostor = crypto::sig_keygen(impostor_rng).pk;
    auto pinned_wrong = check_quote(ctx, bed.ias, rng, bed.wan_ns, quote,
                                    dh.pub(), &impostor);
    ASSERT_FALSE(pinned_wrong.ok());
    EXPECT_EQ(pinned_wrong.status().code(), ErrorCode::kAuthFailure);
    EXPECT_EQ(pinned_wrong.status().message(), "attestation failed");

    crypto::BigNum genuine = bed.ias.service_pk();
    EXPECT_TRUE(check_quote(ctx, bed.ias, rng, bed.wan_ns, quote, dh.pub(),
                            &genuine).ok());
  });
}

TEST(AttestedDh, DegeneratePeerValuesAreRefusedByBothHalves) {
  Drbg rng(to_bytes("degenerate"));
  uint64_t charged = 0;
  Charge charge = [&](uint64_t ns) { charged += ns; };
  DhInitiator dh(rng, charge, DhCost{});
  auto good = dh_answer(rng, charge, DhCost{}, "c", dh.pub(), to_bytes("k"));
  ASSERT_TRUE(good.ok());
  const crypto::BigNum& p = crypto::DhGroup::oakley2().p;
  for (const crypto::BigNum& v :
       {crypto::BigNum(0), crypto::BigNum(1), p - crypto::BigNum(1)}) {
    Bytes peer = v.to_bytes_padded(kDhPubBytes);
    EXPECT_FALSE(dh.open("c", peer, good->sealed).ok());
    EXPECT_FALSE(dh_answer(rng, charge, DhCost{}, "c", peer, to_bytes("k"))
                     .ok());
  }
}

TEST(AttestedDh, UndecodableQuoteIsRefusedBeforeAnyIasCall) {
  DhBed bed;
  bed.run([&](sim::ThreadCtx& ctx) {
    Drbg rng(to_bytes("undecodable"));
    DhInitiator dh(rng, bed.charge, DhCost{});
    Drbg untouched = rng;
    uint64_t before = ctx.now();
    auto verdict = check_quote(ctx, bed.ias, rng, bed.wan_ns,
                               to_bytes("not a quote"), dh.pub());
    ASSERT_FALSE(verdict.ok());
    EXPECT_EQ(verdict.status().code(), ErrorCode::kAuthFailure);
    EXPECT_EQ(verdict.status().message(), "bad quote");
    // No WAN round trip, no IAS processing, no nonce drawn.
    EXPECT_EQ(ctx.now(), before);
    EXPECT_EQ(rng.generate(16), untouched.generate(16));
  });
}

}  // namespace
}  // namespace mig::sgx
