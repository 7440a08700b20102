// Owner-keyed checkpoint/resume with auditing (§V-C).
//
// Live migration needs no owner, but snapshots do: the control thread must
// fetch Kencrypt from the enclave owner, so every checkpoint and every
// resume lands in the owner's audit log — and the owner can refuse a resume
// that smells like a rollback.
#include <cstdio>

#include "apps/kv.h"
#include "migration/owner.h"
#include "migration/session.h"
#include "util/serde.h"

using namespace mig;
using namespace mig::apps;

int main() {
  std::printf("== owner-audited checkpoint/resume (§V-C) ==\n\n");

  hv::World world(4);
  hv::Machine& machine = world.add_machine("host");
  hv::Vm vm(hv::VmConfig{}, hv::DirtyModel{});
  guestos::GuestOs guest(machine, vm);
  guestos::Process& proc = guest.create_process("kv");
  crypto::Drbg rng(to_bytes("snapshot-example"));
  crypto::Drbg srng(to_bytes("dev"));
  crypto::SigKeyPair signer = crypto::sig_keygen(srng);
  migration::EnclaveOwner owner(world.ias(), crypto::Drbg(to_bytes("owner")));

  sdk::BuildInput in;
  in.program = make_kv_program();
  in.layout = kv_layout(/*value_mb=*/1);
  sdk::BuildOutput built =
      sdk::build_enclave_image(in, signer, world.ias().service_pk(), rng);
  owner.enroll(built.image.measure(), built.owner);
  sdk::EnclaveHost host(guest, proc, std::move(built), world.ias(),
                        rng.fork(to_bytes("h")));

  auto with_owner = [&](sim::ThreadCtx& ctx, sdk::ControlCmd cmd) {
    auto ch = world.make_channel();
    world.executor().spawn("owner", [&, c = ch.get()](sim::ThreadCtx& t) {
      owner.serve_one(t, c->b());
    });
    cmd.channel = ch->a();
    return host.mailbox().post(ctx, cmd);
  };

  world.executor().spawn("demo", [&](sim::ThreadCtx& ctx) {
    MIG_CHECK(host.create(ctx).ok());
    sdk::ControlCmd prov;
    prov.type = sdk::ControlCmd::Type::kProvision;
    MIG_CHECK(with_owner(ctx, prov).status.ok());

    Writer fill;
    fill.u64(500);
    fill.u64(400);
    MIG_CHECK(host.ecall(ctx, 0, kKvEcallFill, fill.data()).ok());
    std::printf("KV store filled with 500 items\n");

    // Legal snapshot: the control thread fetches Kencrypt from the owner.
    sdk::ControlCmd ckpt;
    ckpt.type = sdk::ControlCmd::Type::kOwnerCheckpoint;
    sdk::ControlReply snap = with_owner(ctx, ckpt);
    MIG_CHECK_MSG(snap.status.ok(), snap.status.to_string());
    host.end_parking(ctx);
    std::printf("snapshot taken: %zu bytes (owner issued Kencrypt)\n",
                snap.blob.size());

    // Execution continues past the snapshot...
    Writer more;
    more.u64(77);
    more.u64(400);
    MIG_CHECK(host.ecall(ctx, 0, kKvEcallSet, more.data()).ok());

    // ...and a legal, owner-approved resume restores the snapshot state.
    sdk::ControlCmd restore;
    restore.type = sdk::ControlCmd::Type::kOwnerRestore;
    restore.blob = snap.blob;
    sdk::ControlReply restored = with_owner(ctx, restore);
    MIG_CHECK_MSG(restored.status.ok(), restored.status.to_string());
    for (const sdk::PumpPlan& p : restored.pumps)
      MIG_CHECK(host.pump_cssa(ctx, p.worker_idx, p.pumps).ok());
    sdk::ControlCmd finish;
    finish.type = sdk::ControlCmd::Type::kFinishRestore;
    MIG_CHECK(host.mailbox().post(ctx, finish).status.ok());
    host.finish_migration(ctx, restored.pumps);
    auto stats = host.ecall(ctx, 0, kKvEcallStats, {});
    MIG_CHECK(stats.ok());
    Reader r(*stats);
    std::printf("restored to snapshot: %llu items (the later set is gone — "
                "and the owner knows)\n",
                static_cast<unsigned long long>(r.u64()));

    // The operator turns rollback-happy; the owner's policy says no.
    owner.set_allow_restore(false);
    sdk::ControlCmd again;
    again.type = sdk::ControlCmd::Type::kOwnerRestore;
    again.blob = snap.blob;
    sdk::ControlReply refused = with_owner(ctx, again);
    std::printf("second restore attempt: %s\n",
                refused.status.to_string().c_str());
  });
  MIG_CHECK(world.executor().run());

  std::printf("\nowner audit log:\n");
  for (const auto& entry : owner.audit_log()) {
    std::printf("  t=%8.2f ms  %-10s mrenclave=%s...\n", entry.at_ns / 1e6,
                entry.verb.c_str(),
                hex_encode(ByteSpan(entry.mrenclave).first(6)).c_str());
  }
  std::printf(
      "\nEvery snapshot key issuance is logged; a refused rollback never\n"
      "yields a key, so the stale state stays sealed (P-4).\n");
  return 0;
}
