#include "migration/owner.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sgx/attested_dh.h"
#include "util/serde.h"

namespace mig::migration {

void EnclaveOwner::enroll(const crypto::Digest& mrenclave,
                          sdk::OwnerCredentials creds) {
  Enrolled e;
  e.creds = std::move(creds);
  e.kencrypt = rng_.fork(to_bytes("kencrypt")).generate(32);
  enrolled_[Bytes(mrenclave.begin(), mrenclave.end())] = std::move(e);
}

Bytes EnclaveOwner::kencrypt_for(const crypto::Digest& mrenclave) {
  auto it = enrolled_.find(Bytes(mrenclave.begin(), mrenclave.end()));
  return it == enrolled_.end() ? Bytes{} : it->second.kencrypt;
}

void EnclaveOwner::serve_one(sim::ThreadCtx& ctx, sim::Channel::End end) {
  Bytes request = end.recv(ctx);
  obs::Span<sim::ThreadCtx> span(ctx, "owner.serve", "migration");
  obs::metrics().add("migration.owner_requests");
  Reader r(request);
  std::string verb = r.str();
  Bytes dh_pub_e = r.bytes();
  Bytes quote_wire = r.bytes();
  auto refuse = [&](std::string why) {
    obs::instant(ctx, "owner.refused", "migration", {{"why", why}});
    obs::metrics().add("migration.owner_refusals");
    Writer w;
    w.str("REFUSED:" + why);
    w.bytes({});
    w.bytes({});
    end.send(ctx, w.take());
  };
  if (!r.finish().ok()) return refuse("malformed");

  // Verify the quote through the attestation service (the owner's own WAN
  // round trip to IAS).
  const sim::CostModel& cm = sim::default_cost_model();
  auto verdict = sgx::check_quote(ctx, *ias_, rng_, cm.wan_latency_ns,
                                  quote_wire, dh_pub_e);
  if (!verdict.ok()) return refuse(verdict.status().message());

  auto it = enrolled_.find(Bytes(verdict->mrenclave.begin(),
                                 verdict->mrenclave.end()));
  if (it == enrolled_.end()) return refuse("unknown enclave");

  Bytes payload;
  if (verb == "PROVISION") {
    payload = it->second.creds.provisioning_key;
  } else if (verb == "CKPT") {
    payload = it->second.kencrypt;
  } else if (verb == "RESTORE") {
    if (!allow_restore_) return refuse("restore refused by owner policy");
    payload = it->second.kencrypt;
  } else {
    return refuse("unknown verb");
  }
  audit_.push_back(AuditEntry{verb, verdict->mrenclave, ctx.now()});
  obs::instant(ctx, "owner.granted", "migration", {{"verb", verb}});

  auto answer = sgx::dh_answer(
      rng_, [&ctx](uint64_t ns) { ctx.work(ns); },
      sgx::DhCost::remote(cm), "owner-channel", dh_pub_e, payload);
  if (!answer.ok()) return refuse("degenerate DH value");
  Writer w;
  w.str("OWNERKEY");
  w.bytes(answer->pub);
  w.bytes(answer->sealed);
  end.send(ctx, w.take());
}

}  // namespace mig::migration
