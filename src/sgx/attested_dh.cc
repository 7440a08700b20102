#include "sgx/attested_dh.h"

#include "crypto/aead.h"
#include "crypto/hmac.h"

namespace mig::sgx {

namespace {
Result<Bytes> session(const crypto::BigNum& priv, ByteSpan peer_pub,
                      std::string_view label, ByteSpan initiator_pub) {
  MIG_ASSIGN_OR_RETURN(Bytes shared,
                       crypto::dh_shared(priv,
                                         crypto::BigNum::from_bytes(peer_pub)));
  return crypto::hkdf(to_bytes(label), shared, initiator_pub, 32);
}
}  // namespace

bool binds_dh(ByteSpan report_data, ByteSpan dh_pub) {
  return crypto::ct_equal(report_data, ByteSpan(crypto::Sha256::hash(dh_pub)));
}

DhInitiator::DhInitiator(crypto::Drbg& rng, Charge charge, DhCost cost)
    : charge_(std::move(charge)), cost_(cost) {
  charge_(cost_.keygen_ns);
  kp_ = crypto::dh_generate(rng);
  pub_ = kp_.pub.to_bytes_padded(kDhPubBytes);
}

Result<Bytes> DhInitiator::open(std::string_view label, ByteSpan peer_pub,
                                ByteSpan sealed) const {
  charge_(cost_.shared_ns);
  MIG_ASSIGN_OR_RETURN(Bytes key, session(kp_.priv, peer_pub, label, pub_));
  return crypto::open(key, sealed);
}

Result<AttestationVerdict> check_quote(sim::ThreadCtx& ctx,
                                       AttestationService& ias,
                                       crypto::Drbg& rng,
                                       uint64_t wan_latency_ns,
                                       ByteSpan quote_wire, ByteSpan dh_pub,
                                       const crypto::BigNum* pinned_ias_pk) {
  auto quote = Quote::deserialize(quote_wire);
  if (!quote.ok()) return Error(ErrorCode::kAuthFailure, "bad quote");
  ctx.sleep(2 * wan_latency_ns);
  AttestationVerdict verdict = ias.verify(ctx, *quote, rng.generate(16));
  if (!verdict.ok ||
      (pinned_ias_pk != nullptr &&
       !AttestationService::check_verdict(verdict, *pinned_ias_pk)))
    return Error(ErrorCode::kAuthFailure, "attestation failed");
  if (!binds_dh(verdict.report_data, dh_pub))
    return Error(ErrorCode::kAuthFailure, "quote does not bind DH value");
  return verdict;
}

Result<DhAnswer> dh_answer(crypto::Drbg& rng, const Charge& charge,
                           DhCost cost, std::string_view label,
                           ByteSpan peer_pub, ByteSpan payload) {
  charge(cost.keygen_ns + cost.shared_ns);
  crypto::DhKeyPair kp = crypto::dh_generate(rng);
  MIG_ASSIGN_OR_RETURN(Bytes key, session(kp.priv, peer_pub, label, peer_pub));
  DhAnswer answer{kp.pub.to_bytes_padded(kDhPubBytes), {}};
  if (!payload.empty())
    answer.sealed = crypto::seal(crypto::CipherAlg::kChaCha20, key, payload);
  return answer;
}

}  // namespace mig::sgx
