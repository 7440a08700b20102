// The attested Diffie-Hellman handshake (§V-B, §V-C), the one primitive
// every key in the system travels through.
//
// The initiator proves its identity with a quote (or, to a local agent, a
// report) whose report_data is SHA-256 of a fresh DH value. The responder
// checks that binding, answers with its own DH value, and seals the key
// (ChaCha20 AEAD) under
//   session = HKDF(salt = label, ikm = g^ab, info = initiator's DH value).
// Each protocol keeps its own framing and signatures; its label
// ("mig-channel", "owner-channel", "ctr-channel", "qrm-channel",
// "agent-channel") is domain separation, not a separate implementation.
#pragma once

#include <functional>
#include <string_view>

#include "crypto/sha256.h"
#include "sgx/attestation.h"
#include "sim/cost_model.h"

namespace mig::sgx {

inline constexpr size_t kDhPubBytes = 128;  // DH public values on the wire

// Charges modelled compute to the calling thread. Inside an enclave this
// must be EnclaveEnv::work, which keeps the AEX accounting.
using Charge = std::function<void(uint64_t ns)>;

// Modelled cost of key generation and of the shared secret.
struct DhCost {
  uint64_t keygen_ns;
  uint64_t shared_ns;
  static DhCost remote(const sim::CostModel& cm) {
    return {cm.dh_keygen_ns, cm.dh_shared_ns};
  }
  // Local attestation to an agent enclave (§VI-D).
  static DhCost local(const sim::CostModel& cm) {
    return {cm.local_attest_dh_ns, cm.local_attest_dh_ns};
  }
};

bool binds_dh(ByteSpan report_data, ByteSpan dh_pub);

// Initiator half. Construction charges key generation and draws the key
// pair; the caller quotes binding() and sends pub().
class DhInitiator {
 public:
  DhInitiator(crypto::Drbg& rng, Charge charge, DhCost cost);

  const Bytes& pub() const { return pub_; }
  crypto::Digest binding() const { return crypto::Sha256::hash(pub_); }

  // Charges the shared secret, derives the session key with the
  // responder's value and opens `sealed` under it. Fails on degenerate peer
  // values and on a failed open.
  Result<Bytes> open(std::string_view label, ByteSpan peer_pub,
                     ByteSpan sealed) const;

 private:
  Charge charge_;
  DhCost cost_;
  crypto::DhKeyPair kp_;
  Bytes pub_;
};

// Responder check: decodes the quote, sleeps the WAN round trip, has `ias`
// verify it against a fresh 16-byte nonce from `rng`, and requires a
// positive verdict, signed by `pinned_ias_pk` when given, that binds
// `dh_pub`. Errors are kAuthFailure with the refusal reason: "bad quote"
// (before any time is spent or nonce drawn), "attestation failed", or
// "quote does not bind DH value".
Result<AttestationVerdict> check_quote(
    sim::ThreadCtx& ctx, AttestationService& ias, crypto::Drbg& rng,
    uint64_t wan_latency_ns, ByteSpan quote_wire, ByteSpan dh_pub,
    const crypto::BigNum* pinned_ias_pk = nullptr);

// Responder answer: charges both steps at once, draws a key pair, derives
// the session key with the initiator's value and seals `payload` under it
// (an empty payload stays empty: ADVANCE grants carry no key). Fails on
// degenerate peer values.
struct DhAnswer {
  Bytes pub;  // kDhPubBytes wide
  Bytes sealed;
};
Result<DhAnswer> dh_answer(crypto::Drbg& rng, const Charge& charge,
                           DhCost cost, std::string_view label,
                           ByteSpan peer_pub, ByteSpan payload);

}  // namespace mig::sgx
