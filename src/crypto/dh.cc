#include "crypto/dh.h"

#include "crypto/sha256.h"
#include "util/check.h"
#include "util/serde.h"

namespace mig::crypto {

namespace {
constexpr std::string_view kOakley2P =
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF";

// True for x in [2, p-2]: 0, 1 and p-1 would pin a DH shared secret or a
// Schnorr verification equation to a value an attacker knows.
bool nondegenerate(const BigNum& x, const DhGroup& group) {
  return BigNum(1) < x && x < group.p - BigNum(1);
}

// Draws an exponent uniformly-enough in [2, q).
BigNum random_exponent(Drbg& rng, const DhGroup& group) {
  for (;;) {
    BigNum x = BigNum::from_bytes(rng.generate(group.byte_len)) % group.q;
    if (BigNum(2) <= x) return x;
  }
}
}  // namespace

const DhGroup& DhGroup::oakley2() {
  static const DhGroup group = [] {
    BigNum p = BigNum::from_hex(kOakley2P);
    size_t bits = p.bit_length();
    return DhGroup{.p = p,
                   .g = BigNum(2),
                   .q = (p - BigNum(1)) / BigNum(2),
                   .gq = BigNum(4),
                   .byte_len = 128,
                   .g_table = FixedBasePow(BigNum(2), p, bits),
                   .gq_table = FixedBasePow(BigNum(4), p, bits)};
  }();
  return group;
}

DhKeyPair dh_generate(Drbg& rng, const DhGroup& group) {
  DhKeyPair kp;
  kp.priv = random_exponent(rng, group);
  kp.pub = group.pow_g(kp.priv);
  return kp;
}

Result<Bytes> dh_shared(const BigNum& priv, const BigNum& peer_pub,
                        const DhGroup& group) {
  // Reject degenerate public values a MITM could inject to force a known
  // shared secret.
  if (!nondegenerate(peer_pub, group)) {
    return Error(ErrorCode::kAuthFailure, "degenerate DH public value");
  }
  BigNum shared = peer_pub.modexp(priv, group.p);
  return shared.to_bytes_padded(group.byte_len);
}

SigKeyPair sig_keygen(Drbg& rng, const DhGroup& group) {
  SigKeyPair kp;
  kp.sk = random_exponent(rng, group);
  kp.pk = group.pow_gq(kp.sk);
  return kp;
}

namespace {
BigNum challenge(const BigNum& r, ByteSpan message, const DhGroup& group) {
  Bytes input = r.to_bytes_padded(group.byte_len);
  append(input, message);
  Digest d = Sha256::hash(input);
  return BigNum::from_bytes(d) % group.q;
}
}  // namespace

Bytes sig_sign(const BigNum& sk, ByteSpan message, Drbg& rng,
               const DhGroup& group) {
  BigNum k = random_exponent(rng, group);
  BigNum r = group.pow_gq(k);
  BigNum e = challenge(r, message, group);
  BigNum s = (k + BigNum::modmul(e, sk, group.q)) % group.q;
  Writer w;
  w.bytes(r.to_bytes_padded(group.byte_len));
  w.bytes(s.to_bytes());
  return w.take();
}

bool sig_verify(const BigNum& pk, ByteSpan message, ByteSpan signature,
                const DhGroup& group) {
  Reader rd(signature);
  Bytes r_bytes = rd.bytes();
  Bytes s_bytes = rd.bytes();
  if (!rd.finish().ok() || !nondegenerate(pk, group)) return false;
  if (r_bytes.size() != group.byte_len) return false;
  BigNum r = BigNum::from_bytes(r_bytes);
  BigNum s = BigNum::from_bytes(s_bytes);
  if (s_bytes != s.to_bytes()) return false;
  if (r.is_zero() || !(r < group.p) || !(s < group.q)) return false;
  BigNum e = challenge(r, message, group);
  BigNum lhs = group.pow_gq(s);
  BigNum rhs = BigNum::modmul(r, pk.modexp(e, group.p), group.p);
  return lhs == rhs;
}

}  // namespace mig::crypto
