// Finite-field Diffie–Hellman key exchange and Schnorr signatures over the
// RFC 2409 Oakley Group 2 safe prime (1024-bit, generator 2).
//
// The paper's control threads "leverage Diffie-Hellman key exchange protocol
// to build a secure channel" (§V-B) whose messages are authenticated with an
// enclave identity key pair shipped in the enclave image; the quoting
// enclave's platform key signs attestation quotes. DH supplies the former,
// Schnorr the latter two. Schnorr works in the prime-order subgroup of
// squares (order q = (p-1)/2), generator 4.
#pragma once

#include "crypto/bignum.h"
#include "crypto/drbg.h"
#include "util/bytes.h"
#include "util/status.h"

namespace mig::crypto {

struct DhGroup {
  BigNum p;  // safe prime
  BigNum g;  // generator of Z_p^* (2)
  BigNum q;  // (p-1)/2, prime order of the subgroup of squares
  BigNum gq; // generator of the squares subgroup (4)
  size_t byte_len;  // serialized element width
  FixedBasePow g_table;   // g^(16^i) mod p, for exponents below 2^1024
  FixedBasePow gq_table;  // gq^(16^i) mod p, likewise

  // g^e mod p and gq^e mod p from the fixed-base tables.
  BigNum pow_g(const BigNum& e) const { return g_table.pow(e); }
  BigNum pow_gq(const BigNum& e) const { return gq_table.pow(e); }

  static const DhGroup& oakley2();
};

struct DhKeyPair {
  BigNum priv;  // exponent in [2, q)
  BigNum pub;   // g^priv mod p
};

DhKeyPair dh_generate(Drbg& rng, const DhGroup& group = DhGroup::oakley2());

// Shared secret g^(ab) as a fixed-width byte string; feed through HKDF before
// use as a key. Fails on degenerate peer values (0, 1, p-1, >= p).
Result<Bytes> dh_shared(const BigNum& priv, const BigNum& peer_pub,
                        const DhGroup& group = DhGroup::oakley2());

// ---- Schnorr signatures -----------------------------------------------------

struct SigKeyPair {
  BigNum sk;  // x in [2, q)
  BigNum pk;  // gq^x mod p
};

SigKeyPair sig_keygen(Drbg& rng, const DhGroup& group = DhGroup::oakley2());

// Signature = serialized (e, s) with e = H(r || m) mod q, s = k + e*x mod q.
Bytes sig_sign(const BigNum& sk, ByteSpan message, Drbg& rng,
               const DhGroup& group = DhGroup::oakley2());

// Refuses public keys outside [2, p-2] and any encoding sig_sign would not
// have produced: r must be exactly byte_len bytes, s minimal-length.
bool sig_verify(const BigNum& pk, ByteSpan message, ByteSpan signature,
                const DhGroup& group = DhGroup::oakley2());

}  // namespace mig::crypto
