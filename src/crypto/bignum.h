// Minimal arbitrary-precision unsigned integers: exactly what finite-field
// Diffie–Hellman and Schnorr signatures need (add/sub/mul/divmod/modexp),
// nothing more. 32-bit limbs, little-endian, schoolbook add/sub/mul/divmod.
//
// modexp has two paths. Odd moduli of at most 1024 bits (every production
// modulus: the Oakley-2 prime, the gnupg workload's RSA-like n) run on
// fixed-width Montgomery arithmetic — 16 x 64-bit limbs on the stack, CIOS
// multiplication, a fixed 4-bit window, no allocation in the exponent loop.
// Even moduli and wider ones fall back to schoolbook square-and-multiply
// over modmul. FixedBasePow adds a precomputed table for a base that never
// changes (a group generator). All paths return identical values; the cost
// model, not this code, supplies the virtual-time price of crypto.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/bytes.h"

namespace mig::crypto {

class BigNum {
 public:
  BigNum() = default;
  explicit BigNum(uint64_t v);

  // Big-endian byte-string / hex constructors (how keys appear on the wire).
  static BigNum from_bytes(ByteSpan be);
  static BigNum from_hex(std::string_view hex);

  Bytes to_bytes() const;                 // big-endian, minimal length
  Bytes to_bytes_padded(size_t len) const;  // big-endian, left-zero-padded

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  size_t bit_length() const;
  bool bit(size_t i) const;

  friend BigNum operator+(const BigNum& a, const BigNum& b);
  // Precondition: a >= b (MIG_CHECK enforced).
  friend BigNum operator-(const BigNum& a, const BigNum& b);
  friend BigNum operator*(const BigNum& a, const BigNum& b);
  friend BigNum operator%(const BigNum& a, const BigNum& m);
  friend BigNum operator/(const BigNum& a, const BigNum& b);

  friend bool operator==(const BigNum& a, const BigNum& b) {
    return a.limbs_ == b.limbs_;
  }
  friend bool operator<(const BigNum& a, const BigNum& b) {
    return cmp(a, b) < 0;
  }
  friend bool operator<=(const BigNum& a, const BigNum& b) {
    return cmp(a, b) <= 0;
  }

  BigNum shifted_left(size_t bits) const;
  BigNum shifted_right(size_t bits) const;

  // (quotient, remainder); divisor must be nonzero.
  static std::pair<BigNum, BigNum> divmod(const BigNum& a, const BigNum& b);

  // this^e mod m, always < m. m must be nonzero.
  BigNum modexp(const BigNum& e, const BigNum& m) const;

  // (a * b) mod m.
  static BigNum modmul(const BigNum& a, const BigNum& b, const BigNum& m);

 private:
  // Fixed-width Montgomery arithmetic (bignum.cc); FixedBasePow builds on it.
  struct Montgomery;
  friend class FixedBasePow;

  static int cmp(const BigNum& a, const BigNum& b);
  void trim();

  std::vector<uint32_t> limbs_;  // little-endian; no trailing zero limbs
};

// base^e mod m for one fixed base and one odd modulus of at most 1024 bits.
// The table holds base^(16^i) mod m in Montgomery form for every hex digit
// position i of an exponent up to max_exp_bits wide (32 KB for 1024 bits).
// pow() combines it by Yao's method: one multiply per nonzero digit plus at
// most 15, against about 1280 for a variable base. Wider exponents fall back
// to modexp. pow(e) == base.modexp(e, m) for every e.
class FixedBasePow {
 public:
  FixedBasePow(const BigNum& base, const BigNum& m, size_t max_exp_bits);

  BigNum pow(const BigNum& e) const;

 private:
  BigNum base_;
  BigNum m_;
  size_t digits_;
  std::vector<uint64_t> powers_;  // digit i at [16 i, 16 i + 16)
};

}  // namespace mig::crypto
