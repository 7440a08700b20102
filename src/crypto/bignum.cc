#include "crypto/bignum.h"

#include <algorithm>
#include <array>

#include "util/check.h"

namespace mig::crypto {

BigNum::BigNum(uint64_t v) {
  if (v != 0) limbs_.push_back(static_cast<uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<uint32_t>(v >> 32));
}

void BigNum::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigNum BigNum::from_bytes(ByteSpan be) {
  BigNum out;
  out.limbs_.assign((be.size() + 3) / 4, 0);
  for (size_t i = 0; i < be.size(); ++i) {
    size_t byte_index = be.size() - 1 - i;  // position from LSB
    out.limbs_[byte_index / 4] |= uint32_t{be[i]} << (8 * (byte_index % 4));
  }
  out.trim();
  return out;
}

BigNum BigNum::from_hex(std::string_view hex) {
  std::string padded(hex);
  if (padded.size() % 2) padded.insert(padded.begin(), '0');
  return from_bytes(hex_decode(padded));
}

Bytes BigNum::to_bytes() const {
  if (limbs_.empty()) return {0};
  Bytes out;
  for (size_t i = limbs_.size(); i-- > 0;) {
    for (int b = 3; b >= 0; --b) out.push_back(static_cast<uint8_t>(limbs_[i] >> (8 * b)));
  }
  size_t first = 0;
  while (first + 1 < out.size() && out[first] == 0) ++first;
  return Bytes(out.begin() + first, out.end());
}

Bytes BigNum::to_bytes_padded(size_t len) const {
  Bytes raw = to_bytes();
  MIG_CHECK_MSG(raw.size() <= len, "value too large for padded width");
  Bytes out(len - raw.size(), 0);
  append(out, raw);
  return out;
}

size_t BigNum::bit_length() const {
  if (limbs_.empty()) return 0;
  uint32_t top = limbs_.back();
  size_t bits = (limbs_.size() - 1) * 32;
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigNum::bit(size_t i) const {
  size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

int BigNum::cmp(const BigNum& a, const BigNum& b) {
  if (a.limbs_.size() != b.limbs_.size())
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigNum operator+(const BigNum& a, const BigNum& b) {
  BigNum out;
  size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t s = carry;
    if (i < a.limbs_.size()) s += a.limbs_[i];
    if (i < b.limbs_.size()) s += b.limbs_[i];
    out.limbs_[i] = static_cast<uint32_t>(s);
    carry = s >> 32;
  }
  out.limbs_[n] = static_cast<uint32_t>(carry);
  out.trim();
  return out;
}

BigNum operator-(const BigNum& a, const BigNum& b) {
  MIG_CHECK_MSG(!(a < b), "BigNum subtraction underflow");
  BigNum out;
  out.limbs_.resize(a.limbs_.size(), 0);
  int64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    int64_t d = int64_t{a.limbs_[i]} - borrow -
                (i < b.limbs_.size() ? int64_t{b.limbs_[i]} : 0);
    if (d < 0) {
      d += int64_t{1} << 32;
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<uint32_t>(d);
  }
  out.trim();
  return out;
}

BigNum operator*(const BigNum& a, const BigNum& b) {
  if (a.is_zero() || b.is_zero()) return BigNum();
  BigNum out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      uint64_t cur = out.limbs_[i + j] +
                     uint64_t{a.limbs_[i]} * b.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    out.limbs_[i + b.limbs_.size()] += static_cast<uint32_t>(carry);
  }
  out.trim();
  return out;
}

BigNum BigNum::shifted_left(size_t bits) const {
  if (is_zero()) return BigNum();
  size_t limb_shift = bits / 32, bit_shift = bits % 32;
  BigNum out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift)
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (32 - bit_shift);
  }
  out.trim();
  return out;
}

BigNum BigNum::shifted_right(size_t bits) const {
  size_t limb_shift = bits / 32, bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) return BigNum();
  BigNum out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < limbs_.size())
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (32 - bit_shift);
  }
  out.trim();
  return out;
}

std::pair<BigNum, BigNum> BigNum::divmod(const BigNum& a, const BigNum& b) {
  MIG_CHECK_MSG(!b.is_zero(), "BigNum division by zero");
  if (a < b) return {BigNum(), a};
  if (b.limbs_.size() == 1) {
    // Fast path: single-limb divisor.
    BigNum q;
    q.limbs_.resize(a.limbs_.size());
    uint64_t rem = 0;
    for (size_t i = a.limbs_.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | a.limbs_[i];
      q.limbs_[i] = static_cast<uint32_t>(cur / b.limbs_[0]);
      rem = cur % b.limbs_[0];
    }
    q.trim();
    return {q, BigNum(rem)};
  }
  // Knuth Algorithm D with 32-bit digits.
  size_t n = b.limbs_.size();
  size_t m = a.limbs_.size() - n;
  // D1: normalize so the divisor's top limb has its high bit set.
  int shift = 0;
  for (uint32_t top = b.limbs_.back(); !(top & 0x80000000u); top <<= 1) ++shift;
  BigNum u = a.shifted_left(shift);
  BigNum v = b.shifted_left(shift);
  u.limbs_.resize(a.limbs_.size() + 1, 0);  // u has m+n+1 digits
  v.limbs_.resize(n, 0);

  BigNum q;
  q.limbs_.assign(m + 1, 0);
  for (size_t j = m + 1; j-- > 0;) {
    // D3: estimate q_hat.
    uint64_t numerator = (uint64_t{u.limbs_[j + n]} << 32) | u.limbs_[j + n - 1];
    uint64_t q_hat = numerator / v.limbs_[n - 1];
    uint64_t r_hat = numerator % v.limbs_[n - 1];
    while (q_hat >= (uint64_t{1} << 32) ||
           (n >= 2 && q_hat * v.limbs_[n - 2] >
                          ((r_hat << 32) | u.limbs_[j + n - 2]))) {
      --q_hat;
      r_hat += v.limbs_[n - 1];
      if (r_hat >= (uint64_t{1} << 32)) break;
    }
    // D4: multiply and subtract.
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t p = q_hat * v.limbs_[i] + carry;
      carry = p >> 32;
      int64_t t = int64_t{u.limbs_[i + j]} - borrow - int64_t(p & 0xffffffffu);
      if (t < 0) {
        t += int64_t{1} << 32;
        borrow = 1;
      } else {
        borrow = 0;
      }
      u.limbs_[i + j] = static_cast<uint32_t>(t);
    }
    int64_t t = int64_t{u.limbs_[j + n]} - borrow - int64_t(carry);
    // D5/D6: if we subtracted too much, add back.
    if (t < 0) {
      t += int64_t{1} << 32;
      --q_hat;
      uint64_t c = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t s = uint64_t{u.limbs_[i + j]} + v.limbs_[i] + c;
        u.limbs_[i + j] = static_cast<uint32_t>(s);
        c = s >> 32;
      }
      t += static_cast<int64_t>(c);
      t &= 0xffffffff;
    }
    u.limbs_[j + n] = static_cast<uint32_t>(t);
    q.limbs_[j] = static_cast<uint32_t>(q_hat);
  }
  q.trim();
  u.limbs_.resize(n);
  u.trim();
  BigNum r = u.shifted_right(shift);
  return {q, r};
}

BigNum operator%(const BigNum& a, const BigNum& m) { return BigNum::divmod(a, m).second; }
BigNum operator/(const BigNum& a, const BigNum& b) { return BigNum::divmod(a, b).first; }

BigNum BigNum::modmul(const BigNum& a, const BigNum& b, const BigNum& m) {
  return (a * b) % m;
}

// Fixed-width Montgomery arithmetic modulo an odd m of at most 1024 bits,
// with R = 2^(64 n) for m's n 64-bit limbs. Every value lives in a stack
// array of kMaxLimbs limbs (the top kMaxLimbs - n stay zero); mul() is CIOS
// with 128-bit carries and a branch-free final subtract. Entering Montgomery
// form (x R mod m) takes one divmod, so a modexp pays two divmods up front
// and none inside the exponent loop.
struct BigNum::Montgomery {
  static constexpr size_t kMaxLimbs = 16;
  using Limbs = std::array<uint64_t, kMaxLimbs>;

  static bool fits(const BigNum& m) {
    return m.is_odd() && m.bit_length() <= 64 * kMaxLimbs;
  }

  explicit Montgomery(const BigNum& modulus)
      : m(modulus), n((modulus.bit_length() + 63) / 64) {
    MIG_CHECK(fits(m));
    load(m, m64.data());
    // -m^-1 mod 2^64 by Newton: m0 * m0 == 1 mod 8 gives 3 correct bits, and
    // each step doubles them (3 -> 6 -> ... -> 96).
    uint64_t inv = m64[0];
    for (int i = 0; i < 5; ++i) inv *= 2 - m64[0] * inv;
    n0 = 0 - inv;
  }

  // x (< 2^(64 n)) into n limbs; the rest of out stays untouched.
  void load(const BigNum& x, uint64_t* out) const {
    for (size_t i = 0; i < n; ++i) {
      uint64_t lo = 2 * i < x.limbs_.size() ? x.limbs_[2 * i] : 0;
      uint64_t hi = 2 * i + 1 < x.limbs_.size() ? x.limbs_[2 * i + 1] : 0;
      out[i] = lo | hi << 32;
    }
  }

  // x R mod m, for any x.
  Limbs to_mont(const BigNum& x) const {
    Limbs out{};
    load(x.shifted_left(64 * n) % m, out.data());
    return out;
  }

  // x R^-1 mod m, as a BigNum.
  BigNum from_mont(const uint64_t* x) const {
    Limbs one{1}, r{};
    mul(r.data(), x, one.data());
    BigNum out;
    out.limbs_.resize(2 * n);
    for (size_t i = 0; i < n; ++i) {
      out.limbs_[2 * i] = static_cast<uint32_t>(r[i]);
      out.limbs_[2 * i + 1] = static_cast<uint32_t>(r[i] >> 32);
    }
    out.trim();
    return out;
  }

  // r = a b R^-1 mod m, for a, b < m. r may alias a or b.
  void mul(uint64_t* r, const uint64_t* a, const uint64_t* b) const {
    using u128 = unsigned __int128;
    uint64_t t[kMaxLimbs + 2] = {};
    for (size_t i = 0; i < n; ++i) {
      u128 c = 0;
      for (size_t j = 0; j < n; ++j) {
        c += u128{a[j]} * b[i] + t[j];
        t[j] = static_cast<uint64_t>(c);
        c >>= 64;
      }
      c += t[n];
      t[n] = static_cast<uint64_t>(c);
      t[n + 1] = static_cast<uint64_t>(c >> 64);
      // Add q m with q chosen so the low limb cancels, then drop that limb.
      uint64_t q = t[0] * n0;
      c = (u128{q} * m64[0] + t[0]) >> 64;
      for (size_t j = 1; j < n; ++j) {
        c += u128{q} * m64[j] + t[j];
        t[j - 1] = static_cast<uint64_t>(c);
        c >>= 64;
      }
      c += t[n];
      t[n - 1] = static_cast<uint64_t>(c);
      t[n] = t[n + 1] + static_cast<uint64_t>(c >> 64);
    }
    // t < 2m: take t - m unless that borrows past t's top limb.
    uint64_t borrow = 0;
    for (size_t j = 0; j < n; ++j) {
      u128 diff = u128{t[j]} - m64[j] - borrow;
      r[j] = static_cast<uint64_t>(diff);
      borrow = static_cast<uint64_t>(diff >> 64) & 1;
    }
    uint64_t keep_t = 0 - (borrow & (t[n] ^ 1));
    for (size_t j = 0; j < n; ++j) r[j] = (t[j] & keep_t) | (r[j] & ~keep_t);
  }

  // Hex digit i of e (zero past its top).
  static unsigned digit(const BigNum& e, size_t i) {
    size_t limb = i / 8;
    if (limb >= e.limbs_.size()) return 0;
    return (e.limbs_[limb] >> (4 * (i % 8))) & 0xf;
  }

  // base^e mod m with a fixed 4-bit window over a 16-entry table.
  BigNum pow(const BigNum& base, const BigNum& e) const {
    size_t digits = (e.bit_length() + 3) / 4;
    if (digits == 0) return BigNum(1) % m;
    Limbs table[16];
    table[0] = to_mont(BigNum(1));
    table[1] = to_mont(base);
    for (size_t k = 2; k < 16; ++k)
      mul(table[k].data(), table[k - 1].data(), table[1].data());
    Limbs acc = table[digit(e, digits - 1)];
    for (size_t i = digits - 1; i-- > 0;) {
      for (int s = 0; s < 4; ++s) mul(acc.data(), acc.data(), acc.data());
      mul(acc.data(), acc.data(), table[digit(e, i)].data());
    }
    return from_mont(acc.data());
  }

  const BigNum& m;
  Limbs m64{};     // m in n limbs
  size_t n;        // limbs in use
  uint64_t n0 = 0; // -m^-1 mod 2^64
};

BigNum BigNum::modexp(const BigNum& e, const BigNum& m) const {
  MIG_CHECK(!m.is_zero());
  if (Montgomery::fits(m)) return Montgomery(m).pow(*this, e);
  // Schoolbook square-and-multiply: even moduli and moduli over 1024 bits.
  BigNum base = *this % m;
  BigNum result(1);
  size_t bits = e.bit_length();
  for (size_t i = bits; i-- > 0;) {
    result = modmul(result, result, m);
    if (e.bit(i)) result = modmul(result, base, m);
  }
  return result;
}

FixedBasePow::FixedBasePow(const BigNum& base, const BigNum& m,
                           size_t max_exp_bits)
    : base_(base), m_(m), digits_((max_exp_bits + 3) / 4) {
  using Mont = BigNum::Montgomery;
  Mont mont(m_);
  constexpr size_t kW = Mont::kMaxLimbs;
  powers_.assign(digits_ * kW, 0);
  Mont::Limbs x = mont.to_mont(base_);
  for (size_t i = 0; i < digits_; ++i) {
    std::copy(x.begin(), x.end(), powers_.begin() + i * kW);
    for (int s = 0; s < 4; ++s) mont.mul(x.data(), x.data(), x.data());
  }
}

BigNum FixedBasePow::pow(const BigNum& e) const {
  if (e.bit_length() > 4 * digits_) return base_.modexp(e, m_);
  if (e.is_zero()) return BigNum(1) % m_;
  // Yao: base^e = prod_{d=15..1} run_d, where run_d is the product of
  // base^(16^i) over every digit position i with e_i >= d.
  using Mont = BigNum::Montgomery;
  Mont mont(m_);
  constexpr size_t kW = Mont::kMaxLimbs;
  Mont::Limbs run{}, acc{};
  bool have_run = false, have_acc = false;
  for (unsigned d = 15; d >= 1; --d) {
    for (size_t i = 0; i < digits_; ++i) {
      if (Mont::digit(e, i) != d) continue;
      const uint64_t* p = powers_.data() + i * kW;
      if (have_run) {
        mont.mul(run.data(), run.data(), p);
      } else {
        std::copy(p, p + kW, run.begin());
        have_run = true;
      }
    }
    if (!have_run) continue;
    if (have_acc) {
      mont.mul(acc.data(), acc.data(), run.data());
    } else {
      acc = run;
      have_acc = true;
    }
  }
  return mont.from_mont(acc.data());
}

}  // namespace mig::crypto
