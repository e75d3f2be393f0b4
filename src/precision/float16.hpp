// Software IEEE 754 binary16 ("half") and bfloat16 types.
//
// The hardware the paper targets (V100/A100/H100 tensor cores) stores tile
// data in FP16; we reproduce those numerics on CPUs by emulating the formats
// bit-exactly: round-to-nearest-even on conversion from float, full subnormal
// support, Inf/NaN propagation. The types are trivially copyable 16-bit
// values, so buffers of them have exactly the memory footprint (and hence the
// simulated transfer cost) of their GPU counterparts.
//
// Conversion is the cost the operand cache amortizes, so the scalar hot-path
// converters here are branch-minimal straight-line integer kernels (inline so
// buffer loops vectorize/pipeline), and batched 4-wide entry points cover the
// bulk paths. The original branchy scalar implementations live on in
// tests/test_operand_cache.cpp as the reference, and its property tests pin
// the fast versions to them bit-for-bit across normals, subnormals, NaN and
// +-Inf.
#pragma once

#include <cstdint>
#include <cstring>

namespace mpgeo {

namespace detail {

inline std::uint32_t float_bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

inline float bits_float(std::uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof f);
  return f;
}

}  // namespace detail

/// Convert an IEEE binary32 value to binary16 bits with round-to-nearest-even.
///
/// Branch-minimal: one two-way split (above/below the smallest normal half)
/// plus a select for Inf/NaN. The normal path realizes RNE as an integer
/// rounding-bias add (carry into the exponent yields Inf exactly when the
/// value rounds past 65504); the subnormal path delegates the rounding to one
/// FP32 add against 0.5f, whose hardware RNE is the required tie-to-even.
inline std::uint16_t float_to_half_bits(float f) {
  std::uint32_t u = detail::float_bits(f);
  const std::uint32_t sign = (u >> 16) & 0x8000u;
  u &= 0x7FFFFFFFu;

  std::uint32_t out;
  if (u >= 0x38800000u) {            // |f| >= 2^-14: normal half, Inf or NaN
    if (u >= 0x47800000u) {          // overflows half range, or Inf/NaN
      const std::uint32_t nan_payload = 0x7C00u | ((u & 0x007FFFFFu) >> 13) | 1u;
      out = (u > 0x7F800000u) ? nan_payload : 0x7C00u;
    } else {
      // Rebias exponent (exp - 112 at bit 23), add RNE bias, shift into place.
      const std::uint32_t odd = (u >> 13) & 1u;
      out = (u - (112u << 23) + 0xFFFu + odd) >> 13;
    }
  } else {                           // subnormal half (or zero)
    // Fixed-point trick: 0.5f + |f| holds round(|f| * 2^24) in its mantissa,
    // rounded to nearest-even by the FP32 add itself.
    const float magic = detail::bits_float(126u << 23);  // 0.5f
    out = detail::float_bits(detail::bits_float(u) + magic) - (126u << 23);
  }
  return static_cast<std::uint16_t>(sign | out);
}

/// Convert binary16 bits to the exactly-representable binary32 value.
/// Branch-minimal inverse: shift the payload up, rebias, and fix up the two
/// special exponent classes (Inf/NaN, subnormal) with selects.
inline float half_bits_to_float(std::uint16_t h) {
  const std::uint32_t sign = (static_cast<std::uint32_t>(h) & 0x8000u) << 16;
  std::uint32_t o = (static_cast<std::uint32_t>(h) & 0x7FFFu) << 13;
  const std::uint32_t exp = o & (0x1Fu << 23);  // half exponent at fp32 slot
  o += (127u - 15u) << 23;                      // rebias half -> float
  if (exp == (0x1Fu << 23)) {
    o += (128u - 16u) << 23;  // Inf/NaN: force fp32 exponent to 0xFF
  } else if (exp == 0) {
    // Subnormal (or zero): o currently encodes 2^-14 * (mant / 2^10) as a
    // fixed-point value; normalizing is one exact FP32 subtract.
    o += 1u << 23;
    o = detail::float_bits(detail::bits_float(o) -
                           detail::bits_float(113u << 23));
  }
  return detail::bits_float(o | sign);
}

/// Batched conversions over contiguous buffers, structured as 4-wide
/// straight-line blocks for auto-vectorization. Bit-identical to elementwise
/// application of the scalar converters.
void float_to_half_bits_n(const float* src, std::uint16_t* dst, std::size_t n);
void half_bits_to_float_n(const std::uint16_t* src, float* dst, std::size_t n);

/// Fused double -> binary16 -> double rounding over a buffer (the storage
/// round-trip of an FP16 tile and the input rounding of FP16/FP16_32
/// kernels), 4-wide. Bit-identical to `buf[i] = through_half(buf[i])`.
void round_through_half_n(double* buf, std::size_t n);

/// Float-domain variant: buf[i] = half_bits_to_float(float_to_half_bits(
/// buf[i])). Since every double -> binary16 rounding first casts to float,
/// this matches round_through_half_n on float-valued inputs bit for bit —
/// it is the input rounding of float-stored operand packs.
void round_through_half_f32_n(float* buf, std::size_t n);

/// IEEE 754 binary16. 1 sign, 5 exponent, 10 mantissa bits.
class float16 {
 public:
  float16() = default;
  explicit float16(float f) : bits_(float_to_half_bits(f)) {}
  explicit float16(double d) : float16(static_cast<float>(d)) {}

  explicit operator float() const { return half_bits_to_float(bits_); }
  explicit operator double() const { return half_bits_to_float(bits_); }

  static float16 from_bits(std::uint16_t b) {
    float16 h;
    h.bits_ = b;
    return h;
  }
  std::uint16_t bits() const { return bits_; }

  friend bool operator==(float16 a, float16 b) {
    return static_cast<float>(a) == static_cast<float>(b);
  }

 private:
  std::uint16_t bits_ = 0;
};

/// bfloat16: 1 sign, 8 exponent, 7 mantissa bits (truncated fp32 with RNE).
class bfloat16 {
 public:
  bfloat16() = default;
  explicit bfloat16(float f) {
    const std::uint32_t u = detail::float_bits(f);
    if (((u >> 23) & 0xFFu) == 0xFFu && (u & 0x007FFFFFu) != 0) {
      // NaN: keep it a NaN after truncation.
      bits_ = static_cast<std::uint16_t>((u >> 16) | 0x0040u);
      return;
    }
    // Round-to-nearest-even on the low 16 bits.
    const std::uint32_t rounding_bias = 0x7FFFu + ((u >> 16) & 1u);
    bits_ = static_cast<std::uint16_t>((u + rounding_bias) >> 16);
  }
  explicit bfloat16(double d) : bfloat16(static_cast<float>(d)) {}

  explicit operator float() const {
    return detail::bits_float(static_cast<std::uint32_t>(bits_) << 16);
  }
  explicit operator double() const { return static_cast<float>(*this); }

  static bfloat16 from_bits(std::uint16_t b) {
    bfloat16 h;
    h.bits_ = b;
    return h;
  }
  std::uint16_t bits() const { return bits_; }

 private:
  std::uint16_t bits_ = 0;
};

/// Round a binary32 value to TF32 precision (10 mantissa bits, fp32 exponent
/// range) with round-to-nearest-even, returned as binary32. This mirrors what
/// Ampere/Hopper tensor cores do to GEMM inputs in TF32 mode.
inline float round_to_tf32(float f) {
  std::uint32_t u = detail::float_bits(f);
  if (((u >> 23) & 0xFFu) == 0xFFu) return f;  // Inf/NaN unchanged
  // Keep 10 mantissa bits: round off the low 13 with RNE.
  const std::uint32_t rem = u & 0x1FFFu;
  u &= ~0x1FFFu;
  const std::uint32_t lsb = u & 0x2000u;
  if (rem > 0x1000u || (rem == 0x1000u && lsb)) u += 0x2000u;
  return detail::bits_float(u);
}

/// Round a double to fp32 then to fp16 and back — the value a tile assumes
/// when staged through half-precision storage.
///
/// Hot path (normal half range): the round trip composes to one RNE of the
/// low 13 mantissa bits in float domain. Proof: float_to_half_bits computes
/// (u - (112<<23) + 0xFFF + odd) >> 13 and half_bits_to_float shifts back up
/// and re-adds 112<<23; since the rebias constant is a multiple of 2^13 it
/// commutes with the mask, leaving (u + 0xFFF + odd) & ~0x1FFF. Subnormal,
/// overflow, Inf and NaN inputs take the exact two-converter chain. This is
/// the per-block rounding of the portable FP16 GEMM accumulator (the AVX2
/// kernel performs the same two roundings with vcvtpd2ps + F16C).
inline double through_half(double d) {
  const float f = static_cast<float>(d);
  const std::uint32_t u = detail::float_bits(f);
  const std::uint32_t mag = u & 0x7FFFFFFFu;
  if (mag - 0x38800000u < 0x47000000u - 0x38800000u) {
    // [2^-14, 32768): rounding up cannot leave the finite half range.
    const std::uint32_t odd = (u >> 13) & 1u;
    return detail::bits_float((u + 0xFFFu + odd) & ~0x1FFFu);
  }
  return static_cast<double>(half_bits_to_float(float_to_half_bits(f)));
}

}  // namespace mpgeo
