#include "precision/float16.hpp"

namespace mpgeo {

// ---------------------------------------------------------------------------
// Batched kernels. The loops are written as 4-wide straight-line blocks of
// the inline converters so the compiler can pipeline the independent integer
// chains (and vectorize the branch-free sub-paths); the remainder runs the
// same scalar code, so results are bit-identical to elementwise conversion.
// ---------------------------------------------------------------------------

void float_to_half_bits_n(const float* src, std::uint16_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::uint16_t h0 = float_to_half_bits(src[i + 0]);
    const std::uint16_t h1 = float_to_half_bits(src[i + 1]);
    const std::uint16_t h2 = float_to_half_bits(src[i + 2]);
    const std::uint16_t h3 = float_to_half_bits(src[i + 3]);
    dst[i + 0] = h0;
    dst[i + 1] = h1;
    dst[i + 2] = h2;
    dst[i + 3] = h3;
  }
  for (; i < n; ++i) dst[i] = float_to_half_bits(src[i]);
}

void half_bits_to_float_n(const std::uint16_t* src, float* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float f0 = half_bits_to_float(src[i + 0]);
    const float f1 = half_bits_to_float(src[i + 1]);
    const float f2 = half_bits_to_float(src[i + 2]);
    const float f3 = half_bits_to_float(src[i + 3]);
    dst[i + 0] = f0;
    dst[i + 1] = f1;
    dst[i + 2] = f2;
    dst[i + 3] = f3;
  }
  for (; i < n; ++i) dst[i] = half_bits_to_float(src[i]);
}

void round_through_half_n(double* buf, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::uint16_t h0 = float_to_half_bits(static_cast<float>(buf[i + 0]));
    const std::uint16_t h1 = float_to_half_bits(static_cast<float>(buf[i + 1]));
    const std::uint16_t h2 = float_to_half_bits(static_cast<float>(buf[i + 2]));
    const std::uint16_t h3 = float_to_half_bits(static_cast<float>(buf[i + 3]));
    buf[i + 0] = half_bits_to_float(h0);
    buf[i + 1] = half_bits_to_float(h1);
    buf[i + 2] = half_bits_to_float(h2);
    buf[i + 3] = half_bits_to_float(h3);
  }
  for (; i < n; ++i) buf[i] = through_half(buf[i]);
}

void round_through_half_f32_n(float* buf, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::uint16_t h0 = float_to_half_bits(buf[i + 0]);
    const std::uint16_t h1 = float_to_half_bits(buf[i + 1]);
    const std::uint16_t h2 = float_to_half_bits(buf[i + 2]);
    const std::uint16_t h3 = float_to_half_bits(buf[i + 3]);
    buf[i + 0] = half_bits_to_float(h0);
    buf[i + 1] = half_bits_to_float(h1);
    buf[i + 2] = half_bits_to_float(h2);
    buf[i + 3] = half_bits_to_float(h3);
  }
  for (; i < n; ++i) buf[i] = half_bits_to_float(float_to_half_bits(buf[i]));
}

}  // namespace mpgeo
