// Property tests for the tile compression codec (src/linalg/tile_codec):
// k-bit mantissa truncation is idempotent and error-bounded, the byte
// shuffle equals the plain per-plane loop, the LZ stage round-trips and
// deterministically re-encodes arbitrary byte strings, decodes hand-written
// token streams (the format) exactly and rejects corrupt streams without
// reading out of bounds, and decompress(compress(tile)) is bit-exact at the
// declared precision on every ladder rung.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/mp_cholesky.hpp"
#include "core/tile_matrix.hpp"
#include "linalg/anytile.hpp"
#include "linalg/tile_codec.hpp"
#include "linalg/wire_codec.hpp"
#include "obs/metrics.hpp"
#include "precision/float16.hpp"
#include "precision/precision.hpp"

namespace mpgeo {
namespace {

std::vector<std::byte> to_bytes(const std::vector<std::uint8_t>& v) {
  std::vector<std::byte> out(v.size());
  std::memcpy(out.data(), v.data(), v.size());
  return out;
}

TEST(MantissaTruncationTest, IdempotentAndErrorBounded) {
  Rng rng(11);
  for (int keep : {1, 4, 10, 23, 37, 51}) {
    const double bound = std::ldexp(1.0, -keep);
    for (int i = 0; i < 2000; ++i) {
      // Normal doubles spanning many binades, both signs.
      const double x =
          rng.normal() * std::ldexp(1.0, int(rng.uniform_index(80)) - 40);
      const double t = truncate_mantissa(x, keep);
      EXPECT_EQ(t, truncate_mantissa(t, keep));  // idempotent
      EXPECT_LE(std::abs(x - t), bound * std::abs(x));
      EXPECT_EQ(std::signbit(x), std::signbit(t));
      // Truncation moves toward zero: |t| <= |x|.
      EXPECT_LE(std::abs(t), std::abs(x));
    }
  }
  for (int keep : {1, 5, 11, 22}) {
    const float bound = float(std::ldexp(1.0, -keep));
    for (int i = 0; i < 2000; ++i) {
      const float x = float(rng.normal() * std::ldexp(1.0, int(rng.uniform_index(20)) - 10));
      const float t = truncate_mantissa(x, keep);
      EXPECT_EQ(t, truncate_mantissa(t, keep));
      EXPECT_LE(std::abs(x - t), bound * std::abs(x));
    }
  }
}

TEST(MantissaTruncationTest, FullKeepBitsIsANoOp) {
  Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.normal();
    EXPECT_EQ(x, truncate_mantissa(x, 52));
    EXPECT_EQ(x, truncate_mantissa(x, -1));
    EXPECT_EQ(float(x), truncate_mantissa(float(x), 23));
  }
}

TEST(MantissaTruncationTest, PayloadTruncationMatchesScalar) {
  Rng rng(13);
  const std::size_t n = 257;
  std::vector<double> d(n);
  for (double& v : d) v = rng.normal();
  std::vector<std::byte> payload(n * 8);
  std::memcpy(payload.data(), d.data(), payload.size());
  truncate_mantissa(payload, Storage::FP64, 9);
  for (std::size_t i = 0; i < n; ++i) {
    double got;
    std::memcpy(&got, payload.data() + i * 8, 8);
    EXPECT_EQ(got, truncate_mantissa(d[i], 9));
  }
  // FP16 payloads truncate in half-precision bit space.
  std::vector<float16> h(n);
  for (std::size_t i = 0; i < n; ++i) h[i] = float16(float(d[i]));
  std::vector<std::byte> hp(n * 2);
  std::memcpy(hp.data(), h.data(), hp.size());
  truncate_mantissa(hp, Storage::FP16, 4);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint16_t bits;
    std::memcpy(&bits, hp.data() + i * 2, 2);
    EXPECT_EQ(bits & 0x3F, 0) << "low 6 mantissa bits must be zeroed";
    EXPECT_EQ(bits & ~0x3F, h[i].bits() & ~0x3F);
  }
}

TEST(MantissaTruncationTest, KeepBitsForRoundoff) {
  EXPECT_EQ(keep_bits_for_roundoff(std::ldexp(1.0, -10), Storage::FP64), 10);
  EXPECT_EQ(keep_bits_for_roundoff(std::ldexp(1.0, -24), Storage::FP64), 24);
  // Clamped to the format's mantissa on both ends.
  EXPECT_EQ(keep_bits_for_roundoff(1e-300, Storage::FP64), 52);
  EXPECT_EQ(keep_bits_for_roundoff(0.5, Storage::FP64), 1);
  EXPECT_EQ(keep_bits_for_roundoff(1e-9, Storage::FP32), 23);
  EXPECT_EQ(keep_bits_for_roundoff(std::ldexp(1.0, -6), Storage::FP16), 6);
  // A keep-bits answer k must actually satisfy the bound 2^-k <= u.
  for (double u : {1e-2, 1e-4, 1e-6, 1e-8}) {
    const int k = keep_bits_for_roundoff(u, Storage::FP64);
    EXPECT_LE(std::ldexp(1.0, -k), u);
    if (k > 1) {
      EXPECT_GT(std::ldexp(1.0, -(k - 1)), u);
    }
  }
}

TEST(ByteShuffleTest, RoundTripsAndGroupsPlanes) {
  // Sizes around the 8-element groups the register transposes take, and
  // element sizes they do not handle, against the plain per-plane layout.
  Rng rng(21);
  for (std::size_t elem : {1, 2, 3, 4, 8, 16}) {
    for (std::size_t n : {0, 1, 7, 8, 9, 15, 16, 17, 63, 256, 257, 1001}) {
      std::vector<std::byte> in(n * elem);
      for (auto& b : in) b = std::byte(rng.uniform_index(256));
      std::vector<std::byte> shuf(in.size()), back(in.size());
      byte_shuffle(in, shuf, elem);
      byte_unshuffle(shuf, back, elem);
      EXPECT_EQ(in, back);
      // Plane b holds byte b of every element, in element order.
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t b = 0; b < elem; ++b) {
          EXPECT_EQ(shuf[b * n + i], in[i * elem + b]);
        }
      }
    }
  }
}

/// Append `len` bytes of one kind of content: noise, a zero run, a short
/// period, or a two-symbol alphabet.
void append_segment(std::vector<std::byte>& v, int kind, std::size_t len,
                    Rng& rng) {
  const std::size_t period = 2 + rng.uniform_index(300);
  const std::uint8_t sym[2] = {std::uint8_t(rng.uniform_index(256)), 0x80};
  for (std::size_t i = 0; i < len; ++i) {
    switch (kind) {
      case 0: v.push_back(std::byte(rng.uniform_index(256))); break;
      case 1: v.push_back(std::byte{0}); break;
      case 2: v.push_back(std::byte((i % period) * 37 % 251)); break;
      default: v.push_back(std::byte(sym[rng.uniform_index(2)])); break;
    }
  }
}

/// A buffer of whole elem-byte elements mixing all segment kinds, with
/// segment lengths that straddle the encoder's 1 KiB gate blocks.
std::vector<std::byte> mixed_buffer(std::size_t elems, std::size_t elem,
                                    Rng& rng) {
  std::vector<std::byte> v;
  const std::size_t bytes = elems * elem;
  while (v.size() < bytes) {
    const std::size_t len = std::min(bytes - v.size(),
                                     std::size_t(1 + rng.uniform_index(2500)));
    append_segment(v, int(rng.uniform_index(4)), len, rng);
  }
  return v;
}

TEST(LzCodecTest, MixedBuffersRoundTripAndEncodeDeterministically) {
  Rng rng(32);
  for (std::size_t elem : {1, 2, 4, 8}) {
    // Byte sizes around one gate block, a few blocks, and planes that end
    // mid-block.
    for (std::size_t bytes : {1023, 1024, 1025, 2048, 4099, 65536, 70001}) {
      const std::size_t elems = bytes / elem + 1;
      const std::vector<std::byte> in = mixed_buffer(elems, elem, rng);
      const std::vector<std::byte> packed = lz_compress(in);
      std::vector<std::byte> out(in.size());
      ASSERT_TRUE(lz_decompress(packed, out)) << elem << "/" << bytes;
      EXPECT_EQ(out, in);
      EXPECT_EQ(lz_compress(in), packed);  // same input, same stream

      const CompressedBuffer c = compress_bytes(in, elem);
      EXPECT_LE(c.size_bytes(), in.size());
      std::vector<std::byte> back(in.size());
      decompress_bytes(c, back);
      EXPECT_EQ(back, in) << elem << "/" << bytes;
      // Per-thread encoder state never leaks into the output: another
      // thread, and this one after other inputs, produce the same bytes.
      CompressedBuffer other;
      std::thread([&] { other = compress_bytes(in, elem); }).join();
      EXPECT_EQ(other.data, c.data);
      EXPECT_EQ(other.lz, c.lz);
      EXPECT_EQ(compress_bytes(in, elem).data, c.data);
    }
  }
}

/// Byte-at-a-time reference for one match: out[i] = out[i - offset].
void reference_match(std::vector<std::byte>& out, std::size_t offset,
                     std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) out.push_back(out[out.size() - offset]);
}

TEST(LzCodecTest, DecodesOverlappingMatches) {
  // One op per case: `lit` literals, then a match at `offset` of `len`
  // bytes, then one final literal. Offsets below the length replicate the
  // period the literals set up; the others copy without overlap.
  struct Case {
    std::size_t lit, offset, len;
  };
  for (const Case k : {Case{1, 1, 4}, Case{1, 1, 300}, Case{2, 2, 9},
                       Case{3, 3, 10}, Case{3, 3, 200}, Case{5, 5, 41},
                       Case{7, 7, 16}, Case{9, 9, 18}, Case{12, 12, 16},
                       Case{12, 12, 8}, Case{16, 16, 16}, Case{20, 16, 33},
                       Case{40, 40, 4}, Case{40, 35, 30}, Case{40, 17, 19}}) {
    std::vector<std::byte> stream, want;
    const std::size_t m = k.len - 4;
    stream.push_back(std::byte((std::min<std::size_t>(k.lit, 15) << 4) |
                               std::min<std::size_t>(m, 15)));
    if (k.lit >= 15) stream.push_back(std::byte(k.lit - 15));
    for (std::size_t i = 0; i < k.lit; ++i) {
      stream.push_back(std::byte(0x41 + i));
      want.push_back(std::byte(0x41 + i));
    }
    stream.push_back(std::byte(k.offset & 0xFF));
    stream.push_back(std::byte(k.offset >> 8));
    if (m >= 15) {
      for (std::size_t r = m - 15; ; r -= 255) {
        stream.push_back(std::byte(std::min<std::size_t>(r, 255)));
        if (r < 255) break;
      }
    }
    reference_match(want, k.offset, k.len);
    stream.push_back(std::byte{0x10});  // final op: one literal
    stream.push_back(std::byte{0x7A});
    want.push_back(std::byte{0x7A});

    std::vector<std::byte> out(want.size());
    ASSERT_TRUE(lz_decompress(stream, out))
        << "offset " << k.offset << " len " << k.len;
    EXPECT_EQ(out, want) << "offset " << k.offset << " len " << k.len;
  }
}

TEST(LzCodecTest, GoldenTokenStream) {
  // The on-disk and wire format, written out by hand:
  //   op 1: token 0x32 = 3 literals, match length 2 + 4 = 6;
  //         literals "abc"; offset 3 (LE) -> "abcabc"
  //   op 2: token 0xF0 = 15 + 255 + 2 = 272 literals (extension 255, 2),
  //         no match half: only the last op may omit it
  // which must decode to "abcabcabc" followed by the 272 literals.
  const std::vector<std::uint8_t> head = {0x32, 'a', 'b', 'c', 0x03, 0x00,
                                          0xF0, 0xFF, 0x02};
  std::vector<std::byte> stream = to_bytes(head);
  std::vector<std::byte> want = to_bytes({'a', 'b', 'c', 'a', 'b', 'c', 'a',
                                          'b', 'c'});
  for (std::size_t i = 0; i < 272; ++i) {
    stream.push_back(std::byte(i * 7));
    want.push_back(std::byte(i * 7));
  }
  std::vector<std::byte> out(want.size());
  ASSERT_TRUE(lz_decompress(stream, out));
  EXPECT_EQ(out, want);

  // A match-length extension: token 0x1F = 1 literal, match 15 + 4 + ext;
  // ext 255 then 0 -> a 274-byte run of the literal at offset 1.
  const std::vector<std::byte> run =
      to_bytes({0x1F, 0x55, 0x01, 0x00, 0xFF, 0x00});
  std::vector<std::byte> run_out(275);
  ASSERT_TRUE(lz_decompress(run, run_out));
  EXPECT_EQ(run_out, std::vector<std::byte>(275, std::byte{0x55}));

  // The same stream as an elem_size-1 LZ buffer, through decompress_bytes.
  CompressedBuffer c;
  c.elem_size = 1;
  c.lz = true;
  c.raw_bytes = want.size();
  c.data = stream;
  std::vector<std::byte> via_buffer(want.size());
  decompress_bytes(c, via_buffer);
  EXPECT_EQ(via_buffer, want);
}

TEST(LzCodecTest, RoundTripsStructuredAndRandomData) {
  Rng rng(31);
  std::vector<std::vector<std::byte>> cases;
  cases.push_back({});                                   // empty
  cases.push_back(to_bytes({1, 2, 3}));                  // below min match
  cases.push_back(std::vector<std::byte>(100000, std::byte{0}));  // one run
  {
    std::vector<std::byte> v(5000);  // periodic (long overlapping matches)
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = std::byte(i % 7);
    cases.push_back(v);
  }
  {
    std::vector<std::byte> v(70000);  // incompressible, > 16-bit offsets
    for (auto& b : v) b = std::byte(rng.uniform_index(256));
    cases.push_back(v);
  }
  {
    std::vector<std::byte> v;  // long literal run, then a far-back match
    for (std::size_t i = 0; i < 4000; ++i) v.push_back(std::byte(rng.uniform_index(256)));
    v.insert(v.end(), v.begin(), v.begin() + 300);
    cases.push_back(v);
  }
  for (const auto& in : cases) {
    const std::vector<std::byte> packed = lz_compress(in);
    std::vector<std::byte> out(in.size());
    ASSERT_TRUE(lz_decompress(packed, out));
    EXPECT_EQ(in, out);
  }
}

TEST(LzCodecTest, CompressesRunsWell) {
  const std::vector<std::byte> zeros(1 << 20, std::byte{0});
  const std::vector<std::byte> packed = lz_compress(zeros);
  EXPECT_LT(packed.size(), zeros.size() / 100);
}

TEST(LzCodecTest, RejectsCorruptStreamsSafely) {
  Rng rng(41);
  std::vector<std::byte> in(4096);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = std::byte((i / 16) % 251);
  const std::vector<std::byte> packed = lz_compress(in);
  std::vector<std::byte> out(in.size());
  ASSERT_TRUE(lz_decompress(packed, out));

  // Truncated streams at every prefix length must fail, not crash.
  for (std::size_t cut : {std::size_t(0), std::size_t(1), packed.size() / 2,
                          packed.size() - 1}) {
    std::vector<std::byte> trunc(packed.begin(),
                                 packed.begin() + std::ptrdiff_t(cut));
    EXPECT_FALSE(lz_decompress(trunc, out)) << "cut=" << cut;
  }
  // Random single-byte corruptions either fail or still fill the buffer —
  // never read/write out of bounds (exercised under ASan in sanitizer CI).
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::byte> bad = packed;
    bad[rng.uniform_index(bad.size())] = std::byte(rng.uniform_index(256));
    (void)lz_decompress(bad, out);
  }
  // Wrong declared output size must fail.
  std::vector<std::byte> small(in.size() - 1);
  EXPECT_FALSE(lz_decompress(packed, small));
}

TEST(CompressedBufferTest, StoredFallbackNeverExpands) {
  Rng rng(51);
  std::vector<std::byte> noise(8192);
  for (auto& b : noise) b = std::byte(rng.uniform_index(256));
  const CompressedBuffer c = compress_bytes(noise, 8);
  EXPECT_LE(c.size_bytes(), noise.size());
  EXPECT_FALSE(c.lz);  // incompressible -> stored verbatim
  std::vector<std::byte> out(noise.size());
  decompress_bytes(c, out);
  EXPECT_EQ(noise, out);

  std::vector<std::byte> wrong(noise.size() + 1);
  EXPECT_THROW(decompress_bytes(c, wrong), Error);
}

AnyTile random_tile(Storage s, std::size_t rows, std::size_t cols,
                    std::uint64_t seed) {
  Rng rng(seed);
  AnyTile t(rows, cols, s);
  std::vector<double> v(rows * cols);
  for (double& x : v) x = rng.normal();
  t.from_double(v);
  return t;
}

TEST(TileCodecTest, LosslessRoundTripEveryLadderRung) {
  for (const Storage stor : {Storage::FP64, Storage::FP32, Storage::FP16}) {
    const AnyTile t = random_tile(stor, 48, 31, 61);
    for (const Storage wire : {Storage::FP64, Storage::FP32, Storage::FP16}) {
      const WirePayload p = serialize_tile(t, wire);
      const CompressedBlob c = compress_payload(p);
      EXPECT_LE(c.size_bytes(), p.size_bytes());
      const WirePayload back = decompress_payload(c);
      EXPECT_EQ(back.format, p.format);
      EXPECT_EQ(back.rows, p.rows);
      EXPECT_EQ(back.cols, p.cols);
      EXPECT_EQ(back.bytes, p.bytes);  // bit-exact
    }
    // Tile-level round trip through decompress_into.
    const CompressedBlob c = compress_tile(t);
    AnyTile dst(t.rows(), t.cols(), t.storage());
    decompress_into(c, dst);
    const auto a = t.raw_bytes();
    const auto b = dst.raw_bytes();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0);
  }
}

TEST(TileCodecTest, TruncatingRoundTripIsExactAtDeclaredPrecision) {
  const AnyTile t = random_tile(Storage::FP64, 40, 40, 71);
  for (int keep : {6, 12, 20, 40}) {
    // Storage truncation happens in place; the codec then round-trips the
    // truncated values losslessly.
    AnyTile truncated = t;
    truncate_mantissa(truncated.raw_bytes(), truncated.storage(), keep);
    const CompressedBlob c = compress_tile(truncated);
    AnyTile dst(t.rows(), t.cols(), t.storage());
    decompress_into(c, dst);
    for (std::size_t j = 0; j < t.cols(); ++j) {
      for (std::size_t i = 0; i < t.rows(); ++i) {
        ASSERT_EQ(dst.at(i, j), truncate_mantissa(t.at(i, j), keep));
      }
    }
    // Truncating and compressing the result again is a fixed point.
    truncate_mantissa(dst.raw_bytes(), dst.storage(), keep);
    const CompressedBlob c2 = compress_tile(dst);
    AnyTile dst2(t.rows(), t.cols(), t.storage());
    decompress_into(c2, dst2);
    const auto a = dst.raw_bytes();
    const auto b = dst2.raw_bytes();
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0);
  }
}

TEST(TileCodecTest, TruncationMakesSmoothTilesCompressSmaller) {
  // A smooth (covariance-like) tile: exponent bytes are near-constant, so
  // shuffle + LZ already bites; truncation must bite strictly harder.
  const std::size_t nb = 64;
  AnyTile t(nb, nb, Storage::FP64);
  std::vector<double> v(nb * nb);
  for (std::size_t j = 0; j < nb; ++j) {
    for (std::size_t i = 0; i < nb; ++i) {
      const double d = double(i) - double(j);
      v[i + j * nb] = std::exp(-d * d / 1000.0);
    }
  }
  t.from_double(v);
  const CompressedBlob lossless = compress_tile(t);
  AnyTile kept = t;
  truncate_mantissa(kept.raw_bytes(), kept.storage(), 13);  // ~u_req 1e-4
  const CompressedBlob truncated = compress_tile(kept);
  EXPECT_LT(lossless.size_bytes(), t.bytes());
  EXPECT_LT(truncated.size_bytes(), lossless.size_bytes());
}

TEST(TileCodecTest, DecompressPayloadValidatesHeader) {
  const AnyTile t = random_tile(Storage::FP32, 8, 8, 81);
  CompressedBlob c = compress_tile(t);
  c.rows = 9;  // header no longer matches the compressed byte count
  EXPECT_THROW(decompress_payload(c), Error);
}

// ---------------------------------------------------------------------------
// TileMatrix out-of-core spill tier (core/tile_matrix.hpp)
// ---------------------------------------------------------------------------

/// Mixed-storage symmetric test matrix with deterministic smooth-ish
/// content; diagonally dominant so it is also factorable.
TileMatrix spd_matrix(std::size_t n, std::size_t nb, std::uint64_t seed) {
  Rng rng(seed);
  TileMatrix a(n, nb);
  const Storage cycle[] = {Storage::FP64, Storage::FP32, Storage::FP16};
  std::size_t next = 0;
  for (std::size_t m = 0; m < a.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      if (m != k) a.set_storage(m, k, cycle[next++ % 3]);
      AnyTile& t = a.tile(m, k);
      std::vector<double> v(t.size());
      for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = rng.uniform(-1.0, 1.0) * 0.125;
      t.from_double(v);
      if (m == k) {
        for (std::size_t i = 0; i < t.rows(); ++i)
          t.set(i, i, t.at(i, i) + 2.0 * double(n));
      }
    }
  }
  return a;
}

std::vector<std::vector<std::byte>> tile_bytes(const TileMatrix& a) {
  std::vector<std::vector<std::byte>> out;
  for (std::size_t m = 0; m < a.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      const auto raw = a.tile(m, k).raw_bytes();
      out.emplace_back(raw.begin(), raw.end());
    }
  }
  return out;
}

TEST(SpillTierTest, SpillAndRestoreRoundTripsBitExactly) {
  TileMatrix a = spd_matrix(96, 24, 3);
  const std::vector<std::vector<std::byte>> before = tile_bytes(a);
  const std::size_t at_rest = a.bytes();
  const std::size_t ntiles = a.num_tiles() * (a.num_tiles() + 1) / 2;
  const std::size_t slot = a.nb() * a.nb() * sizeof(double);

  EXPECT_FALSE(a.spill_enabled());
  EXPECT_THROW(a.spill(0, 0), Error);  // tier not enabled

  SpillOptions sopts;
  sopts.enabled = true;
  a.enable_spill(sopts);
  ASSERT_TRUE(a.spill_enabled());

  const std::size_t appended = a.spill_all();
  EXPECT_GT(appended, 0u);
  EXPECT_LT(appended, at_rest);  // structured tiles must actually compress
  for (std::size_t m = 0; m < a.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      EXPECT_TRUE(a.spilled(m, k));
      EXPECT_FALSE(a.tile(m, k).resident());
    }
  }
  // Every tile sits in its own fixed slot, the last one ending the file.
  const std::size_t file_bytes = a.spill_stats().file_bytes;
  EXPECT_GT(file_bytes, (ntiles - 1) * slot);
  EXPECT_LE(file_bytes, ntiles * slot);
  {
    const SpillStats s = a.spill_stats();
    EXPECT_EQ(s.spills, ntiles);
    EXPECT_EQ(s.restores, 0u);
    EXPECT_EQ(s.spilled_bytes, appended);
  }
  // Re-spilling a spilled tile is a no-op, not a second write.
  EXPECT_EQ(a.spill(0, 0), 0u);
  EXPECT_EQ(a.spill_stats().spills, ntiles);

  a.restore_all();
  const std::vector<std::vector<std::byte>> after = tile_bytes(a);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(before[i].size(), after[i].size()) << "tile " << i;
    EXPECT_EQ(std::memcmp(before[i].data(), after[i].data(),
                          before[i].size()),
              0)
        << "tile " << i;
  }
  const SpillStats s = a.spill_stats();
  EXPECT_EQ(s.restores, ntiles);
  EXPECT_EQ(s.spilled_bytes, 0u);
  EXPECT_EQ(s.file_bytes, file_bytes);  // restores never grow the file
}

#if defined(__GLIBC__)
std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;  // arena chunks plus mmapped chunks
}

TEST(SpillTierTest, SpilledTilesFreeTheirMemory) {
  // The spill tier keeps only a header per spilled tile: after spill_all()
  // the heap must have shed most of the payload, not traded it for
  // compressed copies left behind in the slot directory.
  TileMatrix a = spd_matrix(1024, 256, 19);
  const std::size_t payload = a.bytes();
  SpillOptions sopts;
  sopts.enabled = true;
  a.enable_spill(sopts);
  (void)compress_tile(a.tile(0, 0));  // size this thread's codec scratch
  const std::size_t before = heap_in_use();
  if (before == 0) {
    GTEST_SKIP() << "allocator keeps no glibc heap statistics (sanitizer "
                    "runtimes replace malloc)";
  }
  a.spill_all();
  const std::size_t after = heap_in_use();
  EXPECT_LT(after + payload / 2, before)
      << "heap " << before << " -> " << after << " B, payload " << payload;
  a.restore_all();
}
#endif

TEST(SpillTierTest, NamedBackingFileAndMetrics) {
  TileMatrix a = spd_matrix(48, 16, 9);
  MetricsRegistry reg;
  SpillOptions sopts;
  sopts.enabled = true;
  sopts.path = ::testing::TempDir() + "mpgeo_spill_test.bin";
  sopts.metrics = &reg;
  a.enable_spill(sopts);
  a.spill(1, 0);
  a.spill(2, 1);
  a.restore(1, 0);
  EXPECT_EQ(reg.counter_value("tile.spills"), 2u);
  EXPECT_EQ(reg.counter_value("tile.restores"), 1u);
  EXPECT_TRUE(a.spilled(2, 1));
  EXPECT_FALSE(a.spilled(1, 0));
  a.restore_all();
  std::remove(sopts.path.c_str());
}

TEST(SpillTierTest, CopyMaterializesSpilledTilesThroughTheCodec) {
  TileMatrix a = spd_matrix(48, 16, 5);
  const std::vector<std::vector<std::byte>> before = tile_bytes(a);
  SpillOptions sopts;
  sopts.enabled = true;
  a.enable_spill(sopts);
  a.spill(0, 0);
  a.spill(2, 1);
  const SpillStats pre = a.spill_stats();

  // Copying a partially-spilled matrix reads the spilled blobs through the
  // codec: the copy comes out fully resident and bit-identical while the
  // source's residency set, restore count and file are untouched.
  TileMatrix copy(a);
  EXPECT_FALSE(copy.spill_enabled());  // copies start without a tier
  EXPECT_TRUE(a.spill_enabled());
  EXPECT_TRUE(a.spilled(0, 0));
  EXPECT_TRUE(a.spilled(2, 1));
  const SpillStats post = a.spill_stats();
  EXPECT_EQ(post.restores, pre.restores);
  EXPECT_EQ(post.spilled_bytes, pre.spilled_bytes);
  EXPECT_EQ(post.file_bytes, pre.file_bytes);
  const auto copied = tile_bytes(copy);
  for (std::size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(copied[i].size(), before[i].size());
    EXPECT_EQ(
        std::memcmp(copied[i].data(), before[i].data(), before[i].size()), 0)
        << "tile " << i;
  }

  // Same-geometry copy-assignment over the partially-spilled destination:
  // the destination comes back fully resident with every slot free, and
  // the tier survives.
  TileMatrix fresh = spd_matrix(48, 16, 6);
  a = fresh;
  EXPECT_TRUE(a.spill_enabled());
  EXPECT_FALSE(a.spilled(0, 0));
  EXPECT_FALSE(a.spilled(2, 1));
  EXPECT_EQ(a.spill_stats().spilled_bytes, 0u);
  const auto want = tile_bytes(fresh);
  const auto got = tile_bytes(a);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::memcmp(got[i].data(), want[i].data(), want[i].size()), 0)
        << "tile " << i;
  }
  a.spill(0, 0);  // the surviving tier still works
  EXPECT_TRUE(a.spilled(0, 0));
  a.restore_all();

  // Copy-assigning *from* a spilled source also reads through the codec.
  fresh.enable_spill(sopts);
  fresh.spill_all();
  TileMatrix b(48, 16);
  b = fresh;
  EXPECT_TRUE(fresh.spilled(0, 0));  // source untouched
  const auto got2 = tile_bytes(b);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::memcmp(got2[i].data(), want[i].data(), want[i].size()), 0)
        << "tile " << i;
  }

  // Geometry-mismatched copy-assignment drops the destination's tier.
  const TileMatrix bigger = spd_matrix(64, 16, 7);
  a = bigger;
  EXPECT_FALSE(a.spill_enabled());
}

TEST(SpillTierTest, MpCholeskyRestoresSpilledInputAndMatches) {
  // A factorization of a spilled matrix restores everything up front and
  // produces the same factor bits as the never-spilled run.
  const std::size_t n = 96, nb = 24;
  TileMatrix ref = spd_matrix(n, nb, 17);
  TileMatrix a = ref;
  MpCholeskyOptions opt;
  opt.u_req = 1e-4;
  opt.num_threads = 2;
  const MpCholeskyResult r0 = mp_cholesky(ref, opt);
  ASSERT_EQ(r0.info, 0);

  SpillOptions sopts;
  sopts.enabled = true;
  a.enable_spill(sopts);
  a.spill_all();
  const MpCholeskyResult r = mp_cholesky(a, opt);
  ASSERT_EQ(r.info, 0);
  EXPECT_GE(a.spill_stats().restores, a.spill_stats().spills);
  for (std::size_t m = 0; m < a.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      const AnyTile& ta = ref.tile(m, k);
      const AnyTile& tb = a.tile(m, k);
      ASSERT_EQ(ta.storage(), tb.storage()) << m << "," << k;
      ASSERT_TRUE(tb.resident());
      EXPECT_EQ(std::memcmp(ta.raw_bytes().data(), tb.raw_bytes().data(),
                            ta.raw_bytes().size()),
                0)
          << m << "," << k;
    }
  }
}

}  // namespace
}  // namespace mpgeo
