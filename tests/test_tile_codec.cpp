// Property tests for the tile compression codec (src/linalg/tile_codec):
// k-bit mantissa truncation is idempotent and error-bounded, the LZ stage
// round-trips arbitrary byte strings and rejects corrupt streams without
// reading out of bounds, and decompress(compress(tile)) is bit-exact at the
// declared precision on every ladder rung.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

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
  Rng rng(21);
  for (std::size_t elem : {std::size_t(2), std::size_t(4), std::size_t(8)}) {
    for (std::size_t n : {std::size_t(1), std::size_t(7), std::size_t(256)}) {
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
    TileCodecOptions opts;
    opts.keep_bits = keep;
    const CompressedBlob c = compress_tile(t, opts);
    EXPECT_EQ(c.keep_bits, keep);
    AnyTile dst(t.rows(), t.cols(), t.storage());
    decompress_into(c, dst);
    for (std::size_t j = 0; j < t.cols(); ++j) {
      for (std::size_t i = 0; i < t.rows(); ++i) {
        ASSERT_EQ(dst.at(i, j), truncate_mantissa(t.at(i, j), keep));
      }
    }
    // Compressing the truncated result again is a fixed point.
    const CompressedBlob c2 = compress_tile(dst, opts);
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
  TileCodecOptions opts;
  opts.keep_bits = 13;  // ~u_req 1e-4
  const CompressedBlob truncated = compress_tile(t, opts);
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
  {
    const SpillStats s = a.spill_stats();
    EXPECT_EQ(s.spills, ntiles);
    EXPECT_EQ(s.restores, 0u);
    EXPECT_EQ(s.spilled_bytes, appended);
    EXPECT_EQ(s.file_bytes, appended);
  }
  // Re-spilling a spilled tile is a no-op, not a second append.
  EXPECT_EQ(a.spill(0, 0), 0u);
  EXPECT_EQ(a.spill_stats().file_bytes, appended);

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
  EXPECT_EQ(s.file_bytes, appended);  // the log never shrinks
}

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
  // source's residency set, restore count and log are untouched.
  TileMatrix copy(a);
  EXPECT_FALSE(copy.spill_enabled());  // copies start without a tier
  EXPECT_TRUE(a.spill_enabled());
  EXPECT_TRUE(a.spilled(0, 0));
  EXPECT_TRUE(a.spilled(2, 1));
  const SpillStats post = a.spill_stats();
  EXPECT_EQ(post.restores, pre.restores);
  EXPECT_EQ(post.spilled_bytes, pre.spilled_bytes);
  EXPECT_EQ(post.log_bytes, pre.log_bytes);
  const auto copied = tile_bytes(copy);
  for (std::size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(copied[i].size(), before[i].size());
    EXPECT_EQ(
        std::memcmp(copied[i].data(), before[i].data(), before[i].size()), 0)
        << "tile " << i;
  }

  // Same-geometry copy-assignment over the partially-spilled destination:
  // the destination's live blobs become log garbage, the destination comes
  // back fully resident, and the tier survives.
  TileMatrix fresh = spd_matrix(48, 16, 6);
  a = fresh;
  EXPECT_TRUE(a.spill_enabled());
  EXPECT_FALSE(a.spilled(0, 0));
  EXPECT_FALSE(a.spilled(2, 1));
  EXPECT_GT(a.spill_stats().garbage_bytes(), 0u);
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
