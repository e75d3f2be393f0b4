// Tests for the rank-sharded execution path (src/dist): block-cyclic
// ownership, the wire codec's exactness contract, bitwise identity of the
// sharded factorization and MLE across rank counts and pool sizes, wire
// metric reconciliation against the analytic fold and the gpusim replay,
// rank affinity of the sharded executor session, and escalation recovery
// from a corrupted panel broadcast.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cholesky_tasks.hpp"
#include "core/mle.hpp"
#include "core/mp_cholesky.hpp"
#include "core/tiled_covariance.hpp"
#include "dist/owner_map.hpp"
#include "dist/wire.hpp"
#include "linalg/reference.hpp"
#include "linalg/tile_codec.hpp"
#include "linalg/wire_codec.hpp"
#include "obs/metrics.hpp"
#include "runtime/fault_injection.hpp"
#include "stats/covariance.hpp"
#include "stats/field.hpp"
#include "stats/locations.hpp"

namespace mpgeo {
namespace {

TileMatrix covariance_problem(std::size_t n, std::size_t nb,
                              std::uint64_t seed = 7, double beta = 0.1,
                              double nugget = 1e-8) {
  Rng rng(seed);
  const LocationSet locs = generate_locations(n, 2, rng);
  const Covariance cov(CovKind::SqExp);
  return build_tiled_covariance(cov, locs, std::vector<double>{1.0, beta}, nb,
                                nugget);
}

/// Well-conditioned random SPD matrix with tile-norm decay away from the
/// diagonal (the test_mp_cholesky idiom): coarse u_req gives a genuinely
/// mixed precision map — so STC wire rounding fires — without the breakdown
/// risk a near-singular covariance carries under loose arithmetic.
TileMatrix random_spd_problem(std::size_t n, std::size_t nb,
                              std::uint64_t seed) {
  Rng rng(seed);
  Matrix<double> b(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) b(i, j) = rng.uniform(-1.0, 1.0);
  TileMatrix tiles(n, nb);
  std::vector<double> buf;
  for (std::size_t m = 0; m < tiles.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      AnyTile& t = tiles.tile(m, k);
      buf.resize(t.size());
      for (std::size_t j = 0; j < t.cols(); ++j) {
        for (std::size_t i = 0; i < t.rows(); ++i) {
          const std::size_t gi = m * nb + i, gj = k * nb + j;
          double acc = (gi == gj) ? double(n) : 0.0;
          for (std::size_t q = 0; q < n; ++q) acc += b(gi, q) * b(gj, q);
          if (m != k) acc *= std::exp(-1.5 * double(m - k));
          buf[i + j * t.rows()] = acc;
        }
      }
      t.from_double(buf);
    }
  }
  return tiles;
}

/// Bitwise equality of two factored TileMatrices (storage formats included).
::testing::AssertionResult factors_identical(const TileMatrix& a,
                                             const TileMatrix& b) {
  if (a.num_tiles() != b.num_tiles()) {
    return ::testing::AssertionFailure() << "tile-count mismatch";
  }
  for (std::size_t m = 0; m < a.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      const AnyTile& ta = a.tile(m, k);
      const AnyTile& tb = b.tile(m, k);
      if (ta.storage() != tb.storage()) {
        return ::testing::AssertionFailure()
               << "storage mismatch at (" << m << "," << k << ")";
      }
      const auto ra = ta.raw_bytes();
      const auto rb = tb.raw_bytes();
      if (ra.size() != rb.size() ||
          std::memcmp(ra.data(), rb.data(), ra.size()) != 0) {
        return ::testing::AssertionFailure()
               << "bytes differ at (" << m << "," << k << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(OwnerMapTest, ProcessGridPrefersSquarest) {
  EXPECT_EQ(process_grid(1), (std::pair<std::size_t, std::size_t>{1, 1}));
  EXPECT_EQ(process_grid(4), (std::pair<std::size_t, std::size_t>{2, 2}));
  EXPECT_EQ(process_grid(6), (std::pair<std::size_t, std::size_t>{2, 3}));
  EXPECT_EQ(process_grid(8), (std::pair<std::size_t, std::size_t>{2, 4}));
  EXPECT_EQ(process_grid(7), (std::pair<std::size_t, std::size_t>{1, 7}));
  EXPECT_EQ(process_grid(12), (std::pair<std::size_t, std::size_t>{3, 4}));
  EXPECT_EQ(process_grid(16), (std::pair<std::size_t, std::size_t>{4, 4}));
  // 64 Summit nodes x 6 GPUs: the grid of the simulated multi-node figures.
  EXPECT_EQ(process_grid(384), (std::pair<std::size_t, std::size_t>{16, 24}));
}

TEST(OwnerMapTest, BlockCyclicPartitionsTheLowerTriangle) {
  for (const std::size_t ranks : {1u, 2u, 3u, 4u, 6u}) {
    for (const std::size_t nt : {1u, 5u, 8u}) {
      const OwnerMap owners(nt, ranks);
      EXPECT_EQ(owners.grid_p() * owners.grid_q(), ranks);
      // Every lower-triangle tile maps to one valid rank.
      for (std::size_t m = 0; m < nt; ++m) {
        for (std::size_t k = 0; k <= m; ++k) {
          const int r = owners.owner(m, k);
          ASSERT_GE(r, 0);
          ASSERT_LT(r, int(ranks));
          // ScaLAPACK block-cyclic: (m mod p) * q + (k mod q).
          EXPECT_EQ(std::size_t(r), (m % owners.grid_p()) * owners.grid_q() +
                                        (k % owners.grid_q()));
        }
      }
    }
  }
}

// Independently re-derive the consumer set from Algorithm 1's reads: walk
// every POTRF/TRSM/SYRK/GEMM, record which tile each reads and which rank
// runs it, and check cholesky_consumer_ranks reports exactly the remote
// reader ranks of each tile's final version.
TEST(OwnerMapTest, ConsumerRanksMatchAlgorithmReads) {
  const std::size_t nt = 7;
  for (const std::size_t ranks : {2u, 3u, 4u}) {
    const OwnerMap owners(nt, ranks);
    // readers[tile idx] = ranks that read tile (m, k) after its last write.
    std::vector<std::set<int>> readers(nt * (nt + 1) / 2);
    const auto idx = [](std::size_t m, std::size_t k) {
      return m * (m + 1) / 2 + k;
    };
    for (std::size_t k = 0; k < nt; ++k) {
      // TRSM(m, k) reads the factored diagonal (k, k).
      for (std::size_t m = k + 1; m < nt; ++m) {
        readers[idx(k, k)].insert(owners.owner(m, k));
      }
      // SYRK(m, k) reads panel (m, k) and runs on owner(m, m).
      for (std::size_t m = k + 1; m < nt; ++m) {
        readers[idx(m, k)].insert(owners.owner(m, m));
      }
      // GEMM(m, n, k) reads panels (m, k) and (n, k), runs on owner(m, n).
      for (std::size_t m = k + 2; m < nt; ++m) {
        for (std::size_t n = k + 1; n < m; ++n) {
          readers[idx(m, k)].insert(owners.owner(m, n));
          readers[idx(n, k)].insert(owners.owner(m, n));
        }
      }
    }
    for (std::size_t m = 0; m < nt; ++m) {
      for (std::size_t k = 0; k <= m; ++k) {
        std::set<int> expected = readers[idx(m, k)];
        expected.erase(owners.owner(m, k));
        const std::vector<int> got = cholesky_consumer_ranks(owners, m, k);
        EXPECT_EQ(std::vector<int>(expected.begin(), expected.end()), got)
            << "tile (" << m << "," << k << ") ranks=" << ranks;
      }
    }
  }
}

// The codec's exactness contract: a tile already rounded through its wire
// format round-trips serialize/deserialize bit-exactly, for every
// (storage, wire) rung pair, including ragged shapes; the payload never
// ships wider than storage.
TEST(WireCodecTest, RoundTripsEveryLadderRungExactly) {
  Rng rng(42);
  for (const Storage storage : {Storage::FP64, Storage::FP32, Storage::FP16}) {
    for (const Storage wire : {Storage::FP64, Storage::FP32, Storage::FP16}) {
      AnyTile t(23, 17, storage);
      std::vector<double> vals(t.size());
      for (double& v : vals) v = rng.uniform(-2.0, 2.0);
      t.from_double(vals);
      if (bytes_per_element(wire) < bytes_per_element(storage)) {
        t.round_through_wire(wire);  // the dist SEND's precondition (STC)
      }
      const WirePayload p = serialize_tile(t, wire);
      EXPECT_EQ(bytes_per_element(p.format),
                std::min(bytes_per_element(wire), bytes_per_element(storage)));
      EXPECT_EQ(p.size_bytes(), t.size() * bytes_per_element(p.format));
      AnyTile back(23, 17, storage);
      deserialize_into(p, back);
      const auto a = t.raw_bytes();
      const auto b = back.raw_bytes();
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0)
          << "storage=" << int(storage) << " wire=" << int(wire);
    }
  }
}

TEST(WireCodecTest, DeserializeRejectsTruncatedOrMissizedPayloads) {
  Rng rng(43);
  AnyTile t(16, 12, Storage::FP32);
  std::vector<double> vals(t.size());
  for (double& v : vals) v = rng.uniform(-1.0, 1.0);
  t.from_double(vals);
  const WirePayload good = serialize_tile(t, Storage::FP32);

  // A truncated payload (a cut-short WireRecord) must raise a structured
  // Error before any memcpy, not read/write out of bounds.
  WirePayload truncated = good;
  truncated.bytes.resize(truncated.bytes.size() - 5);
  AnyTile dst(16, 12, Storage::FP32);
  EXPECT_THROW(deserialize_into(truncated, dst), Error);

  // Length-inflated payloads are equally rejected.
  WirePayload inflated = good;
  inflated.bytes.resize(inflated.bytes.size() + 4);
  EXPECT_THROW(deserialize_into(inflated, dst), Error);

  // Dimension mismatch and a destination narrower than the payload.
  AnyTile wrong_dims(16, 11, Storage::FP32);
  EXPECT_THROW(deserialize_into(good, wrong_dims), Error);
  AnyTile narrow(16, 12, Storage::FP16);
  EXPECT_THROW(deserialize_into(good, narrow), Error);

  // A header whose element count overflows size_t * width must not wrap
  // around into a "consistent" small byte count.
  WirePayload huge = good;
  huge.rows = 0xFFFFFFFFu;
  huge.cols = 0xFFFFFFFFu;
  AnyTile small(16, 12, Storage::FP32);
  EXPECT_THROW(deserialize_into(huge, small), Error);

  // The good payload still round-trips (the checks above reject, not mangle).
  deserialize_into(good, dst);
  EXPECT_EQ(std::memcmp(dst.raw_bytes().data(), t.raw_bytes().data(),
                        t.raw_bytes().size()),
            0);
}

TEST(ShardedCholeskyTest, BitIdenticalAcrossRanksAndSchedulers) {
  // Ragged last tile (180 = 5 * 32 + 20) and a coarse u_req so the maps are
  // genuinely mixed and STC wire rounding actually fires.
  const std::size_t n = 180, nb = 32;
  const TileMatrix pristine = random_spd_problem(n, nb, 7);
  MpCholeskyOptions base;
  base.u_req = 1e-4;
  base.num_threads = 4;
  TileMatrix ref = pristine;
  const MpCholeskyResult r0 = mp_cholesky(ref, base);
  ASSERT_EQ(r0.info, 0);
  EXPECT_EQ(r0.wire.messages, 0u);  // single rank ships nothing
  EXPECT_TRUE(r0.wire_log.empty());

  for (const std::size_t ranks : {2u, 4u}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      MpCholeskyOptions opt = base;
      opt.dist.ranks = ranks;
      opt.num_threads = threads;
      TileMatrix a = pristine;
      const MpCholeskyResult r = mp_cholesky(a, opt);
      ASSERT_EQ(r.info, 0) << "ranks=" << ranks << " threads=" << threads;
      EXPECT_GT(r.wire.messages, 0u);
      EXPECT_TRUE(factors_identical(ref, a))
          << "ranks=" << ranks << " threads=" << threads;
    }
  }

  // All-TTC rounds no panel through the wire, so the payloads ship at storage
  // width and the result still matches the unsharded all-TTC run bit for bit.
  MpCholeskyOptions raw = base;
  raw.comm.strategy = ConversionStrategy::AllTTC;
  TileMatrix ref_raw = pristine;
  ASSERT_EQ(mp_cholesky(ref_raw, raw).info, 0);
  raw.dist.ranks = 3;
  TileMatrix a_raw = pristine;
  const MpCholeskyResult rr = mp_cholesky(a_raw, raw);
  ASSERT_EQ(rr.info, 0);
  EXPECT_EQ(rr.wire.stc_sends, 0u);  // storage-width payloads are all TTC
  EXPECT_TRUE(factors_identical(ref_raw, a_raw));
}

TEST(ShardedCholeskyTest, WireMetricsReconcileWithFoldAndReplay) {
  const std::size_t n = 180, nb = 32, ranks = 4;
  TileMatrix a = random_spd_problem(n, nb, 7);
  const std::size_t nt = a.num_tiles();
  MetricsRegistry reg;
  MpCholeskyOptions opt;
  opt.u_req = 1e-4;
  opt.num_threads = 4;
  opt.dist.ranks = ranks;
  opt.metrics = &reg;
  const MpCholeskyResult r = mp_cholesky(a, opt);
  ASSERT_EQ(r.info, 0);

  // Log, aggregate stats, and the published counters all agree.
  EXPECT_EQ(r.wire.messages, r.wire_log.size());
  EXPECT_EQ(r.wire.stc_sends + r.wire.ttc_sends, r.wire.messages);
  EXPECT_GT(r.wire.stc_sends, 0u);  // coarse u_req => some panels ship narrow
  EXPECT_EQ(reg.counter_value("wire.msgs"), r.wire.messages);
  EXPECT_EQ(reg.counter_value("wire.bytes"), r.wire.bytes);
  EXPECT_EQ(reg.counter_value("wire.stc_sends"), r.wire.stc_sends);
  EXPECT_EQ(reg.counter_value("wire.ttc_sends"), r.wire.ttc_sends);
  std::size_t log_bytes = 0, pair_bytes = 0;
  for (const WireRecord& rec : r.wire_log) {
    EXPECT_NE(rec.src, rec.dst);
    log_bytes += rec.bytes;
  }
  EXPECT_EQ(log_bytes, r.wire.bytes);
  for (std::size_t s = 0; s < ranks; ++s) {
    for (std::size_t d = 0; d < ranks; ++d) {
      if (s == d) continue;
      pair_bytes += reg.counter_value("wire.bytes." + std::to_string(s) +
                                      "->" + std::to_string(d));
    }
  }
  EXPECT_EQ(pair_bytes, r.wire.bytes);

  // The analytic fold predicts the measured traffic exactly.
  const OwnerMap owners(nt, ranks);
  EXPECT_EQ(expected_wire_bytes(r.pmap, r.cmap, owners, n, nb), r.wire.bytes);

  // And the gpusim replay moves exactly the measured bytes over the network.
  MetricsRegistry sim_reg;
  const SimReport sim = replay_wire_log(r.wire_log, ranks, &sim_reg);
  EXPECT_EQ(sim.network_bytes, r.wire.bytes);
  EXPECT_EQ(sim_reg.counter_value("sim.bytes.network"), r.wire.bytes);
}

TEST(CompressedWireTest, CompressionIsBitIdenticalAndReconciles) {
  // Smooth covariance tiles so the codec genuinely bites: with wire
  // compression on, every shipped payload must round-trip bit-exactly (the
  // factor matches the uncompressed run), and the compressed byte totals
  // must reconcile three ways — the wire.* counters, the WireStats fold of
  // the log, and the gpusim replay's compressed link.
  const std::size_t n = 180, nb = 32, ranks = 4;
  const TileMatrix pristine = covariance_problem(n, nb, 7, 0.1, 0.02);
  MpCholeskyOptions base;
  base.u_req = 1e-4;
  base.num_threads = 4;
  base.dist.ranks = ranks;
  TileMatrix ref = pristine;
  const MpCholeskyResult r0 = mp_cholesky(ref, base);
  ASSERT_EQ(r0.info, 0);
  ASSERT_GT(r0.wire.messages, 0u);

  MetricsRegistry reg;
  MpCholeskyOptions opt = base;
  opt.compress_wire = true;
  opt.metrics = &reg;
  TileMatrix a = pristine;
  const MpCholeskyResult r = mp_cholesky(a, opt);
  ASSERT_EQ(r.info, 0);
  EXPECT_TRUE(factors_identical(ref, a));

  // Every record shipped compressed, never larger than its payload (the
  // codec's stored fallback guarantees that bound record by record).
  ASSERT_EQ(r.wire_log.size(), r0.wire_log.size());
  std::size_t payload_bytes = 0, shipped_bytes = 0;
  for (const WireRecord& rec : r.wire_log) {
    EXPECT_TRUE(rec.compressed);
    EXPECT_GT(rec.wire_bytes, 0u);
    EXPECT_LE(rec.wire_bytes, rec.bytes);
    EXPECT_EQ(rec.shipped_bytes(), rec.wire_bytes);
    payload_bytes += rec.bytes;
    shipped_bytes += rec.wire_bytes;
  }
  // Payload accounting is untouched by compression: the analytic fold still
  // predicts it exactly, message for message.
  EXPECT_EQ(payload_bytes, r0.wire.bytes);
  const OwnerMap owners(a.num_tiles(), ranks);
  EXPECT_EQ(expected_wire_bytes(r.pmap, r.cmap, owners, n, nb), r.wire.bytes);
  EXPECT_EQ(expected_wire_messages(owners), r.wire.messages);
  // Smooth tiles must actually compress.
  EXPECT_LT(shipped_bytes, payload_bytes);

  // WireStats fold == published counters.
  EXPECT_EQ(r.wire.wire_bytes, shipped_bytes);
  EXPECT_EQ(r.wire.compressed_sends, r.wire.messages);
  EXPECT_EQ(reg.counter_value("wire.bytes"), r.wire.bytes);
  EXPECT_EQ(reg.counter_value("wire.shipped_bytes"), shipped_bytes);
  EXPECT_EQ(reg.counter_value("wire.compressed_msgs"), r.wire.messages);
  EXPECT_EQ(reg.counter_value("wire.compressed_bytes"), shipped_bytes);

  // The gpusim replay ships the compressed bytes over the network and books
  // them under the compressed link as well.
  MetricsRegistry sim_reg;
  const SimReport sim = replay_wire_log(r.wire_log, ranks, &sim_reg);
  EXPECT_EQ(sim.network_bytes, shipped_bytes);
  EXPECT_EQ(sim.compressed_bytes, shipped_bytes);
  EXPECT_EQ(sim_reg.counter_value("sim.bytes.network"), shipped_bytes);
  EXPECT_EQ(sim_reg.counter_value("sim.bytes.compressed"), shipped_bytes);

  // The uncompressed run's records, by contrast, ship their payload bytes.
  for (const WireRecord& rec : r0.wire_log) {
    EXPECT_FALSE(rec.compressed);
    EXPECT_EQ(rec.shipped_bytes(), rec.bytes);
  }
  EXPECT_EQ(r0.wire.wire_bytes, r0.wire.bytes);
  EXPECT_EQ(r0.wire.compressed_sends, 0u);
}

TEST(CompressedWireTest, TruncationKeepsShardedBitIdentity) {
  // Storage truncation zeroes mantissa LSBs on the owner's tile before the
  // graph is built, so every rank sees identical truncated inputs and the
  // factorization stays bit-identical across rank counts — with or without
  // wire compression on top.
  const std::size_t n = 180, nb = 32;
  const TileMatrix pristine = covariance_problem(n, nb, 7, 0.1, 0.02);
  MetricsRegistry reg;
  MpCholeskyOptions base;
  base.u_req = 1e-4;
  base.num_threads = 4;
  base.truncation.enabled = true;
  base.metrics = &reg;
  TileMatrix ref = pristine;
  const MpCholeskyResult r0 = mp_cholesky(ref, base);
  ASSERT_EQ(r0.info, 0);
  EXPECT_GT(reg.counter_value("cholesky.truncated_tiles"), 0u);

  // Truncation changed at least one stored tile relative to the untouched
  // factorization (it is a real, bounded perturbation, not a no-op).
  TileMatrix plain = pristine;
  ASSERT_EQ(mp_cholesky(plain, [&] {
              MpCholeskyOptions o = base;
              o.truncation.enabled = false;
              o.metrics = nullptr;
              return o;
            }()).info, 0);
  EXPECT_FALSE(factors_identical(ref, plain));

  for (const std::size_t ranks : {1u, 3u}) {
    for (const bool compress : {false, true}) {
      MpCholeskyOptions opt = base;
      opt.metrics = nullptr;
      opt.dist.ranks = ranks;
      opt.compress_wire = compress;
      TileMatrix a = pristine;
      const MpCholeskyResult r = mp_cholesky(a, opt);
      ASSERT_EQ(r.info, 0) << "ranks=" << ranks << " compress=" << compress;
      EXPECT_TRUE(factors_identical(ref, a))
          << "ranks=" << ranks << " compress=" << compress;
    }
  }
}

TEST(ShardedCholeskyTest, WorkStealingRespectsRankAffinity) {
  MpCholeskyOptions opt;
  opt.u_req = 1e-4;
  opt.num_threads = 4;
  opt.dist.ranks = 2;
  opt.capture_trace = true;
  TileMatrix a = random_spd_problem(144, 24, 9);
  const MpCholeskyResult r = mp_cholesky(a, opt);
  ASSERT_EQ(r.info, 0);
  ASSERT_NE(r.graph, nullptr);
  ASSERT_FALSE(r.exec.trace.empty());
  // nshards = min(ranks, workers) = 2: worker w belongs to shard w % 2 and
  // every rank-tagged task must have run inside its own shard.
  std::size_t tagged = 0;
  for (const TaskTraceEntry& e : r.exec.trace) {
    const int rank = r.graph->task(e.task).info.rank;
    if (rank < 0) continue;
    ++tagged;
    EXPECT_EQ(e.worker % 2, std::size_t(rank) % 2)
        << r.graph->task(e.task).info.name;
  }
  EXPECT_GT(tagged, 0u);
}

TEST(ShardedMleTest, FitIsBitIdenticalAcrossRanksAndSchedulers) {
  const Covariance cov(CovKind::SqExp);
  const std::vector<double> truth = {1.0, 0.1};
  for (const std::uint64_t seed : {3u, 11u}) {
    Rng rng(seed);
    const LocationSet locs = generate_locations(96, 2, rng);
    Rng field_rng = rng.spawn(12345);
    const std::vector<double> z = sample_field(cov, locs, truth, field_rng);

    MleOptions base;
    base.u_req = 1e-4;
    base.tile = 24;
    base.num_threads = 4;
    base.optim = OptimOptions{1e-6, 300, 0.25};
    const MleResult ref = fit_mle(cov, locs, z, base);

    for (const std::size_t ranks : {1u, 2u, 4u}) {
      // Pools of 2 and 4 workers cover single-worker shards (2 workers at
      // ranks 2 and 4, 4 workers at ranks 4) and two-worker shards.
      for (const std::size_t threads : {2u, 4u}) {
        MleOptions opt = base;
        opt.dist.ranks = ranks;
        opt.num_threads = threads;
        const MleResult got = fit_mle(cov, locs, z, opt);
        ASSERT_EQ(got.theta.size(), ref.theta.size());
        for (std::size_t i = 0; i < ref.theta.size(); ++i) {
          EXPECT_EQ(got.theta[i], ref.theta[i]) << "seed=" << seed
                                                << " ranks=" << ranks
                                                << " threads=" << threads;
        }
        EXPECT_EQ(got.loglik, ref.loglik);
        EXPECT_EQ(got.evaluations, ref.evaluations);
      }
    }
  }
}

TEST(CommMapStrategyTest, AllStcBracketsAutoWhichBracketsAllTtc) {
  const std::size_t n = 180, nb = 32;
  const TileMatrix pristine = random_spd_problem(n, nb, 7);
  const std::size_t nt = pristine.num_tiles();
  const OwnerMap owners(nt, 4);

  auto run = [&](ConversionStrategy s) {
    MpCholeskyOptions opt;
    opt.u_req = 1e-4;
    opt.comm.strategy = s;
    TileMatrix a = pristine;
    const MpCholeskyResult r = mp_cholesky(a, opt);
    EXPECT_EQ(r.info, 0);
    return r;
  };
  const MpCholeskyResult ttc = run(ConversionStrategy::AllTTC);
  const MpCholeskyResult aut = run(ConversionStrategy::Auto);
  const MpCholeskyResult stc = run(ConversionStrategy::AllSTC);

  // AllTTC never converts at the sender.
  EXPECT_EQ(ttc.cmap.stc_fraction(ttc.pmap), 0.0);
  // AllSTC is at least as aggressive as Auto, which beats AllTTC.
  EXPECT_GE(stc.cmap.stc_fraction(stc.pmap), aut.cmap.stc_fraction(aut.pmap));
  EXPECT_GT(aut.cmap.stc_fraction(aut.pmap), 0.0);
  const std::size_t b_ttc = expected_wire_bytes(ttc.pmap, ttc.cmap, owners, n, nb);
  const std::size_t b_aut = expected_wire_bytes(aut.pmap, aut.cmap, owners, n, nb);
  const std::size_t b_stc = expected_wire_bytes(stc.pmap, stc.cmap, owners, n, nb);
  EXPECT_LT(b_aut, b_ttc);
  EXPECT_LE(b_stc, b_aut);
}

// A corrupted panel broadcast destroys SPD-ness downstream; the one-shot
// budget means the escalation retry ships clean payloads and the recovered
// factor is bitwise identical to a never-corrupted run.
TEST(WireFaultTest, EscalationRecoversFromCorruptedPanelBroadcast) {
  const std::size_t n = 192, nb = 24;
  const TileMatrix pristine = covariance_problem(n, nb);
  MpCholeskyOptions opt;
  opt.ladder = {Precision::FP64};
  opt.num_threads = 2;
  opt.dist.ranks = 2;
  opt.escalation.max_attempts = 2;

  // Clean baseline; capture the graph to locate the panel SEND's task id
  // (graph construction is deterministic, so the id is stable across runs).
  MpCholeskyOptions probe = opt;
  probe.capture_trace = true;
  TileMatrix ref = pristine;
  const MpCholeskyResult clean = mp_cholesky(ref, probe);
  ASSERT_EQ(clean.info, 0);
  ASSERT_NE(clean.graph, nullptr);
  TaskId target = kNoTask;
  for (TaskId t = 0; t < clean.graph->num_tasks(); ++t) {
    if (clean.graph->task(t).info.name == "SEND(1,0)") {
      target = t;
      break;
    }
  }
  ASSERT_NE(target, kNoTask);

  FaultInjectionOptions fopts;
  fopts.kind = FaultKind::WireCorrupt;
  fopts.target_task = target;
  fopts.max_injections = 1;
  FaultInjector inj(fopts);
  opt.fault_injector = &inj;
  TileMatrix a = pristine;
  const MpCholeskyResult r = mp_cholesky(a, opt);
  EXPECT_EQ(inj.injections(), 1u);
  EXPECT_EQ(r.breakdowns, 1);
  EXPECT_EQ(r.escalations, 1);
  ASSERT_EQ(r.info, 0);  // recovered
  EXPECT_TRUE(factors_identical(ref, a));
}

}  // namespace
}  // namespace mpgeo
