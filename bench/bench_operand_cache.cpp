// The convert-once operand cache on a mixed-precision tile Cholesky — the
// shared-memory analogue of the paper's STC experiment.
//
// Without the cache every GEMM would widen + input-round both panel operands
// itself: O(NT^3) conversions for NT tile rows. With it, the first consumer
// of a panel tile packs it and every later SYRK/GEMM reuses the pack
// read-only: O(NT^2) fills. Each pack is freed when its tile's last access
// retires, so the cache holds far less than the bytes of all fills at its
// peak. The factor's bit-identity to a cacheless serial oracle is pinned by
// test_operand_cache, not here.
//
// Reports the median-of-R wall time, conversions against NT(NT+1)/2, the
// cache counters, and peak cache MiB next to the MiB of all fills. Exits
// nonzero if the fills differ from the distinct (tile, precision) packs the
// factorization reads — a pack freed before a later reader would be filled
// twice — or if packs outlive the factorization. Accepts `--json <path>`
// for machine-readable output.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/mp_cholesky.hpp"
#include "core/tile_matrix.hpp"
#include "linalg/matrix.hpp"
#include "precision/convert.hpp"

namespace {

using namespace mpgeo;

/// Well-conditioned random SPD tile matrix (Gram of a random square factor,
/// diagonal shift n, exponential tile-norm decay off the diagonal so the
/// Higham–Mary rule assigns a genuinely mixed precision map). Same recipe as
/// the accuracy tests; no dense oracle kept.
TileMatrix random_spd_tiles(std::size_t n, std::size_t nb, double decay_rate,
                            std::uint64_t seed) {
  Rng rng(seed);
  Matrix<double> b(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) b(i, j) = rng.uniform(-1.0, 1.0);
  Matrix<double> dense(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = (i == j) ? double(n) : 0.0;
      for (std::size_t q = 0; q < n; ++q) acc += b(i, q) * b(j, q);
      const double decay =
          std::exp(-decay_rate * std::fabs(double(i / nb) - double(j / nb)));
      acc *= (i / nb == j / nb) ? 1.0 : decay;
      dense(i, j) = acc;
      dense(j, i) = acc;
    }
  }
  TileMatrix tiles(n, nb);
  std::vector<double> buf;
  for (std::size_t m = 0; m < tiles.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      AnyTile& t = tiles.tile(m, k);
      buf.resize(t.size());
      for (std::size_t j = 0; j < t.cols(); ++j)
        for (std::size_t i = 0; i < t.rows(); ++i)
          buf[i + j * t.rows()] = dense(m * nb + i, k * nb + j);
      t.from_double(buf);
    }
  }
  return tiles;
}

/// Packs the factorization reads, one per distinct (tile, precision): TRSM
/// reads the diagonal at its precision, SYRK a panel at FP64, and GEMM
/// (m, n, k) both panels at its kernel precision. Returns their count and
/// bytes (double-stored at FP64, float-stored below) — what the cache would
/// hold if it never freed anything.
std::pair<std::size_t, std::size_t> all_fills(const PrecisionMap& pmap,
                                              const TileMatrix& a) {
  std::set<std::tuple<std::size_t, std::size_t, Precision>> packs;
  const std::size_t nt = a.num_tiles();
  for (std::size_t k = 0; k < nt; ++k) {
    for (std::size_t m = k + 1; m < nt; ++m) {
      packs.emplace(k, k, pmap.trsm_precision(m, k));
      packs.emplace(m, k, Precision::FP64);
      for (std::size_t n = k + 1; n < m; ++n) {
        packs.emplace(m, k, pmap.kernel(m, n));
        packs.emplace(n, k, pmap.kernel(m, n));
      }
    }
  }
  std::size_t bytes = 0;
  for (const auto& [m, k, p] : packs) {
    bytes += a.tile(m, k).size() *
             (p == Precision::FP64 ? sizeof(double) : sizeof(float));
  }
  return {packs.size(), bytes};
}

struct RunResult {
  double ms = 0.0;
  std::uint64_t conversions = 0;  ///< operand packs per factorization
  OperandCache::Stats cache;
  PrecisionMap pmap;
};

/// One timed factorization of a copy of `pristine`.
RunResult run_once(const TileMatrix& pristine, std::size_t threads,
                   double u_req) {
  TileMatrix work = pristine;
  MpCholeskyOptions opts;
  opts.u_req = u_req;
  opts.num_threads = threads;
  reset_operand_conversion_count();
  Stopwatch sw;
  MpCholeskyResult res = mp_cholesky(work, opts);
  RunResult out;
  out.ms = sw.seconds() * 1e3;
  if (res.info != 0) {
    std::fprintf(stderr, "factorization broke down (info=%d)\n", res.info);
    std::exit(1);
  }
  out.conversions = operand_conversion_count();
  out.cache = res.operand_cache;
  out.pmap = std::move(res.pmap);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = mpgeo::bench::json_path_from_args(argc, argv);
  // Default problem shape: tile <= 64 and >= 4 threads per the reproduction
  // target; decay/u_req chosen so the Higham–Mary rule spreads the GEMMs
  // across FP32/FP16_32/FP16 (the mix is printed below).
  std::size_t n = 1536, nb = 48, threads = 4;
  int reps = 3;
  double u_req = 1e-6;
  double decay = 0.2;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](std::size_t& dst) {
      if (i + 1 < argc) dst = std::size_t(std::stoul(argv[++i]));
    };
    if (arg == "--n") next(n);
    else if (arg == "--nb") next(nb);
    else if (arg == "--threads") next(threads);
    else if (arg == "--reps" && i + 1 < argc) reps = std::atoi(argv[++i]);
    else if (arg == "--u_req" && i + 1 < argc) u_req = std::atof(argv[++i]);
    else if (arg == "--decay" && i + 1 < argc) decay = std::atof(argv[++i]);
  }
  const std::size_t nt = (n + nb - 1) / nb;

  std::printf("operand cache: n=%zu nb=%zu (NT=%zu) threads=%zu u_req=%g "
              "decay=%g reps=%d\n\n",
              n, nb, nt, threads, u_req, decay, reps);
  const TileMatrix pristine = random_spd_tiles(n, nb, decay, /*seed=*/17);

  // One untimed warmup (first-touch paging, code warmup and frequency ramp
  // cost up to 1.7x on this class of machine), then the timed reps. Every
  // run fills and frees the same packs (only the peak varies with the
  // schedule), so the warmup's counters are the ones reported.
  const RunResult first = run_once(pristine, threads, u_req);
  std::vector<double> times_ms;
  for (int r = 0; r < reps; ++r)
    times_ms.push_back(run_once(pristine, threads, u_req).ms);
  std::sort(times_ms.begin(), times_ms.end());
  const double median_ms = times_ms.empty() ? first.ms
                                            : times_ms[times_ms.size() / 2];

  // GEMM-weighted ladder mix: output tile (m, j) receives j updates, all at
  // its kernel precision — this is where the factorization spends its time.
  {
    std::map<Precision, double> mix;
    double total = 0.0;
    for (std::size_t m = 1; m < nt; ++m) {
      for (std::size_t j = 1; j < m; ++j) {
        mix[first.pmap.kernel(m, j)] += double(j);
        total += double(j);
      }
    }
    std::printf("GEMM mix:");
    for (const auto& [p, w] : mix)
      std::printf("  %s %.0f%%", to_string(p).c_str(), 100.0 * w / total);
    std::printf("\n\n");
  }

  // Reference curve: one fill per (tile, precision) -> O(NT^2).
  const double nt2 = double(nt) * (nt + 1) / 2.0;  // ~tile count
  const auto [fill_count, fill_bytes] = all_fills(first.pmap, pristine);
  const double mib = double(1 << 20);

  std::printf("%12s %14s %10s %10s %14s\n", "median ms", "conversions",
              "hits", "fills", "invalidations");
  std::printf("%12.2f %14llu %10llu %10llu %14llu\n", median_ms,
              (unsigned long long)first.conversions,
              (unsigned long long)first.cache.hits,
              (unsigned long long)first.cache.misses,
              (unsigned long long)first.cache.invalidations);
  std::printf("\nconversion scaling:          conversions/NT(NT+1)/2 = %.2f\n",
              double(first.conversions) / nt2);
  std::printf("cache peak:                  %.2f MiB of %.2f MiB filled\n",
              double(first.cache.peak_bytes) / mib, double(fill_bytes) / mib);

  if (first.cache.misses != fill_count) {
    std::fprintf(stderr,
                 "FAIL: %llu fills for %zu distinct packs (a pack was freed "
                 "before a later reader)\n",
                 (unsigned long long)first.cache.misses, fill_count);
    return 1;
  }
  if (first.cache.bytes != 0) {
    std::fprintf(stderr, "FAIL: %zu pack bytes outlived the factorization\n",
                 first.cache.bytes);
    return 1;
  }

  if (!json_path.empty()) {
    mpgeo::bench::JsonWriter writer;
    auto& rc = writer.add("mp_cholesky/operand_cache", "ms");
    rc.metrics.emplace_back("real_time", median_ms);
    rc.metrics.emplace_back("nt", double(nt));
    rc.metrics.emplace_back("conversions", double(first.conversions));
    rc.metrics.emplace_back("cache_hits", double(first.cache.hits));
    rc.metrics.emplace_back("cache_misses", double(first.cache.misses));
    rc.metrics.emplace_back("cache_invalidations",
                            double(first.cache.invalidations));
    rc.metrics.emplace_back("cache_peak_bytes",
                            double(first.cache.peak_bytes));
    rc.metrics.emplace_back("fill_bytes", double(fill_bytes));
    if (!writer.write_file(json_path)) return 1;
  }
  return 0;
}
