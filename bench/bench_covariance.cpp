// Covariance tile-generation fast path (DESIGN.md 5d): seed per-entry
// evaluation vs batched kernels vs cached distance blocks vs parallel tile
// assembly, per covariance kind. This is the generation wall the MLE hot
// loop pays on every likelihood evaluation — for Matérn fields it dominates
// end-to-end fit_mle time, which is why ExaGeoStat-lineage runtimes generate
// covariance tiles as parallel tasks.
//
//   bench_covariance [--n 6400] [--nb 320] [--threads 0] [--fills 3]
//                    [--json out.json]
//
// Every fast variant is verified bit-identical to the seed-path values
// before timings are reported (the `identical` column / JSON field).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "core/tile_geometry.hpp"
#include "core/tiled_covariance.hpp"
#include "obs/metrics.hpp"

using namespace mpgeo;
using namespace mpgeo::bench;

namespace {

struct KindConfig {
  std::string name;
  CovKind kind;
  std::vector<double> theta;
};

// The seed generation path this PR replaced: per-entry parameter checks,
// per-entry distances, and the log-space Bessel-K Matérn for every order.
TileMatrix seed_build(const Covariance& cov, const LocationSet& locs,
                      const std::vector<double>& theta, std::size_t nb) {
  TileMatrix a(locs.size(), nb);
  std::vector<double> buf;
  for (std::size_t m = 0; m < a.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      AnyTile& t = a.tile(m, k);
      buf.resize(t.size());
      const std::size_t r0 = m * nb, c0 = k * nb;
      for (std::size_t j = 0; j < t.cols(); ++j) {
        for (std::size_t i = 0; i < t.rows(); ++i) {
          const std::size_t gi = r0 + i, gj = c0 + j;
          double v =
              reference_covariance_value(cov, locs.distance(gi, gj), theta);
          if (gi == gj) v += 1e-8 * theta[0];
          buf[i + j * t.rows()] = v;
        }
      }
      t.from_double(buf);
    }
  }
  return a;
}

bool tiles_identical(const TileMatrix& a, const TileMatrix& b) {
  for (std::size_t m = 0; m < a.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      const std::vector<double> va = a.tile(m, k).to_double();
      const std::vector<double> vb = b.tile(m, k).to_double();
      if (va.size() != vb.size() ||
          std::memcmp(va.data(), vb.data(), va.size() * sizeof(double)) != 0) {
        return false;
      }
    }
  }
  return true;
}

// Closed-form half-integer Matérn is not bit-identical to the seed's
// Bessel-K evaluation — it is *more* accurate — so those kinds are gated on
// agreement to well inside the Bessel implementation's own error instead.
bool tiles_close(const TileMatrix& a, const TileMatrix& b, double rel_tol) {
  for (std::size_t m = 0; m < a.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      const std::vector<double> va = a.tile(m, k).to_double();
      const std::vector<double> vb = b.tile(m, k).to_double();
      if (va.size() != vb.size()) return false;
      for (std::size_t i = 0; i < va.size(); ++i) {
        const double scale = std::max({std::abs(va[i]), std::abs(vb[i]), 1e-280});
        if (std::abs(va[i] - vb[i]) > rel_tol * scale) return false;
      }
    }
  }
  return true;
}

double time_fills(TileMatrix& a, const Covariance& cov,
                  const LocationSet& locs, const std::vector<double>& theta,
                  const CovGenOptions& opts, int fills) {
  double best = 1e300;
  for (int f = 0; f < fills; ++f) {
    Stopwatch sw;
    fill_tiled_covariance(a, cov, locs, theta, 1e-8, opts);
    best = std::min(best, sw.seconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::size_t n = std::size_t(cli.get_int("n", 6400));
  const std::size_t nb = std::size_t(cli.get_int("nb", 320));
  const std::size_t threads = std::size_t(cli.get_int("threads", 0));
  const int fills = int(cli.get_int("fills", 3));
  const std::string json_path = cli.get_string("json", "");
  cli.check_unused();

  // The closed-form Matérn orders are the headline (they drop Bessel-K
  // entirely); a general nu and the exp-family kinds round out the sweep.
  const std::vector<KindConfig> kinds = {
      {"sqexp", CovKind::SqExp, {1.0, 0.1}},
      {"matern-0.5", CovKind::Matern, {1.0, 0.1, 0.5}},
      {"matern-1.5", CovKind::Matern, {1.0, 0.1, 1.5}},
      {"matern-2.5", CovKind::Matern, {1.0, 0.1, 2.5}},
      {"matern-0.9", CovKind::Matern, {1.0, 0.1, 0.9}},
      {"powexp-1.0", CovKind::PowExp, {1.0, 0.1, 1.0}},
  };

  Rng rng(42);
  const LocationSet locs = generate_locations(n, 2, rng);
  std::cout << "covariance generation: n=" << n << " nb=" << nb
            << " (nt=" << (n + nb - 1) / nb << ") threads="
            << (threads ? std::to_string(threads) : "hw") << "\n\n";

  Stopwatch geo_sw;
  const TileGeometry geometry(locs, nb);
  const double geometry_seconds = geo_sw.seconds();
  std::cout << "distance cache: "
            << Table::num(double(geometry.bytes()) / double(1u << 20), 1)
            << " MiB built in " << Table::num(geometry_seconds * 1e3, 3)
            << " ms (theta-invariant, shared by every fill below)\n\n";

  Table table({"kind", "seed s", "batch s", "cached s", "parallel s",
               "speedup batch", "speedup cached", "speedup parallel",
               "identical"});
  JsonWriter json;
  json.record("geometry", geometry_seconds, "seconds");
  bool all_identical = true;

  for (const KindConfig& kc : kinds) {
    const Covariance cov(kc.kind);

    Stopwatch seed_sw;
    const TileMatrix seed = seed_build(cov, locs, kc.theta, nb);
    const double seed_seconds = seed_sw.seconds();

    TileMatrix a(n, nb);
    CovGenOptions serial;
    const double batch_seconds =
        time_fills(a, cov, locs, kc.theta, serial, fills);
    const bool closed_form =
        kc.kind == CovKind::Matern &&
        (kc.theta[2] == 0.5 || kc.theta[2] == 1.5 || kc.theta[2] == 2.5);
    bool identical = closed_form ? tiles_close(seed, a, 1e-9)
                                 : tiles_identical(seed, a);

    CovGenOptions cached = serial;
    cached.geometry = &geometry;
    const double cached_seconds =
        time_fills(a, cov, locs, kc.theta, cached, fills);
    const TileMatrix serial_ref = a;  // batch+cached serial result

    CovGenOptions parallel = cached;
    parallel.parallel = true;
    parallel.num_threads = threads;
    const double parallel_seconds =
        time_fills(a, cov, locs, kc.theta, parallel, fills);
    // Parallel assembly must be bit-identical to the one-worker fill, always.
    identical = identical && tiles_identical(serial_ref, a);

    table.add_row({kc.name, Table::num(seed_seconds, 4),
                   Table::num(batch_seconds, 4),
                   Table::num(cached_seconds, 4),
                   Table::num(parallel_seconds, 4),
                   Table::num(seed_seconds / batch_seconds, 2),
                   Table::num(seed_seconds / cached_seconds, 2),
                   Table::num(seed_seconds / parallel_seconds, 2),
                   identical ? "yes" : "NO"});

    JsonRecord& rec = json.add("covgen/" + kc.name, "seconds");
    rec.metrics.emplace_back("n", double(n));
    rec.metrics.emplace_back("nb", double(nb));
    rec.metrics.emplace_back("seed_seconds", seed_seconds);
    rec.metrics.emplace_back("batch_seconds", batch_seconds);
    rec.metrics.emplace_back("cached_seconds", cached_seconds);
    rec.metrics.emplace_back("parallel_seconds", parallel_seconds);
    rec.metrics.emplace_back("speedup_batch", seed_seconds / batch_seconds);
    rec.metrics.emplace_back("speedup_cached", seed_seconds / cached_seconds);
    rec.metrics.emplace_back("speedup_parallel",
                             seed_seconds / parallel_seconds);
    rec.metrics.emplace_back("identical", identical ? 1.0 : 0.0);
    all_identical = all_identical && identical;
  }

  table.print(std::cout);
  std::cout << "\nseed = per-entry Bessel/exp with per-call checks; batch = "
               "batched kernels\n(closed-form half-integer Matérn); cached = "
               "+ distance cache; parallel = +\nper-tile GENERATE tasks on "
               "the work-stealing executor.\n";

  if (!json_path.empty() && json.write_file(json_path)) {
    std::cout << "\nJSON written to " << json_path << "\n";
  }
  if (!all_identical) {
    std::cerr << "bench_covariance: fast-path values diverged from the seed "
                 "path (see `identical` column)\n";
    return 1;
  }
  return 0;
}
