#include "core/tiled_covariance.hpp"

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "core/shared_pager.hpp"
#include "obs/metrics.hpp"
#include "runtime/executor.hpp"
#include "runtime/task_graph.hpp"

namespace mpgeo {
namespace {

// Fill one tile: distances (cached or computed) -> one batched covariance
// evaluation -> nugget on the global diagonal -> store. A diagonal tile is
// symmetric, and so is its distance block (a - b = -(b - a) exactly), so its
// lower triangle is evaluated once and mirrored. Scratch is thread_local so
// assembly allocates once per worker, not per tile.
void fill_one_tile(TileMatrix& a, const Covariance& cov,
                   const LocationSet& locs, std::span<const double> theta,
                   double nugget, const CovGenOptions& options, std::size_t m,
                   std::size_t k) {
  if (a.tile(m, k).storage() != Storage::FP64) {
    a.set_storage(m, k, Storage::FP64);
  }
  AnyTile& t = a.tile(m, k);
  const std::size_t mb = t.rows();
  const std::size_t kb = t.cols();
  const std::size_t count = mb * kb;

  thread_local std::vector<double> hbuf;
  thread_local std::vector<double> vbuf;
  vbuf.resize(count);

  std::span<const double> h;
  if (options.geometry) {
    h = options.geometry->tile_distances(m, k);
  } else {
    hbuf.resize(count);
    distance_block(locs, m * a.nb(), k * a.nb(), mb, kb, hbuf.data(), mb);
    h = {hbuf.data(), count};
  }
  if (m != k) {
    covariance_batch(cov, theta, h, vbuf);
  } else {
    // Column j's rows j..mb-1 are contiguous in the block: pack them into
    // hbuf (unused with a cached geometry; otherwise each run only moves
    // down), map them in place, then write each value to (i, j) and (j, i).
    const std::size_t packed = mb * (mb + 1) / 2;
    if (hbuf.size() < packed) hbuf.resize(packed);
    for (std::size_t j = 0, at = 0; j < mb; at += mb - j, ++j) {
      std::memmove(hbuf.data() + at, h.data() + j * mb + j,
                   (mb - j) * sizeof(double));
    }
    const std::span<double> lower(hbuf.data(), packed);
    covariance_batch(cov, theta, lower, lower);
    const double* v = lower.data();
    for (std::size_t j = 0; j < mb; ++j) {
      for (std::size_t i = j; i < mb; ++i, ++v) {
        vbuf[i + j * mb] = *v;
        vbuf[j + i * mb] = *v;
      }
    }
    const double shift = nugget * theta[0];
    for (std::size_t i = 0; i < mb; ++i) vbuf[i + i * mb] += shift;
  }
  t.from_double(vbuf);
}

}  // namespace

OocStats fill_tiled_covariance(TileMatrix& a, const Covariance& cov,
                               const LocationSet& locs,
                               std::span<const double> theta, double nugget,
                               const CovGenOptions& options) {
  cov.check_params(theta);
  MPGEO_REQUIRE(a.n() == locs.size(),
                "fill_tiled_covariance: matrix/location size mismatch");
  if (options.geometry) {
    MPGEO_REQUIRE(options.geometry->n() == a.n() &&
                      options.geometry->nb() == a.nb(),
                  "fill_tiled_covariance: geometry shape mismatch");
  }
  Stopwatch sw;
  const std::size_t nt = a.num_tiles();
  const std::size_t num_tiles = nt * (nt + 1) / 2;
  const bool stream = options.ooc.enabled && a.spill_enabled();

  // Spill-tier bookkeeping happens here, on the calling thread, before any
  // task runs: spill, restore and discard are not thread-safe.
  if (stream) {
    // Storage normalization before the pager attaches: a mid-task
    // set_storage would change the tile's byte footprint under the pager's
    // ledger. Spilled non-FP64 tiles are relabelled in place (their stale
    // blobs are never read: every GENERATE access is a pure Write). Resident
    // tiles — pins leaked by a failed escalation attempt, or a caller that
    // never spilled — are spilled too: under a shared global budget an
    // attach with a resident start position would blow straight past the
    // budget with nothing the arbiter can do about bytes already in memory,
    // so the generator always attaches from an empty set.
    a.reset_storage(Storage::FP64);
    a.spill_all();
  } else if (a.spill_enabled()) {
    // Filled without the pager, the matrix ends fully resident: drop the
    // stale blobs unread.
    for (std::size_t m = 0; m < nt; ++m) {
      for (std::size_t k = 0; k <= m; ++k) {
        if (a.spilled(m, k)) a.discard_spilled(m, k, Storage::FP64);
      }
    }
  }

  TaskGraph graph;
  for (std::size_t m = 0; m < nt; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      DataInfo d;
      d.name = "sigma(" + std::to_string(m) + "," + std::to_string(k) + ")";
      d.bytes = a.tile(m, k).bytes();
      const DataId id = graph.add_data(d);
      TaskInfo ti;
      ti.name = "generate(" + std::to_string(m) + "," + std::to_string(k) + ")";
      ti.kind = KernelKind::GENERATE;
      ti.tm = int(m);
      ti.tn = int(k);
      graph.add_task(ti, {{id, AccessMode::Write}}, [&, m, k] {
        fill_one_tile(a, cov, locs, theta, nugget, options, m, k);
      });
    }
  }
  ExecutorOptions x;
  x.num_threads = options.parallel ? options.num_threads : 1;
  x.metrics = options.metrics;
  x.session = options.session;
  std::unique_ptr<SharedOocPager> own_pager;
  std::unique_ptr<SharedOocPager::Tenant> pager;
  if (stream) {
    // Data insertion order above matches the packed lower-triangle index,
    // so tile_of_datum is the identity. Every access is pure Write — the
    // pager write-installs each tile fresh, and the retiring worker
    // dead-spills it as soon as its GENERATE task is done.
    std::vector<std::size_t> tile_of_datum(graph.num_data());
    for (std::size_t i = 0; i < tile_of_datum.size(); ++i) {
      tile_of_datum[i] = i;
    }
    pager = attach_for_call(options.ooc, options.metrics,
                            /*capture_residency=*/false, own_pager, a, graph,
                            std::move(tile_of_datum));
    x.start_hook = [&pager](const Task& t) { pager->before_task(t); };
    x.retire_hook = [&pager](const Task& t) { pager->after_task(t); };
  }
  execute(graph, x);
  OocStats paging;
  if (pager) {
    pager->finish();
    paging = pager->stats();
  }

  if (options.metrics) {
    MetricsRegistry& reg = *options.metrics;
    reg.counter("covgen.tiles").add(num_tiles);
    reg.counter("covgen.batch_calls").add(num_tiles);
    std::size_t values = 0;
    for (std::size_t m = 0; m < nt; ++m) {
      for (std::size_t k = 0; k <= m; ++k) {
        values += a.tile_rows(m) * a.tile_rows(k);
      }
    }
    reg.counter("covgen.values").add(values);
    if (options.geometry) {
      reg.counter("covgen.distance_cache_hits").add(num_tiles);
    } else {
      reg.counter("covgen.distance_blocks_computed").add(num_tiles);
    }
    reg.counter("covgen.nanos").add(std::uint64_t(sw.seconds() * 1e9));
  }
  return paging;
}

TileMatrix build_tiled_covariance(const Covariance& cov,
                                  const LocationSet& locs,
                                  std::span<const double> theta, std::size_t nb,
                                  double nugget,
                                  const CovGenOptions& options) {
  TileMatrix a(locs.size(), nb);
  fill_tiled_covariance(a, cov, locs, theta, nugget, options);
  return a;
}

TileMatrix build_tiled_covariance(const Covariance& cov,
                                  const LocationSet& locs,
                                  std::span<const double> theta, std::size_t nb,
                                  double nugget) {
  return build_tiled_covariance(cov, locs, theta, nb, nugget, CovGenOptions{});
}

}  // namespace mpgeo
