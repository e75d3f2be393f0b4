// Bridge from the statistics layer to the tiled linear algebra: generate
// the covariance matrix Sigma(theta) directly in tile form (FP64; the
// precision/storage maps are applied afterwards by mp_cholesky, mirroring
// the paper's generation-then-store-per-precision flow of Fig 2b).
//
// Generation fast path (DESIGN.md 5d): tiles are filled from batched
// covariance kernels over cached distance blocks, one GENERATE task per tile
// on the work-stealing executor — ExaGeoStat generates covariance tiles as
// runtime tasks for the same reason (generation is a first-order cost at
// scale). Every option combination is bit-identical: the knobs move work,
// never values.
#pragma once

#include <span>

#include "core/ooc_pager.hpp"
#include "core/tile_geometry.hpp"
#include "core/tile_matrix.hpp"
#include "stats/covariance.hpp"
#include "stats/locations.hpp"

namespace mpgeo {

class MetricsRegistry;
class ExecutorSession;

struct CovGenOptions {
  /// Every fill runs one GENERATE task per tile on the work-stealing
  /// executor. This only picks the size of the dedicated pool: num_threads
  /// workers when true, one when false. Tiles are disjoint, so every pool
  /// size gives the same bits.
  bool parallel = false;
  std::size_t num_threads = 0;  ///< worker pool size when parallel; 0 = hw
  /// Run the GENERATE tasks on this persistent shared pool instead of a
  /// per-fill pool (runtime/executor_session.hpp); parallel and num_threads
  /// are then ignored. Null = dedicated pool (default).
  ExecutorSession* session = nullptr;
  /// Cached theta-invariant distance blocks for this (LocationSet, nb).
  /// Null = compute distances on the fly (per fill).
  const TileGeometry* geometry = nullptr;
  /// covgen.* counters (null = off): covgen.tiles, covgen.batch_calls,
  /// covgen.values, covgen.distance_cache_hits,
  /// covgen.distance_blocks_computed, covgen.nanos (wall time of fills;
  /// divide by 1e9 for seconds) — plus the executor's own counters.
  MetricsRegistry* metrics = nullptr;
  /// Out-of-core generation (requires TileMatrix::enable_spill on `a`):
  /// every GENERATE access is pure Write, so the pager write-installs each
  /// tile fresh (no decompress of the stale blob) and the retiring worker
  /// dead-spills it as soon as its task is done — at most ~num_threads
  /// tiles resident at once, and the matrix is left fully spilled for the
  /// factorization to page. Spilled degraded-storage tiles are relabelled
  /// FP64 in place (TileMatrix::reset_storage); their blobs are never read,
  /// and nothing is written for them before their task. Values are
  /// bit-identical to the resident fill. The generation graph attaches as a
  /// tenant of ooc.shared, or of a pager built for the fill under
  /// ooc.resident_byte_budget (core/shared_pager.hpp).
  OutOfCoreOptions ooc;
};

/// Fill `a` (shaped n x nb over the same n as `locs`) with the lower
/// triangle of Sigma(theta); `nugget * sigma2` is added on the global
/// diagonal. Tiles whose storage is not FP64 (e.g. after a factorization
/// re-stored them) are reset to FP64 first; FP64 tiles are refilled in
/// place, so a likelihood loop reuses one buffer instead of reallocating
/// Sigma per evaluation. A spill-enabled matrix filled without `options.ooc`
/// ends fully resident; the blobs of its spilled tiles are dropped unread.
void fill_tiled_covariance(TileMatrix& a, const Covariance& cov,
                           const LocationSet& locs,
                           std::span<const double> theta,
                           double nugget = 1e-8,
                           const CovGenOptions& options = {});

/// Build the lower triangle of Sigma(theta) as an FP64 TileMatrix with tile
/// size `nb`. The overload without options fills with default CovGenOptions
/// (one worker).
TileMatrix build_tiled_covariance(const Covariance& cov,
                                  const LocationSet& locs,
                                  std::span<const double> theta, std::size_t nb,
                                  double nugget, const CovGenOptions& options);
TileMatrix build_tiled_covariance(const Covariance& cov,
                                  const LocationSet& locs,
                                  std::span<const double> theta, std::size_t nb,
                                  double nugget = 1e-8);

}  // namespace mpgeo
