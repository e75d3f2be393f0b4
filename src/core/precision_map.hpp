// The tile-centric adaptive precision rule (paper Section V, Fig 2).
//
// A tile (i, j) may execute its kernels in a reduced precision with unit
// roundoff u_low when (Higham & Mary 2022):
//
//     ||A_ij||_F * NT / ||A||_F  <=  u_req / u_low
//
// i.e. tiles whose relative mass is small tolerate coarser arithmetic while
// keeping the global backward error at the application-required accuracy
// u_req. Diagonal tiles are pinned to FP64 (POTRF/SYRK run there and carry
// the strongest correlations). The derived maps:
//   * kernel map    — execution precision per tile (Fig 2a / Fig 7);
//   * storage map   — at-rest format per tile (Fig 2b): FP64 or FP32;
//   * TRSM map      — FP64 tiles solve in FP64, everything else in FP32.
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <vector>

#include "core/tile_matrix.hpp"
#include "precision/precision.hpp"

namespace mpgeo {

/// Default GPU-supported precision ladder (paper Section IV conclusion:
/// BF16_32 excluded — same speed as FP16_32 on all three GPUs).
std::vector<Precision> default_precision_ladder();

class PrecisionMap {
 public:
  PrecisionMap() = default;
  PrecisionMap(std::size_t nt, Precision fill);

  std::size_t nt() const { return nt_; }

  /// Kernel execution precision of lower-triangle tile (m, k), m >= k.
  Precision kernel(std::size_t m, std::size_t k) const;
  void set_kernel(std::size_t m, std::size_t k, Precision p);

  /// Storage format of tile (m, k) per Fig 2b.
  Storage storage(std::size_t m, std::size_t k) const;

  /// Execution precision of the TRSM applied to tile (m, k): FP64 for FP64
  /// tiles, FP32 otherwise (no 16-bit TRSM on Nvidia GPUs).
  Precision trsm_precision(std::size_t m, std::size_t k) const;

  /// Fraction of lower-triangle tiles at each precision (Fig 7's legend).
  std::map<Precision, double> tile_fractions() const;

 private:
  std::size_t idx(std::size_t m, std::size_t k) const;
  std::size_t nt_ = 0;
  std::vector<Precision> kernel_;
};

/// Build the kernel-precision map for a tiled matrix already generated in
/// its FP64 form (norms must reflect the true values): applies the
/// Higham–Mary threshold with required accuracy `u_req` over the precision
/// `ladder` (ordered highest to lowest accuracy; must start with FP64).
/// The norms come from TileMatrix::norms(), which reads spilled tiles in
/// place, so the map does not depend on residency.
///
/// `fp16_32_eps`: the u_low the rule uses for the FP16_32 format. 0 (the
/// default) means the conservative theoretical block-FMA bound
/// unit_roundoff(FP16_32); the paper instead plugs in an *experimentally
/// determined* machine epsilon for this format (Section VII-A) — its
/// observed error is far below the worst case thanks to FP32 accumulation —
/// which admits many more FP16_32 tiles at tight accuracies (Fig 7's
/// Matérn/3D maps are unreachable without it). Pass the measured value to
/// reproduce the paper's maps.
PrecisionMap build_precision_map(const TileMatrix& a, double u_req,
                                 std::span<const Precision> ladder,
                                 double fp16_32_eps = 0.0);

/// Same rule from externally supplied per-tile Frobenius norms
/// (norms[m*(m+1)/2+k] for the packed lower triangle) and global norm.
PrecisionMap build_precision_map_from_norms(std::size_t nt,
                                            std::span<const double> tile_norms,
                                            double global_norm, double u_req,
                                            std::span<const Precision> ladder,
                                            double fp16_32_eps = 0.0);

/// Per-tile mantissa keep-bits under the Higham–Mary slack — the sub-ladder
/// truncation rule (DESIGN.md 5h). Tile (m, k) tolerates a relative
/// perturbation u_allowed = u_req * ||A||_F / (NT * ||A_mk||_F), the same
/// quantity the precision rule compares against each rung's u_low; keeping
/// keep_bits_for_roundoff(u_allowed) plus two guard bits (clamped to the
/// tile's storage format) therefore stays within the factorization's own
/// error budget while zeroing the bits lossless compression feeds on.
/// The tile's storage format is pmap.storage(m, k); the norms are the FP64
/// matrix's (TileMatrix::norms() before storage conversion, the same read
/// the precision map comes from). Zero-norm tiles keep full precision.
/// Indexed m*(m+1)/2+k (packed lower triangle), like the maps.
std::vector<int> build_truncation_map(const TileNorms& norms,
                                      const PrecisionMap& pmap, double u_req);

// --- Precision escalation (breakdown recovery, DESIGN.md 5e) ---
//
// When POTRF(k) loses positive definiteness under aggressive demotion, the
// recovery path promotes the map toward FP64 and re-factors. These helpers
// only ever move tiles up the ladder, so repeated escalation is monotone
// and terminates at the all-FP64 map.

/// One rung finer than `p` along `ladder` (ordered finest first). Returns
/// `p` unchanged when already the finest rung; a precision absent from the
/// ladder promotes directly to the finest rung.
Precision promote_one(Precision p, std::span<const Precision> ladder);

/// Promote tile (m, k) one rung. Returns true when the map changed.
bool escalate_tile(PrecisionMap& map, std::size_t m, std::size_t k,
                   std::span<const Precision> ladder);

/// Promote the row/column band through diagonal tile (k, k): the diagonal
/// itself (the POTRF/SYRK chain that broke), tiles (k, j) for j < k — the
/// SYRK operands that fed it — and (i, k) for i > k, the panel the
/// factorization was about to solve against it. Returns tiles changed.
std::size_t escalate_band(PrecisionMap& map, std::size_t k,
                          std::span<const Precision> ladder);

/// Promote every lower-triangle tile one rung. Returns tiles changed.
std::size_t escalate_all(PrecisionMap& map, std::span<const Precision> ladder);

/// True when every tile of `a` is at least as accurate as in `b` (unit
/// roundoff <=) — the monotonicity invariant escalation maintains.
bool precision_at_least(const PrecisionMap& a, const PrecisionMap& b);

}  // namespace mpgeo
