// TLR Cholesky factorization — the HiCMA-style algorithm of the paper's
// refs [16][17], and the substrate its conclusion proposes to fuse with
// mixed precision. Right-looking tile Cholesky on a TLR matrix:
//
//   POTRF: dense FP64 on the diagonal tile (unchanged);
//   TRSM : a low-rank panel U V^T needs only its *V* factor solved:
//          (U V^T) L^{-T} = U (L^{-1} V)^T — O(r nb^2) instead of O(nb^3);
//   SYRK : C_mm -= U (V^T V) U^T — a rank-r dense update;
//   GEMM : C_mn -= U_m (V_m^T V_n) U_n^T — a low-rank product folded into
//          C_mn by truncated addition (QR + small SVD recompression).
//
// The per-tile truncation tolerance plays the same role as u_req in the
// dense mixed-precision scheme; the factorization error tracks it, and
// logdet/solve give a TLR likelihood path analogous to the dense one.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/lowrank.hpp"
#include "linalg/matrix.hpp"

namespace mpgeo {

class ExecutorSession;
class MetricsRegistry;

/// Mutable TLR representation used by the factorization: dense FP64
/// diagonal tiles + low-rank strictly-lower tiles. (core/tlr_matrix.hpp is
/// the immutable compressed-covariance view; this is its factorable twin.)
class TlrFactor {
 public:
  /// Compress a dense SPD matrix (column-major n x n) into TLR form with
  /// tile size nb and ACA tolerance `tol`.
  TlrFactor(const Matrix<double>& a, std::size_t nb, double tol);

  std::size_t n() const { return n_; }
  std::size_t nb() const { return nb_; }
  std::size_t num_tiles() const { return nt_; }
  double tolerance() const { return tol_; }

  std::vector<double>& diagonal(std::size_t k);
  const std::vector<double>& diagonal(std::size_t k) const;
  LowRankFactor& off(std::size_t m, std::size_t k);
  const LowRankFactor& off(std::size_t m, std::size_t k) const;

  std::size_t tile_rows(std::size_t m) const;
  double mean_rank() const;
  std::size_t bytes() const;  ///< FP64 storage of the current representation

 private:
  std::size_t off_index(std::size_t m, std::size_t k) const;
  std::size_t n_ = 0, nb_ = 0, nt_ = 0;
  double tol_ = 0;
  std::vector<std::vector<double>> diag_;
  std::vector<LowRankFactor> off_;
};

struct TlrCholeskyResult {
  int info = 0;            ///< 0 or the 1-based index of the failed minor
  double mean_rank = 0.0;  ///< mean off-diagonal rank after factorization
  std::size_t factor_bytes = 0;
};

/// Execution knobs for tlr_cholesky, mirroring the dense factorization's
/// (MpCholeskyOptions) executor plumbing. Every combination produces
/// bit-identical factors — conflicting tile accesses are ordered by graph
/// edges, so pool shapes only move wall-clock time.
struct TlrCholeskyOptions {
  /// Worker pool size; 0 = hardware concurrency. Ignored when running on a
  /// session.
  std::size_t num_threads = 0;
  /// Run on this persistent session's shared worker pool instead of a
  /// per-call pool (runtime/executor_session.hpp); num_threads is ignored on
  /// this path.
  ExecutorSession* session = nullptr;
  /// Report the executor's scheduler counters into this registry (null =
  /// off).
  MetricsRegistry* metrics = nullptr;
};

/// Factor in place: on return the diagonal tiles hold dense Cholesky
/// factors and the off-diagonal tiles the low-rank panels of L. Executes as
/// a task graph on the work-stealing runtime (same dataflow as the dense
/// mixed-precision Cholesky), so independent panels factor concurrently.
TlrCholeskyResult tlr_cholesky(TlrFactor& a,
                               const TlrCholeskyOptions& options = {});

/// log|A| = 2 sum log diag(L) of a factored TlrFactor.
double tlr_logdet(const TlrFactor& l);

/// Solve L y = z in place (forward substitution with low-rank panels).
void tlr_forward_solve(const TlrFactor& l, std::vector<double>& z);

/// ||A - L L^T||_F / ||A||_F against the dense original (test helper).
double tlr_cholesky_residual(const Matrix<double>& original,
                             const TlrFactor& factored);

}  // namespace mpgeo
