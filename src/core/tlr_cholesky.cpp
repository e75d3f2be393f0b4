#include "core/tlr_cholesky.hpp"

#include <cmath>
#include <string>

#include "common/error.hpp"
#include "core/cholesky_tasks.hpp"
#include "linalg/blas.hpp"
#include "linalg/reference.hpp"
#include "runtime/executor.hpp"
#include "runtime/task_graph.hpp"

namespace mpgeo {

TlrFactor::TlrFactor(const Matrix<double>& a, std::size_t nb, double tol)
    : n_(a.rows()), nb_(nb), tol_(tol) {
  MPGEO_REQUIRE(a.rows() == a.cols(), "TlrFactor: matrix must be square");
  MPGEO_REQUIRE(nb >= 2, "TlrFactor: tile size must be >= 2");
  MPGEO_REQUIRE(tol > 0, "TlrFactor: tolerance must be positive");
  nt_ = (n_ + nb - 1) / nb;
  diag_.resize(nt_);
  off_.resize(nt_ * (nt_ - 1) / 2);
  std::vector<double> buf;
  for (std::size_t m = 0; m < nt_; ++m) {
    const std::size_t rows = tile_rows(m);
    diag_[m].resize(rows * rows);
    for (std::size_t j = 0; j < rows; ++j) {
      for (std::size_t i = 0; i < rows; ++i) {
        diag_[m][i + j * rows] = a(m * nb_ + i, m * nb_ + j);
      }
    }
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t cols = tile_rows(k);
      buf.resize(rows * cols);
      for (std::size_t j = 0; j < cols; ++j) {
        for (std::size_t i = 0; i < rows; ++i) {
          buf[i + j * rows] = a(m * nb_ + i, k * nb_ + j);
        }
      }
      AcaOptions aca;
      aca.tolerance = tol;
      off_[off_index(m, k)] = compress_aca(buf.data(), rows, cols, rows, aca);
    }
  }
}

std::size_t TlrFactor::tile_rows(std::size_t m) const {
  MPGEO_ASSERT(m < nt_);
  return (m + 1 == nt_) ? n_ - m * nb_ : nb_;
}

std::size_t TlrFactor::off_index(std::size_t m, std::size_t k) const {
  MPGEO_REQUIRE(m < nt_ && k < m, "TlrFactor: not a strict lower tile");
  return m * (m - 1) / 2 + k;
}

std::vector<double>& TlrFactor::diagonal(std::size_t k) {
  MPGEO_REQUIRE(k < nt_, "TlrFactor: diagonal index out of range");
  return diag_[k];
}

const std::vector<double>& TlrFactor::diagonal(std::size_t k) const {
  MPGEO_REQUIRE(k < nt_, "TlrFactor: diagonal index out of range");
  return diag_[k];
}

LowRankFactor& TlrFactor::off(std::size_t m, std::size_t k) {
  return off_[off_index(m, k)];
}

const LowRankFactor& TlrFactor::off(std::size_t m, std::size_t k) const {
  return off_[off_index(m, k)];
}

double TlrFactor::mean_rank() const {
  if (off_.empty()) return 0.0;
  double acc = 0.0;
  for (const LowRankFactor& f : off_) acc += double(f.rank);
  return acc / double(off_.size());
}

std::size_t TlrFactor::bytes() const {
  std::size_t total = 0;
  for (const auto& d : diag_) total += d.size() * sizeof(double);
  for (const LowRankFactor& f : off_) total += f.bytes(Storage::FP64);
  return total;
}

namespace {

/// Exception carrying a POTRF breakdown out of the task graph.
struct TlrNotPositiveDefinite {
  int info;
};

}  // namespace

TlrCholeskyResult tlr_cholesky(TlrFactor& a,
                               const TlrCholeskyOptions& options) {
  const std::size_t nt = a.num_tiles();
  TlrCholeskyResult result;
  const double tol = a.tolerance();

  // One logical datum per tile; the runtime's dependence analysis turns
  // Algorithm 1's tasks into the same DAG the dense tile Cholesky runs on.
  TaskGraph graph;
  std::vector<DataId> data(nt * (nt + 1) / 2);
  for (std::size_t m = 0; m < nt; ++m) {
    DataInfo info;
    info.name = "D(" + std::to_string(m) + ")";
    info.bytes = a.diagonal(m).size() * sizeof(double);
    data[TileIndex{m, m}.packed()] = graph.add_data(info);
    for (std::size_t k = 0; k < m; ++k) {
      DataInfo oinfo;
      oinfo.name = "U(" + std::to_string(m) + "," + std::to_string(k) + ")";
      oinfo.bytes = a.off(m, k).bytes(Storage::FP64);
      data[TileIndex{m, k}.packed()] = graph.add_data(oinfo);
    }
  }

  const auto datum = [&](TileIndex x) { return data[x.packed()]; };
  for_each_cholesky_task(nt, [&](const CholeskyTask& t) {
    TaskInfo ti = t.info();
    ti.name = t.name();
    const std::size_t m = t.out.m, n = t.out.k, k = t.k;
    std::function<void()> body;
    switch (t.kind) {
      case KernelKind::POTRF:
        // POTRF on the dense diagonal.
        body = [&a, k] {
          const std::size_t nb_k = a.tile_rows(k);
          std::vector<double>& ckk = a.diagonal(k);
          const int info = potrf_lower(nb_k, ckk.data(), nb_k);
          if (info != 0) {
            throw TlrNotPositiveDefinite{int(k * a.nb()) + info};
          }
          for (std::size_t j = 0; j < nb_k; ++j) {
            for (std::size_t i = 0; i < j; ++i) ckk[i + j * nb_k] = 0.0;
          }
        };
        break;
      case KernelKind::TRSM:
        // TRSM on a low-rank panel: only the V factor is solved,
        // V := L^{-1} V (right-solve of U V^T against L^T).
        body = [&a, m, k] {
          const std::size_t nb_k = a.tile_rows(k);
          LowRankFactor& cmk = a.off(m, k);
          trsm_left_lower_notrans<double>(nb_k, cmk.rank, 1.0,
                                          a.diagonal(k).data(), nb_k,
                                          cmk.v.data(), cmk.n);
        };
        break;
      case KernelKind::SYRK:
        // C_mm -= U (V^T V) U^T, a rank-r dense update.
        body = [&a, m, k] {
          const LowRankFactor& cmk = a.off(m, k);
          std::vector<double>& cmm = a.diagonal(m);
          const std::size_t rows = a.tile_rows(m);
          const std::size_t r = cmk.rank;
          // G = V^T V (r x r), W = U G (rows x r), C -= W U^T.
          // Grow-only per-worker scratch: these bodies run once per task on
          // a pool thread, and per-task allocation dominated small-rank
          // updates. Both products write with beta = 0, so stale contents
          // never leak.
          thread_local std::vector<double> g, w;
          g.resize(r * r);
          gemm<double>('T', 'N', r, r, cmk.n, 1.0, cmk.v.data(), cmk.n,
                       cmk.v.data(), cmk.n, 0.0, g.data(), r);
          w.resize(rows * r);
          gemm<double>('N', 'N', rows, r, r, 1.0, cmk.u.data(), rows,
                       g.data(), r, 0.0, w.data(), rows);
          gemm<double>('N', 'T', rows, rows, r, -1.0, w.data(), rows,
                       cmk.u.data(), rows, 1.0, cmm.data(), rows);
        };
        break;
      default:
        // C_mn -= U_m (V_m^T V_n) U_n^T, folded by truncated addition.
        body = [&a, m, n, k, tol] {
          const LowRankFactor& cmk = a.off(m, k);
          const LowRankFactor& cnk = a.off(n, k);
          // Product factor: Unew = U_m (V_m^T V_n) (rows_m x r_n), V = U_n.
          LowRankFactor prod;
          prod.m = cmk.m;
          prod.n = cnk.m;
          prod.rank = cnk.rank;
          // Grow-only per-worker scratch (beta = 0 overwrite); prod.u stays
          // owned — lowrank_add keeps it.
          thread_local std::vector<double> cross;
          cross.resize(cmk.rank * cnk.rank);
          gemm<double>('T', 'N', cmk.rank, cnk.rank, cmk.n, 1.0,
                       cmk.v.data(), cmk.n, cnk.v.data(), cnk.n, 0.0,
                       cross.data(), cmk.rank);
          prod.u.resize(prod.m * prod.rank);
          gemm<double>('N', 'N', prod.m, prod.rank, cmk.rank, 1.0,
                       cmk.u.data(), prod.m, cross.data(), cmk.rank, 0.0,
                       prod.u.data(), prod.m);
          prod.v = cnk.u;
          a.off(m, n) = lowrank_add(a.off(m, n), -1.0, prod, tol);
        };
        break;
    }
    graph.add_task(std::move(ti), cholesky_accesses(t, datum),
                   std::move(body));
  });

  ExecutorOptions opts;
  opts.num_threads = options.num_threads;
  opts.session = options.session;
  opts.metrics = options.metrics;
  try {
    execute(graph, opts);
  } catch (const TlrNotPositiveDefinite& e) {
    result.info = e.info;
    return result;
  }

  result.mean_rank = a.mean_rank();
  result.factor_bytes = a.bytes();
  return result;
}

double tlr_logdet(const TlrFactor& l) {
  double acc = 0.0;
  for (std::size_t k = 0; k < l.num_tiles(); ++k) {
    const auto& d = l.diagonal(k);
    const std::size_t rows = l.tile_rows(k);
    for (std::size_t i = 0; i < rows; ++i) {
      const double v = d[i + i * rows];
      MPGEO_REQUIRE(v > 0.0, "tlr_logdet: non-positive factor diagonal");
      acc += std::log(v);
    }
  }
  return 2.0 * acc;
}

void tlr_forward_solve(const TlrFactor& l, std::vector<double>& z) {
  MPGEO_REQUIRE(z.size() == l.n(), "tlr_forward_solve: size mismatch");
  const std::size_t nt = l.num_tiles();
  const std::size_t nb = l.nb();
  for (std::size_t m = 0; m < nt; ++m) {
    const std::size_t rows = l.tile_rows(m);
    double* zm = z.data() + m * nb;
    for (std::size_t k = 0; k < m; ++k) {
      const LowRankFactor& f = l.off(m, k);
      // zm -= U (V^T z_k)
      f.matvec(-1.0, std::span<const double>(z).subspan(k * nb, f.n), 1.0,
               std::span<double>(zm, rows));
    }
    const auto& d = l.diagonal(m);
    trsm_left_lower_notrans<double>(rows, 1, 1.0, d.data(), rows, zm, rows);
  }
}

double tlr_cholesky_residual(const Matrix<double>& original,
                             const TlrFactor& factored) {
  const std::size_t n = original.rows();
  MPGEO_REQUIRE(n == factored.n(), "tlr_cholesky_residual: size mismatch");
  // Materialize L densely (small problems; test helper).
  Matrix<double> l(n, n);
  const std::size_t nb = factored.nb();
  for (std::size_t m = 0; m < factored.num_tiles(); ++m) {
    const std::size_t rows = factored.tile_rows(m);
    const auto& d = factored.diagonal(m);
    for (std::size_t j = 0; j < rows; ++j) {
      for (std::size_t i = j; i < rows; ++i) {
        l(m * nb + i, m * nb + j) = d[i + j * rows];
      }
    }
    for (std::size_t k = 0; k < m; ++k) {
      const LowRankFactor& f = factored.off(m, k);
      std::vector<double> dense(f.m * f.n);
      f.to_dense(dense.data(), f.m);
      for (std::size_t j = 0; j < f.n; ++j) {
        for (std::size_t i = 0; i < f.m; ++i) {
          l(m * nb + i, k * nb + j) = dense[i + j * f.m];
        }
      }
    }
  }
  return cholesky_residual(original, l);
}

}  // namespace mpgeo
