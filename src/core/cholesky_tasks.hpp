// Algorithm 1, the right-looking tile Cholesky, written once.
//
// for_each_cholesky_task(nt, visit) yields the tasks of an nt x nt tile
// factorization in insertion order: for each step k, POTRF(k), the TRSMs of
// column k, the SYRKs of step k, then the trailing GEMMs row by row. Each
// task names the tile it updates and the tiles it reads. A backend maps
// tiles to its own data and attaches only what it needs: task bodies and
// SEND/RECV broadcasts (mp_cholesky), devices and folded conversion bytes
// (the simulator's sim_graph), or low-rank bodies (tlr_cholesky). So every
// graph of the factorization has the same task ids, names and dependencies
// by construction.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/precision_map.hpp"
#include "runtime/task_graph.hpp"

namespace mpgeo {

class OwnerMap;

/// Lower-triangle tile (m, k), m >= k.
struct TileIndex {
  std::size_t m = 0;
  std::size_t k = 0;

  /// Position in the packed lower triangle.
  std::size_t packed() const { return m * (m + 1) / 2 + k; }
};

/// One task of Algorithm 1: reads in[0, num_inputs) and updates `out` in
/// place.
struct CholeskyTask {
  KernelKind kind = KernelKind::POTRF;
  std::size_t k = 0;  ///< elimination step
  TileIndex out;
  TileIndex in[2];
  int num_inputs = 0;

  /// Compute precision under `pmap`: POTRF and SYRK FP64, TRSM the map's
  /// trsm_precision, GEMM the output tile's kernel precision.
  Precision precision(const PrecisionMap& pmap) const {
    switch (kind) {
      case KernelKind::TRSM: return pmap.trsm_precision(out.m, out.k);
      case KernelKind::GEMM: return pmap.kernel(out.m, out.k);
      default: return Precision::FP64;
    }
  }

  /// Kind and tile coordinates as every backend tags them: POTRF tm = tn =
  /// k; TRSM and SYRK tm = m, tk = k; GEMM tm = m, tn = n, tk = k.
  TaskInfo info() const {
    TaskInfo ti;
    ti.kind = kind;
    ti.tm = int(out.m);
    if (kind == KernelKind::POTRF || kind == KernelKind::GEMM) {
      ti.tn = int(out.k);
    }
    if (kind != KernelKind::POTRF) ti.tk = int(k);
    return ti;
  }

  /// "POTRF(k)", "TRSM(m,k)", "SYRK(m,k)" or "GEMM(m,n,k)".
  std::string name() const;

  /// POTRF and TRSM write their tile's final version: the broadcast points
  /// whose readers for_each_reader lists.
  bool writes_final() const {
    return kind == KernelKind::POTRF || kind == KernelKind::TRSM;
  }
};

inline CholeskyTask potrf_task(std::size_t k) {
  return {KernelKind::POTRF, k, {k, k}, {}, 0};
}
inline CholeskyTask trsm_task(std::size_t m, std::size_t k) {
  return {KernelKind::TRSM, k, {m, k}, {{k, k}}, 1};
}
inline CholeskyTask syrk_task(std::size_t m, std::size_t k) {
  return {KernelKind::SYRK, k, {m, m}, {{m, k}}, 1};
}
inline CholeskyTask gemm_task(std::size_t m, std::size_t n, std::size_t k) {
  return {KernelKind::GEMM, k, {m, n}, {{m, k}, {n, k}}, 2};
}

/// Visit every task of an nt x nt tile Cholesky in insertion order.
template <class Visit>
void for_each_cholesky_task(std::size_t nt, Visit&& visit) {
  for (std::size_t k = 0; k < nt; ++k) {
    visit(potrf_task(k));
    for (std::size_t m = k + 1; m < nt; ++m) visit(trsm_task(m, k));
    for (std::size_t m = k + 1; m < nt; ++m) visit(syrk_task(m, k));
    for (std::size_t m = k + 2; m < nt; ++m) {
      for (std::size_t n = k + 1; n < m; ++n) visit(gemm_task(m, n, k));
    }
  }
}

/// Visit, in insertion order, the tasks that read the final version of tile
/// (m, k): the TRSMs of column k for a diagonal tile; for a panel, its SYRK
/// and the GEMMs that take it as first (row m) or second (column m) input.
template <class Visit>
void for_each_reader(std::size_t nt, std::size_t m, std::size_t k,
                     Visit&& visit) {
  if (m == k) {
    for (std::size_t i = k + 1; i < nt; ++i) visit(trsm_task(i, k));
    return;
  }
  visit(syrk_task(m, k));
  for (std::size_t n = k + 1; n < m; ++n) visit(gemm_task(m, n, k));
  for (std::size_t i = m + 1; i < nt; ++i) visit(gemm_task(i, m, k));
}

/// The task's access list: each input Read, then the output ReadWrite, with
/// `datum(tile)` mapping tiles to the backend's data.
template <class Datum>
std::vector<Access> cholesky_accesses(const CholeskyTask& t, Datum&& datum) {
  std::vector<Access> acc;
  acc.reserve(std::size_t(t.num_inputs) + 1);
  for (int i = 0; i < t.num_inputs; ++i) {
    acc.push_back({datum(t.in[i]), AccessMode::Read});
  }
  acc.push_back({datum(t.out), AccessMode::ReadWrite});
  return acc;
}

/// Ranks that read tile (m, k)'s final version under owner-computes (each
/// reader runs on its output tile's owner), excluding the owner itself:
/// those edges are rank-local and ship nothing. Sorted, deduplicated. The
/// SEND/RECV materialization in mp_cholesky and the analytic
/// expected_wire_bytes fold in comm_map.cpp both use it, so they cannot
/// drift.
std::vector<int> cholesky_consumer_ranks(const OwnerMap& owners,
                                         std::size_t m, std::size_t k);

}  // namespace mpgeo
