#include "linalg/tile_kernels.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "linalg/blas.hpp"
#include "linalg/operand_cache.hpp"
#include "precision/mixed_gemm.hpp"

namespace mpgeo {
namespace {

// Grow-only per-worker scratch for the in-out C tile round trip.
std::vector<double>& c_scratch(std::size_t n) {
  thread_local std::vector<double> c;
  c.resize(n);
  return c;
}

}  // namespace

int potrf_tile(AnyTile& ckk) {
  MPGEO_REQUIRE(ckk.rows() == ckk.cols(), "potrf_tile: tile must be square");
  const std::size_t n = ckk.rows();
  auto& a = c_scratch(n * n);
  ckk.to_double(a);
  const int info = potrf_lower(n, a.data(), n);
  // On a breakdown the tile keeps its input values.
  if (info != 0) return info;
  // Zero the strictly-upper part so downstream consumers see a clean factor.
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < j; ++i) a[i + j * n] = 0.0;
  ckk.from_double(a);
  return 0;
}

void trsm_tile(Precision prec, TileOperand ckk, AnyTile& cmk,
               OperandCache* cache) {
  MPGEO_REQUIRE(prec == Precision::FP64 || prec == Precision::FP32,
                "trsm_tile: GPUs only provide FP64/FP32 TRSM");
  MPGEO_REQUIRE(ckk.tile->rows() == ckk.tile->cols(),
                "trsm_tile: Ckk must be square");
  MPGEO_REQUIRE(cmk.cols() == ckk.tile->rows(), "trsm_tile: shape mismatch");
  const std::size_t m = cmk.rows();
  const std::size_t n = cmk.cols();
  auto& b = c_scratch(m * n);
  if (prec == Precision::FP64) {
    const auto l = cached_operand(cache, *ckk.tile, ckk.version, prec);
    cmk.to_double(b);
    trsm_right_lower_trans<double>(m, n, 1.0, l->data(), n, b.data(), m);
  } else {
    const auto l = cached_operand_f32(cache, *ckk.tile, ckk.version, prec);
    thread_local std::vector<float> bf;
    bf.resize(m * n);
    cmk.to_float(bf);
    trsm_right_lower_trans<float>(m, n, 1.0f, l->data(), n, bf.data(), m);
    std::copy(bf.begin(), bf.end(), b.begin());
  }
  cmk.from_double(b);
}

void syrk_tile(TileOperand cmk, AnyTile& cmm, OperandCache* cache) {
  MPGEO_REQUIRE(cmm.rows() == cmm.cols(), "syrk_tile: Cmm must be square");
  MPGEO_REQUIRE(cmk.tile->rows() == cmm.rows(), "syrk_tile: shape mismatch");
  const std::size_t n = cmm.rows();
  const std::size_t k = cmk.tile->cols();
  const auto a =
      cached_operand(cache, *cmk.tile, cmk.version, Precision::FP64);
  auto& c = c_scratch(n * n);
  cmm.to_double(c);
  syrk_lower_notrans(n, k, -1.0, a->data(), n, 1.0, c.data(), n);
  symmetrize_from_lower<double>(n, c.data(), n);
  cmm.from_double(c);
}

void gemm_tile(Precision prec, TileOperand cmk, TileOperand cnk, AnyTile& cmn,
               OperandCache* cache) {
  MPGEO_REQUIRE(cmk.tile->cols() == cnk.tile->cols(),
                "gemm_tile: inner dim mismatch");
  MPGEO_REQUIRE(cmn.rows() == cmk.tile->rows() &&
                    cmn.cols() == cnk.tile->rows(),
                "gemm_tile: output shape mismatch");
  const std::size_t m = cmn.rows();
  const std::size_t n = cmn.cols();
  const std::size_t k = cmk.tile->cols();
  // Both operands are read as their column-major packs (Cmk as A, Cnk as
  // B^T), so one cache entry per (tile, version, prec) serves either operand
  // role of the trailing update — and, at FP64, the panel's SYRK too.
  auto& c = c_scratch(m * n);
  cmn.to_double(c);
  if (prec == Precision::FP64) {
    const auto a = cached_operand(cache, *cmk.tile, cmk.version, prec);
    const auto b = cached_operand(cache, *cnk.tile, cnk.version, prec);
    mixed_gemm_packed(prec, m, n, k, -1.0, a->data(), b->data(), 1.0,
                      c.data(), m);
  } else {
    // Sub-FP64 operands live in float packs: bit-identical after widening,
    // half the cache bytes and kernel read traffic.
    const auto a = cached_operand_f32(cache, *cmk.tile, cmk.version, prec);
    const auto b = cached_operand_f32(cache, *cnk.tile, cnk.version, prec);
    mixed_gemm_packed(prec, m, n, k, -1.0, a->data(), b->data(), 1.0,
                      c.data(), m);
  }
  cmn.from_double(c);
}

}  // namespace mpgeo
