// The four numerical kernels of the tile Cholesky (Algorithm 1 of the paper)
// operating on precision-erased tiles with explicit compute precision.
//
// Semantics (lower Cholesky, trailing-update form):
//   potrf_tile:  Ckk := chol(Ckk)                       (FP64 only — diagonal)
//   trsm_tile :  Cmk := Cmk * Ckk^{-T}                  (FP64 or FP32;
//                Nvidia GPUs have no 16-bit TRSM, matching the paper)
//   syrk_tile :  Cmm := Cmm - Cmk * Cmk^T               (FP64 only — diagonal)
//   gemm_tile :  Cmn := Cmn - Cmk * Cnk^T               (any Precision)
//
// Each kernel widens its operands to double, applies the requested format's
// rounding semantics, and writes the result back through the output tile's
// storage format.
//
// Read-only operands are TileOperand{tile, version}. With an OperandCache
// they are fetched as versioned packed panels, so the first consumer of a
// panel tile prepares it and every later kernel reuses the pack — the
// shared-memory analogue of the paper's sender-side conversion. A null cache
// packs each operand privately, the per-consumer conversion of a runtime
// without STC; the results are bit-identical either way.
#pragma once

#include <cstdint>

#include "linalg/anytile.hpp"
#include "precision/precision.hpp"

namespace mpgeo {

class OperandCache;

/// A read-only kernel operand: the tile plus the data version the consumer
/// observes (from the task graph's dependence analysis; 0 for immutable or
/// caller-versioned data).
struct TileOperand {
  const AnyTile* tile = nullptr;
  std::uint64_t version = 0;
};

/// In-place Cholesky of a diagonal tile. Returns LAPACK-style info
/// (0 = success, j > 0 = leading minor j not positive definite).
int potrf_tile(AnyTile& ckk);

/// Panel solve. `prec` must be FP64 or FP32 (throws otherwise).
void trsm_tile(Precision prec, TileOperand ckk, AnyTile& cmk,
               OperandCache* cache);

/// Diagonal trailing update, FP64 (the paper's DSYRK).
void syrk_tile(TileOperand cmk, AnyTile& cmm, OperandCache* cache);

/// Off-diagonal trailing update at any supported precision.
void gemm_tile(Precision prec, TileOperand cmk, TileOperand cnk, AnyTile& cmn,
               OperandCache* cache);

}  // namespace mpgeo
