// The automated precision conversion strategy (paper Section VI,
// Algorithm 2): decide, per communication-issuing tile, whether the sender
// converts the payload down before shipping it (STC) or ships it at storage
// precision and lets each receiver convert (TTC).
//
// For every tile the map records the *communication precision*:
//   * diagonal tile (k, k) — POTRF(k, k) broadcasts the factor to the TRSMs
//     of column k; comm starts at FP32 and is raised to FP64 iff some TRSM
//     below runs in FP64 (Algorithm 2 lines 6-11);
//   * off-diagonal tile (m, k) — TRSM(m, k) broadcasts the panel to the
//     GEMMs of row m, the GEMMs of column m and SYRK(m, k); comm starts at
//     FP16 and is raised to the highest precision among the consuming
//     GEMM kernels, capped at the tile's storage precision (lines 12-28).
//
// Interpretation note. The published pseudocode's row scan runs "n = k+1 to
// m", whose n = m endpoint is the FP64 diagonal (SYRK) — taken literally it
// would raise every panel to its storage cap and no TRSM could ever apply
// STC, contradicting the paper's own Fig 4a (STC on TRSM tiles) and its
// Fig 8 configurations where "all communications can employ the STC
// strategy". The paper's intent — visible in both — is that the FP64
// diagonal consumers (SYRK/POTRF) up-cast whatever arrives and do not veto
// the down-conversion, since the payload's information is bounded by the
// sender's storage anyway. We implement that intent by default and keep the
// literal variant available behind `diagonal_consumers_veto` for study (the
// ablation bench measures the difference).
#pragma once

#include <cstddef>
#include <vector>

#include "core/precision_map.hpp"
#include "dist/owner_map.hpp"
#include "precision/precision.hpp"

namespace mpgeo {

/// Global conversion strategy selector for experiments (Fig 8's two bounds
/// bracket the adaptive strategy).
enum class ConversionStrategy {
  Auto,    ///< Algorithm 2: STC where profitable, TTC elsewhere
  AllTTC,  ///< force receiver-side conversion everywhere (lower bound)
  AllSTC,  ///< sender converts to the kernel-precision floor everywhere —
           ///< the aggressive bound of the paper's Fig-8 bracket. Panel
           ///< wires ignore consumer precisions entirely (no raise scan);
           ///< diagonal wires keep the Auto rule, because an FP32 diagonal
           ///< feeding an FP64 TRSM would change the numerics, not just
           ///< the bytes.
};

std::string to_string(ConversionStrategy s);

class CommMap {
 public:
  CommMap() = default;
  CommMap(std::size_t nt, Precision fill);

  std::size_t nt() const { return nt_; }

  /// Communication precision of data sent by the task operating on (m, k).
  Precision comm(std::size_t m, std::size_t k) const;
  void set_comm(std::size_t m, std::size_t k, Precision p);

  /// True when the tile's sender converts before shipping (STC): the wire
  /// format is strictly narrower than the tile's storage format.
  bool uses_stc(std::size_t m, std::size_t k, const PrecisionMap& pmap) const;

  /// Bytes per element on the wire for this tile's broadcasts.
  std::size_t wire_bytes_per_element(std::size_t m, std::size_t k) const;

  /// Fraction of lower-triangle tiles whose sender applies STC.
  double stc_fraction(const PrecisionMap& pmap) const;

 private:
  std::size_t idx(std::size_t m, std::size_t k) const;
  std::size_t nt_ = 0;
  std::vector<Precision> comm_;
};

struct CommMapOptions {
  ConversionStrategy strategy = ConversionStrategy::Auto;
  /// Literal-pseudocode mode: FP64 diagonal consumers (SYRK) veto STC on
  /// panel tiles. Default off — see the interpretation note above.
  bool diagonal_consumers_veto = false;
};

/// Algorithm 2: derive the communication-precision map from the kernel map.
/// O(NT^3) like the paper's; runs once per factorization.
CommMap build_comm_map(const PrecisionMap& pmap,
                       const CommMapOptions& options = {});

/// Closed-form estimate of the total broadcast payload of one factorization
/// with tiles of dimension `tile`: each POTRF(k,k) feeds the NT-1-k TRSMs
/// of its column, each TRSM(m,k) feeds its NT-k-1 trailing consumers (row
/// GEMMs, column GEMMs, SYRK), every payload at the comm map's wire width.
/// One logical send per consumer — an upper bound on wire traffic that lets
/// callers compare strategies without running the simulator.
std::size_t broadcast_payload_bytes(const PrecisionMap& pmap,
                                    const CommMap& cmap, std::size_t tile);

/// Analytic fold of the wire bytes a rank-sharded factorization (src/dist)
/// ships: for every lower-triangle tile, one message per distinct remote
/// consumer rank (the dist layer converts once and sends once per rank —
/// not once per consumer task like broadcast_payload_bytes), each message
/// rows(m) x rows(k) elements (ragged last tile) at the comm map's wire
/// width clamped to the tile's storage width (the codec never widens on
/// the wire).
///
/// Built on cholesky_consumer_ranks (core/cholesky_tasks.hpp), the helper
/// the SEND/RECV materialization uses, so measured wire.bytes must
/// reconcile exactly — bench_data_motion asserts it.
std::size_t expected_wire_bytes(const PrecisionMap& pmap, const CommMap& cmap,
                                const OwnerMap& owners, std::size_t n,
                                std::size_t nb);

/// Analytic message count of the same fold: one message per (tile, distinct
/// remote consumer rank). Must equal WireStats::messages of the sharded run
/// — compressed sizes are data-dependent, so the compression benches anchor
/// their reconciliation on this count plus the exact payload-byte fold
/// above, then require measured == logged == replayed for the shipped
/// (compressed) bytes.
std::size_t expected_wire_messages(const OwnerMap& owners);

}  // namespace mpgeo
