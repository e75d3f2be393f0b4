// Adaptive mixed-precision tile Cholesky (paper Algorithm 1) executed as a
// task graph on the runtime — the numeric path used by the MLE and by all
// accuracy experiments.
//
// Pipeline:
//   1. read the tile norms once and derive the kernel-precision map from
//      them (Higham–Mary rule, Section V) and the communication map
//      (Algorithm 2, Section VI);
//   2. re-store tiles per the storage map (Fig 2b), truncating each one
//      in the same visit when truncation is on;
//   3. insert POTRF/TRSM/SYRK/GEMM tasks with read/write accesses; the
//      runtime's dependence analysis reproduces the dataflow of Fig 3;
//   4. execute asynchronously on a worker pool.
//
// STC's numeric footprint: when Algorithm 2 selects sender-side conversion
// for a panel tile, the broadcast payload is the tile rounded to the wire
// format, so *every* consumer — including the FP64 SYRK — sees wire-rounded
// values. We model that by rounding the tile through the wire format right
// after its TRSM. (GEMM consumers round to their input format regardless,
// so the only measurable difference is on the FP64 diagonal chain — this is
// the accuracy cost of STC the paper argues is negligible, and our accuracy
// suite verifies it.)
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/comm_map.hpp"
#include "core/ooc_pager.hpp"
#include "core/precision_map.hpp"
#include "core/tile_matrix.hpp"
#include "dist/owner_map.hpp"
#include "dist/wire.hpp"
#include "linalg/operand_cache.hpp"
#include "runtime/executor.hpp"

namespace mpgeo {

class FaultInjector;

/// Bounded precision-escalation retry for POTRF breakdowns (DESIGN.md 5e):
/// when a diagonal tile loses positive definiteness under demotion, promote
/// the offending row/column band in the precision map one rung toward FP64,
/// restore the pristine values, and re-factor.
struct EscalationOptions {
  /// Retry attempts after a breakdown. 0 (default here; fit_mle enables it)
  /// reports the failure as before, leaving `a` partially factored.
  int max_attempts = 0;
  /// Additionally promote *every* tile one rung per retry. Guarantees the
  /// map reaches all-FP64 within ladder-length retries even when the
  /// breakdown wanders between diagonal tiles; band-only (false) is the
  /// cheaper targeted policy.
  bool promote_ladder = false;
};

/// Sub-ladder storage truncation (DESIGN.md 5h — the GDAL RFC 99 idea one
/// level below the precision ladder): in the same per-tile visit that
/// re-stores a tile in its storage format, zero its mantissa bits beyond
/// what the Higham–Mary slack requires (build_truncation_map over the FP64
/// norms the precision map came from), so at-rest compression and spill
/// bite much harder. This perturbs values within the factorization's own
/// error budget — the accuracy suite bounds the theta-hat impact — and is
/// applied on the owner's tile before any serialization, so rank-sharded
/// runs remain bit-identical to single-rank runs.
struct TruncationOptions {
  bool enabled = false;
};

struct MpCholeskyOptions {
  /// Application-required accuracy u_req (paper: 1e-4 for 2D-sqexp, 1e-9
  /// for 2D-Matérn, 1e-8 for 3D-sqexp).
  double u_req = 1e-9;
  /// Precision ladder, finest first. Defaults to {FP64, FP32, FP16_32, FP16}.
  std::vector<Precision> ladder = default_precision_ladder();
  /// Experimentally determined FP16_32 rule epsilon (0 = theoretical bound).
  /// See build_precision_map.
  double fp16_32_rule_eps = 0.0;
  CommMapOptions comm;
  std::size_t num_threads = 0;  ///< worker pool size; 0 = hardware
  /// Capture the per-task trace (ExecutorOptions::capture_trace) and keep
  /// the executed TaskGraph in the result, so the run can be exported with
  /// write_chrome_trace / analyzed with critical_path.
  bool capture_trace = false;
  /// Report counters into this registry (null = off): the executor's
  /// scheduler counters, operand_cache.*, and cholesky.stc_wire_roundings
  /// (panels actually rounded through their wire format — the count of STC
  /// conversions the real numeric path performed), plus cholesky.breakdowns
  /// and cholesky.escalations when escalation is enabled.
  MetricsRegistry* metrics = nullptr;
  /// Breakdown recovery policy (off by default at this level).
  EscalationOptions escalation;
  /// Restores the pristine FP64 values of `a` before an escalation retry
  /// (e.g. refill the covariance from its generator — cheaper than holding
  /// a copy). Null = mp_cholesky snapshots `a` before the first attempt
  /// whenever retries are possible, doubling resident matrix memory. The
  /// callback gets the matrix as the failed attempt left it: out of core,
  /// tiles may be spilled (fill_tiled_covariance copes by discarding stale
  /// blobs in place).
  std::function<void(TileMatrix&)> regenerate;
  /// Deterministic fault injection (runtime/fault_injection.hpp), forwarded
  /// to the executor for TaskException faults and consulted by the POTRF /
  /// TRSM bodies for conversion NaN/overflow corruption. Null = off.
  FaultInjector* fault_injector = nullptr;
  /// Execute the factorization graph on this persistent shared pool instead
  /// of a per-call pool (runtime/executor_session.hpp); num_threads is then
  /// ignored. Null = dedicated pool (default).
  ExecutorSession* session = nullptr;
  /// Rank-sharded execution (src/dist): distribute tiles over `dist.ranks`
  /// ranks block-cyclically, pin each tile's tasks to its owner's
  /// thread-pool shard, and materialize SEND/RECV tasks with real serialized
  /// payloads on every cross-rank DAG edge (STC/TTC per the comm map).
  /// ranks == 1 (default) is the zero-copy shared-memory path. Results are
  /// bitwise identical across rank counts and pool sizes: STC panels are
  /// wire-rounded in place before serialization, so every payload round-trips
  /// the codec exactly, and TTC payloads ship at storage width.
  DistOptions dist;
  /// Compress wire payloads with the tile codec (byte-shuffle + LZ) before
  /// posting — compression composes with STC: the sender converts *and*
  /// compresses. Lossless over the already wire-rounded payload, so numerics
  /// are untouched; WireRecord::wire_bytes then records the bytes actually
  /// shipped (always <= the payload bytes that reconcile against
  /// expected_wire_bytes), and wire.shipped_bytes / wire.compressed_*
  /// counters report the savings.
  bool compress_wire = false;
  /// Sub-ladder mantissa truncation of tile storage (see above).
  TruncationOptions truncation;
  /// Out-of-core execution against the spill tier (core/ooc_pager.hpp).
  /// With ooc.enabled and a spill-enabled matrix, the up-front restore_all
  /// is dropped: the one norm pass behind the precision and truncation maps
  /// reads spilled tiles in place (TileMatrix::read_tile), storage
  /// preparation (conversion and truncation) restores and re-spills each
  /// tile that changes once, one tile at a time, and during the
  /// factorization the pager keeps residency at the
  /// working set (budgeted; each worker restores and spills the tiles its
  /// own tasks need). Factors are bit-identical to the fully-resident run at
  /// every budget — spill/restore is bit-exact and the task graph is
  /// unchanged. On return the factor is spilled; logdet_tiled and
  /// forward_solve_tiled read it in place, and only direct tile() access
  /// needs restore_all() first. The flag is ignored when the matrix has no
  /// spill tier.
  OutOfCoreOptions ooc;
};

struct MpCholeskyResult {
  PrecisionMap pmap;
  CommMap cmap;
  /// 0 on success; LAPACK-style positive value when a diagonal tile lost
  /// positive definiteness (possible under very coarse u_req) and the
  /// escalation budget — if any — was exhausted.
  int info = 0;
  /// Diagonal tile index k of the last POTRF breakdown (-1 = none).
  int breakdown_tile = -1;
  /// Attempts that ended in a breakdown / escalation retries performed.
  /// info == 0 with breakdowns > 0 means escalation recovered the run.
  int breakdowns = 0;
  int escalations = 0;
  /// Structured failure outcome of each broken attempt, in attempt order
  /// (task ids refer to that attempt's graph; graph construction is
  /// deterministic, so ids are stable across attempts).
  std::vector<RunReport> attempt_failures;
  ExecutionReport exec;
  std::size_t stored_bytes = 0;  ///< matrix footprint after storage mapping
  /// Operand-cache counters for this factorization. Every pack is freed when
  /// its tile's last access retires, so `bytes` is 0 after a successful run.
  OperandCache::Stats operand_cache;
  /// The executed TaskGraph, kept when MpCholeskyOptions::capture_trace so
  /// exec.trace can be rendered/analyzed against it. For inspection only:
  /// the task bodies hold pointers into state that died with the
  /// factorization — never re-execute this graph.
  std::shared_ptr<const TaskGraph> graph;
  /// Wire traffic of the rank-sharded path (all-zero / empty when
  /// dist.ranks == 1): aggregate stats of every message actually shipped,
  /// and the full log sorted by (tm, tk, src, dst) — replayable through
  /// gpusim via replay_wire_log for byte-exact cross-validation. For the
  /// escalation loop these describe the final (successful) attempt.
  WireStats wire;
  std::vector<WireRecord> wire_log;
  /// Out-of-core pager outcome of the final attempt (all-zero when ooc is
  /// off); peak_resident_bytes is the budget gate bench_out_of_core asserts.
  OocStats ooc;
  /// (seconds, accounted payload bytes) residency transitions of the final
  /// attempt, captured when capture_trace is set and ooc.shared is null
  /// (a shared pager keeps its own track) — exported as a Perfetto counter
  /// track via TraceExportOptions::extra_counters. Their maximum is
  /// ooc.peak_resident_bytes.
  std::vector<std::pair<double, double>> ooc_residency;
};

/// Factor `a` (generated in FP64) in place: on return the lower triangle
/// holds the tile Cholesky factor in mixed-precision storage.
MpCholeskyResult mp_cholesky(TileMatrix& a, const MpCholeskyOptions& options = {});

/// Plain FP64 tile Cholesky through the same task machinery (the paper's
/// baseline). Equivalent to mp_cholesky with a ladder of {FP64}:
/// `options.ladder` is overridden, everything else (pool size, metrics,
/// out-of-core paging) is honored — so the baseline can run under the same
/// resident-byte budget as the mixed-precision factorization.
MpCholeskyResult fp64_cholesky(TileMatrix& a,
                               const MpCholeskyOptions& options = {});

/// log|A| = 2 sum log diag(L) from a factored TileMatrix. A spilled
/// diagonal tile is decoded into scratch (TileMatrix::read_tile), under a
/// lease of its bytes against `shared`'s budget when non-null, and never
/// restored: residency and the spill file are unchanged, and the sum is
/// bit-identical to the resident factor's.
double logdet_tiled(const TileMatrix& l, SharedOocPager* shared = nullptr);

/// Solve L y = z in place (tiled forward substitution); z.size() == l.n().
/// With a non-null `cache`, each resident factor tile's widened operand is
/// fetched from the cache (version 0 — the factor is immutable across
/// solves), so repeated solves against one factor (Monte Carlo sampling,
/// kriging loops) widen every tile once instead of once per solve. Spilled
/// tiles are read as in logdet_tiled and widened without the cache. z is
/// bit-identical in every case.
void forward_solve_tiled(const TileMatrix& l, std::vector<double>& z,
                         OperandCache* cache = nullptr,
                         SharedOocPager* shared = nullptr);

/// ||A - L L^T||_F / ||A||_F against a dense FP64 copy of the original
/// matrix (test/diagnostic helper; O(n^3), small problems only).
double tiled_cholesky_residual(const Matrix<double>& original,
                               const TileMatrix& factored);

}  // namespace mpgeo
