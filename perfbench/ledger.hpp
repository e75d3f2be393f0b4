// The traced pass's span store and time ledger.
//
// Spans are recorded by the benchmark around its calls into each layer
// (nothing in src/ is instrumented): name, layer, start, end, parent, the id
// of the operation (fit, evaluation or factorization) they belong to, and a
// track (0 = the calling thread, 1 + w = executor worker w). They stay in
// memory and are written once, at the end of the run, in the repo's
// Chrome/Perfetto schema (complete "X" events, pid 0, one tid per track).
//
// Ledger: every span carries a layer, or none for an operation's root. A
// span's self time is its duration minus its direct children on the same
// track. The executor's share of a factorization is taken apart on the
// worker tracks (task spans from MpCholeskyOptions::capture_trace): kernel
// busy time per (kind, precision) and the scheduler's gaps between a
// worker's consecutive tasks, both divided by the worker count. What no
// layer covers — a root's self time, and the pool's spin-up before a
// worker's first task and drain after its last — is the unattributed part.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mpgeo {
struct MpCholeskyResult;
class MetricsRegistry;
class TileMatrix;
}  // namespace mpgeo

namespace perfbench {

class Result;

struct Span {
  std::string name;
  std::string layer;  ///< "" for an operation's root span
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  std::uint64_t op = 0;
  int track = 0;
};

/// Busy time and computed flops of one (kind, precision) kernel pair.
struct KernelTotals {
  double busy_s = 0.0;
  double flops = 0.0;  ///< computed from tile shapes, not counted in hardware
};

/// What the traced factorizations of a run add up to.
struct ExecTotals {
  std::map<std::string, KernelTotals> kernels;  ///< key "GEMM.FP16_32"
  double busy_s = 0.0;    ///< sum over workers
  double worker_s = 0.0;  ///< exec wall x workers
  double exec_s = 0.0;    ///< exec wall
  double prep_s = 0.0;    ///< mp_cholesky wall - exec wall
  std::uint64_t opcache_hits = 0, opcache_fills = 0;
  std::size_t opcache_peak_bytes = 0;
  std::size_t demoted = 0, tiles = 0;  ///< precision map of the last one
};

class Ledger {
 public:
  /// Open a span on the calling thread's track; returns its index.
  int begin(const std::string& name, const std::string& layer,
            std::uint64_t op, int parent = -1);
  void end(int span);
  /// Record a finished span (synthesized from a report or a task trace).
  int add(Span s);

  /// Record a traced mp_cholesky call that ran from `call_start` to
  /// `call_end` (seconds on now_s()) under `parent`: a chol.prep and a
  /// chol.exec span on the calling track, the task spans on the worker
  /// tracks, and their totals (with the operand cache's counters and the
  /// precision map's demoted share) folded into `totals`. The executor
  /// starts after the preparation and the call returns right after it
  /// joins, so the exec span is placed at the end of the call.
  void add_factorization(const mpgeo::MpCholeskyResult& r,
                         const mpgeo::TileMatrix& a, std::size_t workers,
                         double call_start, double call_end, int parent,
                         std::uint64_t op, ExecTotals& totals);

  /// Self seconds per layer over the caller track, with the executor's
  /// spans replaced by their worker-track decomposition (kernel busy and
  /// scheduler gaps, divided by `workers`); "" collects unattributed time.
  std::map<std::string, double> self_by_layer(std::size_t workers) const;

  /// Sum of root-span durations (the wall time the ledger explains).
  double root_seconds() const;

  /// Write every span as a Chrome/Perfetto complete event.
  void write_chrome(const std::string& path) const;

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// RAII span on the calling thread's track.
class Scope {
 public:
  Scope(Ledger* ledger, const std::string& name, const std::string& layer,
        std::uint64_t op, int parent = -1);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Ledger* ledger_;
  int id_ = -1;
};

/// Set the factorization, kernel, operand-cache and scheduler rows from
/// `ex` (per traced factorization) and the registry's executor and
/// escalation counters (per evaluation; a factorization on the factor
/// workloads).
void set_exec_layers(Result& out, const ExecTotals& ex, double factorizations,
                     const mpgeo::MetricsRegistry& reg, double evals);

/// Set ledger.unattributed_frac and print each layer's self time per
/// operation.
void set_ledger(Result& out, const Ledger& led, std::size_t workers,
                double operations);

}  // namespace perfbench
