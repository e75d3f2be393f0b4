// Multi-tenant MLE fit server (DESIGN.md 5f): batched concurrent fits on
// one shared executor.
//
// The per-fit machinery below this layer — the work-stealing scheduler, the
// operand cache, the covariance fast path, escalation recovery — was built
// and benchmarked one fit at a time. A serving workload inverts the shape:
// thousands of small/medium fits arrive concurrently, and running each
// through its own fit_mle call oversubscribes the machine (every likelihood
// evaluation spins a pool of `cores` threads) while leaving the amortizable
// state (distance geometries, workspaces) stranded per fit. The FitServer
// multiplexes many concurrent FitRequests onto:
//
//   * ONE persistent ExecutorSession (runtime/executor_session.hpp) that
//     every fit's covariance-generation and factorization subgraphs run on;
//   * a pool of reusable MleWorkspaces, rebound per fit via the
//     location-fingerprint fail-fast contract;
//   * a cross-tenant GeometryRegistry so tenants with identical location
//     sets share one theta-invariant distance cache;
//   * a bounded admission queue with priority tiers — saturated submissions
//     are shed immediately with a structured outcome instead of queuing
//     without bound.
//
// Per-tenant results are bit-identical to a serial fit_mle loop: each fit
// keeps its own dataflow-ordered graphs and workspace, so interleaving fits
// on the shared pool moves wall time, never values.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <future>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/mle.hpp"
#include "serve/geometry_registry.hpp"
#include "stats/covariance.hpp"
#include "stats/locations.hpp"

namespace mpgeo {

class MetricsRegistry;
class SharedOocPager;

/// Admission tiers, highest first. Within a tier the queue is FIFO.
enum class FitPriority : std::uint8_t {
  Interactive = 0,  ///< latency-sensitive (dashboards, interactive tools)
  Batch = 1,        ///< normal production traffic
  BestEffort = 2,   ///< backfill; first to wait, never ahead of the others
};

inline constexpr std::size_t kNumFitPriorities = 3;

std::string to_string(FitPriority p);

struct FitRequest {
  CovKind kind = CovKind::SqExp;
  /// Shared so many tenants (and the server's geometry registry) can alias
  /// one station set without copies. Must be non-null.
  std::shared_ptr<const LocationSet> locations;
  std::vector<double> observations;
  /// Per-tenant MLE configuration. The server overrides the execution
  /// backend (options.session) to its shared pool; everything numeric
  /// (u_req, tile, bounds, optimizer) is honored as given, which is what
  /// makes server results bit-identical to a serial fit_mle with the same
  /// options.
  MleOptions options;
  FitPriority priority = FitPriority::Batch;
  std::string tenant;  ///< label for traces and diagnostics
};

enum class FitOutcome : std::uint8_t {
  Ok,     ///< fit ran; result holds theta-hat
  Shed,   ///< admission control rejected it (queue saturated or shutdown)
  Error,  ///< fit started but threw (surfaced, never swallowed)
};

struct FitResponse {
  FitOutcome outcome = FitOutcome::Error;
  MleResult result;    ///< valid when outcome == Ok
  std::string error;   ///< structured reason when Shed / Error
  std::uint64_t fit_id = 0;
  /// 1-based order in which fits finished (0 for shed requests) — the
  /// deterministic observable the priority tests assert on.
  std::uint64_t completion_index = 0;
  double queue_seconds = 0.0;  ///< admission -> slot start
  double run_seconds = 0.0;    ///< slot start -> completion
  double total_seconds = 0.0;  ///< admission -> completion
};

/// One fit's lifetime on the server clock, for the Perfetto export.
struct FitSpan {
  std::uint64_t fit_id = 0;
  std::string tenant;
  std::size_t slot = 0;
  FitPriority priority = FitPriority::Batch;
  FitOutcome outcome = FitOutcome::Ok;
  double submit_seconds = 0.0;
  double start_seconds = 0.0;
  double end_seconds = 0.0;
};

/// Extra counter tracks for the fit-span export: (track name, (seconds,
/// value) samples). Same shape as TraceExportOptions::extra_counters — the
/// global-residency track (SharedOocPager::residency_samples) plots the
/// shared ledger's sawtooth under the overlapping fit spans.
using FitTraceCounters =
    std::vector<std::pair<std::string, std::vector<std::pair<double, double>>>>;

/// Write per-fit spans in the repo's Chrome/Perfetto schema (obs/trace.cpp):
/// one "slot" track per fit driver with an X event per fit (cat = FIT /
/// SHED / FAILED), plus a serve.queue_depth counter track derived from the
/// submit/start edges. Loads alongside an executor trace of the same run so
/// overlapping fits can be inspected over the kernel-level Gantt.
void write_fit_spans_chrome_trace(const std::vector<FitSpan>& spans,
                                  std::ostream& os,
                                  const FitTraceCounters& extra_counters = {});
void write_fit_spans_chrome_trace_file(
    const std::vector<FitSpan>& spans, const std::string& path,
    const FitTraceCounters& extra_counters = {});

struct FitServerOptions {
  /// Shared executor pool size; 0 = hardware concurrency. This caps TOTAL
  /// workers across every concurrent fit — the whole point of the server.
  std::size_t num_threads = 0;
  /// Fits in flight at once. Each occupies one driver thread that runs the
  /// optimizer loop and submits its subgraphs to the shared pool; drivers
  /// block cheaply while the pool executes, so slots can exceed cores.
  std::size_t fit_slots = 4;
  /// Bounded admission queue across all tiers; submissions beyond it are
  /// shed with FitOutcome::Shed. Sized for the burst you want to absorb.
  std::size_t queue_capacity = 256;
  /// Start driver threads in the constructor. Tests set false, enqueue a
  /// deterministic backlog, then call start() — no sleeps, no races.
  bool autostart = true;
  /// Record per-fit spans for write_fit_spans_chrome_trace / fit_spans().
  bool capture_fit_spans = false;
  /// serve.* counters and gauges, plus the executor/covgen/cholesky
  /// counters of every fit, aggregated (null = off).
  MetricsRegistry* metrics = nullptr;
  /// Oversubscribe memory the way the server already oversubscribes cores:
  /// non-zero builds ONE SharedOocPager (core/shared_pager.hpp) with this
  /// global resident-byte budget, and every fit runs out-of-core as a
  /// tenant of it — its MleOptions::ooc is overridden to register with the
  /// shared arbiter at the request's admission tier. 0 = fits run with
  /// whatever MleOptions::ooc they brought (a pager per call, or resident).
  std::size_t global_resident_budget = 0;
  /// Per-tier guaranteed resident floors (bytes) under the global budget,
  /// indexed by FitPriority: cross-tenant eviction never takes a fit of
  /// tier i below resident_floor_bytes[i]. All-zero = no guarantees.
  std::array<std::size_t, kNumFitPriorities> resident_floor_bytes{};
  /// Capture the global residency track for the Perfetto export
  /// (SharedOocPager::residency_samples) when global_resident_budget != 0.
  bool capture_global_residency = false;
  /// Run the shared pager's O(tiles) ledger audit after every transition
  /// (SharedPagerOptions::check_invariants). Test/debug knob: stress suites
  /// turn it on and assert first_invariant_violation() stays empty.
  bool check_global_invariants = false;
};

class FitServer {
 public:
  explicit FitServer(const FitServerOptions& options = {});
  /// Implies shutdown(): drains queued fits, joins drivers.
  ~FitServer();
  FitServer(const FitServer&) = delete;
  FitServer& operator=(const FitServer&) = delete;

  /// Start the driver threads (no-op if already started / autostart).
  void start();

  /// Admit one fit. Returns a future that resolves to the response:
  /// immediately (with FitOutcome::Shed) when the queue is saturated or the
  /// server is shutting down, otherwise when the fit completes.
  std::future<FitResponse> submit(FitRequest request);

  /// Stop admitting, drain every queued fit, join the drivers. Idempotent.
  void shutdown();

  std::size_t queue_depth() const;  ///< fits admitted but not yet started
  std::size_t num_threads() const;  ///< shared executor pool size

  /// The cross-tenant geometry registry (exposed for tests/diagnostics).
  GeometryRegistry& geometries() { return geometries_; }

  /// The global residency arbiter (null unless global_resident_budget != 0).
  /// Outlives every fit; exposed for stats, residency samples, and benches.
  SharedOocPager* shared_pager();

  /// Spans recorded so far (capture_fit_spans only), in completion order.
  std::vector<FitSpan> fit_spans() const;

 private:
  struct Job;
  struct Impl;

  void driver_loop(std::size_t slot);
  void run_fit(std::size_t slot, Job job);

  FitServerOptions options_;
  GeometryRegistry geometries_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mpgeo
