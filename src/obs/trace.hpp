// Chrome tracing ("catapult") JSON export for both backends — load the file
// at chrome://tracing or https://ui.perfetto.dev to see the Gantt chart of an
// execution: which tasks ran where, how well the trailing updates filled the
// workers, where the panel serialized. The moral equivalent of PaRSEC's
// profiling tools the paper cites for performance analysis.
//
// Real runs (ExecutionReport) and simulated runs (SimReport) share one event
// schema, so both load in the same Perfetto UI and can be diffed
// track-by-track:
//   * complete events ("ph":"X"): name = task name, cat = kernel kind;
//     real runs use pid 0 ("host") with one tid per worker, sim runs use
//     pid = device ("gpu<d>") with tid 0 = compute, 1 = copy-in,
//     2 = copy-out;
//   * flow events ("ph":"s"/"f"): one arrow per DAG dependency edge, id =
//     edge index, from the producer's end to the consumer's start (edges
//     whose endpoints were not traced are skipped);
//   * counter tracks ("ph":"C"): tasks in flight (real), cumulative bytes
//     per link class (sim), plus a final sample of every MetricsRegistry
//     counter when a registry is attached.
//
// Timestamps are microseconds emitted in fixed-point (three decimals) — the
// default ostream float format has 6 significant digits, which truncates
// microsecond timestamps past ~1 s of run time and reorders events in the
// viewer.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/sim_executor.hpp"
#include "runtime/executor.hpp"
#include "runtime/task_graph.hpp"

namespace mpgeo {

class MetricsRegistry;

struct TraceExportOptions {
  /// Append a final counter sample per registry counter and gauge
  /// (null = none).
  const MetricsRegistry* metrics = nullptr;
  /// Extra time-series counter tracks, emitted verbatim as "ph":"C" samples:
  /// one entry per track name, samples as (seconds, value) pairs. Used for
  /// series the registry's final-sample dump cannot carry — e.g. the
  /// out-of-core pager's resident-byte transitions
  /// (MpCholeskyResult::ooc_residency) as an "ooc.resident_bytes" track.
  std::vector<std::pair<std::string, std::vector<std::pair<double, double>>>>
      extra_counters;
};

/// Write a real run's trace. Requires the report to have been produced with
/// ExecutorOptions::capture_trace = true (throws otherwise).
void write_chrome_trace(const ExecutionReport& report, const TaskGraph& graph,
                        std::ostream& os,
                        const TraceExportOptions& options = {});

/// Convenience: write to a file path.
void write_chrome_trace_file(const ExecutionReport& report,
                             const TaskGraph& graph, const std::string& path,
                             const TraceExportOptions& options = {});

/// Write a simulated run's trace. Requires the report to have been produced
/// with SimOptions::capture_timeline = true (throws otherwise).
void write_sim_chrome_trace(const SimReport& report, const TaskGraph& graph,
                            std::ostream& os,
                            const TraceExportOptions& options = {});

/// Convenience: write to a file path.
void write_sim_chrome_trace_file(const SimReport& report,
                                 const TaskGraph& graph,
                                 const std::string& path,
                                 const TraceExportOptions& options = {});

}  // namespace mpgeo
