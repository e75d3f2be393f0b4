// Asynchronous parallel executor for TaskGraph: the "really run it" backend.
//
// Mirrors PaRSEC's scheduling contract: a task becomes runnable the moment
// its last dependency retires, with no global barriers between algorithm
// phases. Execution is work-conserving over a fixed worker pool — an
// ExecutorSession (runtime/executor_session.hpp), the one scheduler; the
// numerical result is deterministic because all conflicting accesses are
// ordered by the graph's dataflow edges.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <vector>

#include "runtime/task_graph.hpp"

namespace mpgeo {

class MetricsRegistry;
class FaultInjector;
class ExecutorSession;

/// Terminal state of one task after an execution quiesced.
enum class TaskStatus : std::uint8_t {
  Completed,  ///< body ran to completion
  Failed,     ///< body (or an injected fault) threw
  Cancelled,  ///< a transitive predecessor failed; body never ran
};

/// Per-task execution record for post-mortem analysis / Gantt rendering.
/// Cancelled tasks appear as zero-length spans on their retiring worker.
struct TaskTraceEntry {
  TaskId task = 0;
  std::size_t worker = 0;
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  TaskStatus status = TaskStatus::Completed;
};

/// Structured failure outcome of one execution. A failed task poisons its
/// transitive dependents — they retire as CANCELLED without running —
/// while independent subgraphs drain normally. The failed/cancelled sets
/// are a pure function of the graph and the failing tasks, so they are
/// identical across pool sizes and repeated runs.
struct RunReport {
  std::vector<TaskId> failed;     ///< tasks whose body threw, ascending id
  std::vector<TaskId> cancelled;  ///< poisoned tasks, ascending id
  std::exception_ptr first_error; ///< null iff failed is empty
  bool ok() const { return failed.empty(); }
};

struct ExecutionReport {
  std::size_t tasks_run = 0;  ///< bodies that ran to completion
  double wall_seconds = 0.0;
  std::vector<TaskTraceEntry> trace;  // populated when tracing enabled
  RunReport report;  ///< failure outcome (empty sets on a clean run)
};

struct ExecutorOptions {
  /// Worker pool size; 0 = hardware concurrency. execute() builds a
  /// dedicated ExecutorSession of min(num_threads, num_tasks) workers for
  /// each call, so N concurrent callers with the default spin N separate
  /// pools and oversubscribe the machine to N x cores. Concurrent callers
  /// should share one pool by setting `session`, in which case this field
  /// is ignored — the session owns its sizing.
  std::size_t num_threads = 0;
  bool capture_trace = false;
  /// Report scheduler counters into this registry (null = off):
  /// executor.tasks_retired, executor.steals, executor.parks,
  /// executor.wakeups, and the executor.max_queue_depth gauge (peak size of
  /// any one worker's ready deques). Counter adds are sharded by worker
  /// index, so instrumentation stays uncontended on the hot path. On a
  /// shared `session` only the per-run counters (tasks_retired/failed/
  /// cancelled) land here; the session reports the others into its own.
  MetricsRegistry* metrics = nullptr;
  /// Called on the claiming worker immediately before a task's body runs
  /// (before fault injection). Skipped for cancelled tasks — a task either
  /// sees both hooks (start + retire) or, on a body failure, the start hook
  /// only. Dataflow users hook this to prepare the data a task is about to
  /// touch — e.g. the out-of-core pager pins and faults in spilled tiles on
  /// this worker (core/shared_pager.hpp). Must be thread-safe; exceptions
  /// propagate like body exceptions.
  std::function<void(const Task&)> start_hook;
  /// Called on the retiring worker after a task's body returns and before
  /// its successors are released. Dataflow users hook this to observe
  /// writes as they commit — e.g. invalidating operand-cache entries of
  /// data the task wrote, before any successor can read the datum again.
  /// Must be thread-safe; exceptions propagate like body exceptions.
  std::function<void(const Task&)> retire_hook;
  /// Legacy contract (true): rethrow the first body exception after the pool
  /// quiesces. With false the caller gets the structured outcome instead:
  /// ExecutionReport::report carries the failed/cancelled sets and the first
  /// exception, and execute() itself never throws for body failures.
  bool rethrow_errors = true;
  /// Deterministic fault injection (runtime/fault_injection.hpp): consulted
  /// before each task body. Null = off; costs one branch per task.
  FaultInjector* fault_injector = nullptr;
  /// Run the graph on this persistent session's worker pool
  /// (runtime/executor_session.hpp) instead of a dedicated one.
  /// num_threads and rank_shards are ignored on this path; the other knobs
  /// keep their meaning. Null = dedicated pool (default).
  ExecutorSession* session = nullptr;
  /// Rank-sharded execution (src/dist): the dedicated session partitions
  /// its workers into this many shards and pins rank-tagged tasks to them
  /// (ExecutorSessionOptions::rank_shards). 0 = off. Ignored when `session`
  /// is set: a shared session runs rank-tagged graphs with its own sharding
  /// (the FitServer's runs unsharded), and results are identical either way
  /// because numerics are dataflow-ordered.
  std::size_t rank_shards = 0;
};

/// Run every task body in dependency order, in parallel, on `options.session`
/// or on a dedicated session built for this call. Graph tasks with a
/// null body are retired without doing work (they still gate successors).
/// A task whose body throws retires as FAILED and poisons its transitive
/// dependents (retired as CANCELLED, bodies never run) while everything
/// else drains; with rethrow_errors the first exception then propagates to
/// the caller, otherwise it is surfaced in ExecutionReport::report.
ExecutionReport execute(const TaskGraph& graph, const ExecutorOptions& options = {});

}  // namespace mpgeo
