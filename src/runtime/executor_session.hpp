// Executor session: the task scheduler. One work-stealing worker pool that
// accepts task subgraphs from many producer threads and retires each
// independently.
//
// Every execution runs on a session. execute() (runtime/executor.hpp) builds
// a dedicated one per call, sized to the graph — the right shape for one big
// factorization. A serving workload, where thousands of small graphs arrive
// concurrently, keeps one session alive instead: N in-flight execute() calls
// with num_threads = 0 would oversubscribe the machine to N x cores and pay
// thread creation for graphs that may hold twenty tasks. A persistent
// session keeps the workers alive across submissions, so concurrent
// producers (e.g. the FitServer's per-fit drivers in src/serve) multiplex
// their subgraphs onto one fixed-size pool: admission costs a queue push,
// not a pool spin-up, and total worker count is capped once for the whole
// process.
//
// Scheduling mirrors PaRSEC's contract: a task becomes runnable the moment
// its last dependency retires. Each worker owns kind-class priority buckets
// (panel kinds preempt trailing updates); the owner pops LIFO, thieves take
// FIFO. Dependency retirement is lock-free (atomic indegrees), and each
// submission is tracked by a Ticket whose completion is signalled
// independently of every other run in flight. Numerics never depend on the
// schedule: conflicting accesses within a graph are ordered by its dataflow
// edges, and distinct submissions share no data.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "runtime/executor.hpp"
#include "runtime/task_graph.hpp"

namespace mpgeo {

class MetricsRegistry;
class FaultInjector;

namespace detail {
struct SessionRun;
}

struct ExecutorSessionOptions {
  std::size_t num_threads = 0;  ///< pool size; 0 = hardware concurrency
  /// Rank-sharded execution (src/dist): partition the pool into this many
  /// shards (capped at the pool size) and pin every task whose
  /// TaskInfo::rank >= 0 to the shard `rank % rank_shards` — worker w belongs
  /// to shard `w % rank_shards`. Stealing is restricted to same-shard
  /// victims, so a shard behaves like one rank's private pool, while
  /// untagged tasks (rank < 0) stay wherever they were spawned. 0 = off (one
  /// shard). Affinity is a locality model, not a correctness requirement:
  /// results are identical sharded or not.
  std::size_t rank_shards = 0;
  /// Session-lifetime scheduler counters (executor.steals, executor.parks,
  /// executor.wakeups, executor.max_queue_depth). Per-run counters
  /// (tasks_retired/failed/cancelled) are reported into the registry given
  /// at submit() so callers can keep per-tenant registries.
  MetricsRegistry* metrics = nullptr;
};

class ExecutorSession {
 public:
  explicit ExecutorSession(const ExecutorSessionOptions& options = {});
  /// Joins the pool. Every submitted run must have been wait()ed first.
  ~ExecutorSession();
  ExecutorSession(const ExecutorSession&) = delete;
  ExecutorSession& operator=(const ExecutorSession&) = delete;

  /// Per-submission knobs, the subgraph-scoped subset of ExecutorOptions.
  struct SubmitOptions {
    bool capture_trace = false;
    /// Runs on the claiming worker before the task body (skipped for
    /// cancelled tasks), exactly like ExecutorOptions::start_hook.
    std::function<void(const Task&)> start_hook;
    /// Runs on the retiring worker before successors are released, exactly
    /// like ExecutorOptions::retire_hook.
    std::function<void(const Task&)> retire_hook;
    FaultInjector* fault_injector = nullptr;
    /// Per-run counters (executor.tasks_retired/failed/cancelled).
    MetricsRegistry* metrics = nullptr;
  };

  /// Handle to one in-flight submission.
  class Ticket {
   public:
    Ticket() = default;
    explicit operator bool() const { return run_ != nullptr; }

   private:
    friend class ExecutorSession;
    std::shared_ptr<detail::SessionRun> run_;
  };

  /// Enqueue `graph`'s roots and return immediately. The graph (and the
  /// state its task bodies reference) must stay alive until wait() returns.
  /// Never blocks, so task bodies may themselves submit follow-up graphs —
  /// but must not wait() on them from a session worker (the wait would
  /// occupy the worker the nested run needs).
  Ticket submit(const TaskGraph& graph, SubmitOptions options);
  Ticket submit(const TaskGraph& graph) {
    return submit(graph, SubmitOptions{});
  }

  /// Block until the run quiesces and return its report. Body failures are
  /// surfaced in report.report (never rethrown here); trace timestamps are
  /// relative to the run's submission.
  ExecutionReport wait(Ticket ticket);

  /// execute()-compatible entry: submit + wait, honoring capture_trace,
  /// start_hook, retire_hook, fault_injector, metrics and the rethrow_errors
  /// contract from `options`. num_threads and rank_shards are ignored — the
  /// session owns the pool.
  ExecutionReport run(const TaskGraph& graph, const ExecutorOptions& options);

  std::size_t num_threads() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mpgeo
