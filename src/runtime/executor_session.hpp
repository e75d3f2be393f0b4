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
// run's completion is signalled to its caller independently of every other
// run in flight. Numerics never depend on the schedule: conflicting accesses
// within a graph are ordered by its dataflow edges, and distinct runs share
// no data.
#pragma once

#include <cstddef>
#include <memory>

#include "runtime/executor.hpp"
#include "runtime/task_graph.hpp"

namespace mpgeo {

class MetricsRegistry;

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
  /// to run() so callers can keep per-tenant registries.
  MetricsRegistry* metrics = nullptr;
};

class ExecutorSession {
 public:
  explicit ExecutorSession(const ExecutorSessionOptions& options = {});
  /// Joins the pool. Every run() call must have returned first.
  ~ExecutorSession();
  ExecutorSession(const ExecutorSession&) = delete;
  ExecutorSession& operator=(const ExecutorSession&) = delete;

  /// Run `graph` on the pool and block until it quiesces; the one entry
  /// point, which execute() also goes through. Honors capture_trace,
  /// start_hook, retire_hook, fault_injector, metrics (per-run counters) and
  /// the rethrow_errors contract from `options`; with rethrow_errors false,
  /// body failures come back in report.report. Trace timestamps are
  /// relative to the run's start. num_threads, rank_shards and session are
  /// ignored — the session owns the pool. Many threads may run graphs at
  /// once, but never from a task body of this session (the caller would
  /// occupy a worker the nested run needs).
  ExecutionReport run(const TaskGraph& graph, const ExecutorOptions& options);

  std::size_t num_threads() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mpgeo
