#include "runtime/executor.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "obs/metrics.hpp"
#include "runtime/executor_session.hpp"
#include "runtime/fault_injection.hpp"

namespace mpgeo {
namespace {

/// Resolved metric handles for one execution; default-constructed handles
/// are no-op sinks, so an execution without a registry pays one null check
/// per event and no branches at call sites.
struct ExecutorMetrics {
  explicit ExecutorMetrics(MetricsRegistry* reg) {
    if (!reg) return;
    tasks_retired = reg->counter("executor.tasks_retired");
    tasks_failed = reg->counter("executor.tasks_failed");
    tasks_cancelled = reg->counter("executor.tasks_cancelled");
    steals = reg->counter("executor.steals");
    parks = reg->counter("executor.parks");
    wakeups = reg->counter("executor.wakeups");
    max_queue_depth = reg->gauge("executor.max_queue_depth");
  }
  MetricsRegistry::Counter tasks_retired;
  MetricsRegistry::Counter tasks_failed;
  MetricsRegistry::Counter tasks_cancelled;
  MetricsRegistry::Counter steals;
  MetricsRegistry::Counter parks;
  MetricsRegistry::Counter wakeups;
  MetricsRegistry::Gauge max_queue_depth;
};

/// Fill the structured outcome from per-task terminal states, then apply
/// the legacy rethrow contract. Shared by both schedulers; `status_of(t)`
/// reads task t's terminal state (the pool has quiesced, so plain reads).
template <class StatusOf>
void finalize_report(ExecutionReport& report, std::size_t num_tasks,
                     StatusOf&& status_of, std::exception_ptr first_error,
                     const ExecutorOptions& options) {
  std::size_t completed = 0;
  for (TaskId t = 0; t < num_tasks; ++t) {
    switch (status_of(t)) {
      case TaskStatus::Completed: ++completed; break;
      case TaskStatus::Failed: report.report.failed.push_back(t); break;
      case TaskStatus::Cancelled: report.report.cancelled.push_back(t); break;
    }
  }
  report.tasks_run = completed;
  report.report.first_error = first_error;
  if (options.rethrow_errors && first_error) {
    std::rethrow_exception(first_error);
  }
}

// ---------------------------------------------------------------------------
// Priority model, shared by both schedulers.
//
// Panel tasks (POTRF, TRSM) gate entire iterations of a factorization, so
// they preempt queued trailing updates. The work-stealing scheduler uses the
// class directly as a bucket index; the seed scheduler folds in the iteration
// for a total order.
// ---------------------------------------------------------------------------

constexpr int kNumClasses = 9;

int kind_class(KernelKind kind) {
  switch (kind) {
    case KernelKind::POTRF: return 0;
    case KernelKind::TRSM: return 1;
    // Wire tasks gate remote consumers the same way panels gate iterations:
    // a queued SEND/RECV is another rank waiting, so it preempts local
    // trailing updates.
    case KernelKind::SEND: return 2;
    case KernelKind::RECV: return 3;
    case KernelKind::CONVERT: return 4;
    case KernelKind::SYRK: return 5;
    case KernelKind::GENERATE: return 6;
    case KernelKind::GEMM: return 7;
    case KernelKind::CUSTOM: return 8;
  }
  return kNumClasses - 1;
}

long priority_rank(const TaskInfo& info) {
  const int iter = info.tk >= 0 ? info.tk : (info.tm >= 0 ? info.tm : 0);
  return long(kind_class(info.kind)) * 1000000 + iter;
}

std::size_t resolve_thread_count(const ExecutorOptions& options,
                                 std::size_t num_tasks) {
  std::size_t n = options.num_threads;
  if (n == 0) n = std::thread::hardware_concurrency();
  if (n == 0) n = 4;
  return std::min<std::size_t>(n, std::max<std::size_t>(num_tasks, 1));
}

// ---------------------------------------------------------------------------
// Seed scheduler: one mutex-protected ready list, priority selection by
// linear scan. Kept behind ExecutorOptions::use_work_stealing = false as the
// behavioural reference and the A/B baseline for bench_scheduler.
// ---------------------------------------------------------------------------

/// Shared state of one execution. Workers pull ready tasks from a queue;
/// retiring a task decrements successor indegrees and pushes newly-ready
/// tasks. A dedicated counter detects completion (queue-empty is not enough:
/// a task may still be running and about to enqueue successors).
class SeedRun {
 public:
  SeedRun(const TaskGraph& graph, const ExecutorOptions& options)
      : graph_(graph),
        options_(options),
        metrics_(options.metrics),
        remaining_(graph.num_tasks()),
        status_(graph.num_tasks(), TaskStatus::Completed),
        poisoned_(graph.num_tasks(), 0) {
    indegree_.reserve(graph.num_tasks());
    for (TaskId t = 0; t < graph.num_tasks(); ++t) {
      indegree_.emplace_back(graph.task(t).num_predecessors);
    }
  }

  ExecutionReport run() {
    Stopwatch clock;
    {
      std::unique_lock lk(mu_);
      for (TaskId t : graph_.roots()) ready_.push_back(t);
    }
    const std::size_t n = resolve_thread_count(options_, graph_.num_tasks());

    std::vector<std::thread> workers;
    workers.reserve(n);
    for (std::size_t w = 0; w < n; ++w) {
      workers.emplace_back([this, w, &clock] { worker_loop(w, clock); });
    }
    for (auto& t : workers) t.join();

    ExecutionReport report;
    report.wall_seconds = clock.seconds();
    report.trace = std::move(trace_);
    finalize_report(
        report, graph_.num_tasks(), [this](TaskId t) { return status_[t]; },
        first_error_, options_);
    return report;
  }

 private:
  void worker_loop(std::size_t worker, const Stopwatch& clock) {
    for (;;) {
      TaskId id;
      bool poisoned;
      {
        std::unique_lock lk(mu_);
        cv_.wait(lk, [this] { return !ready_.empty() || remaining_ == 0; });
        if (ready_.empty()) return;  // quiesced
        if (options_.use_priorities) {
          auto best = ready_.begin();
          for (auto it = ready_.begin(); it != ready_.end(); ++it) {
            if (priority_rank(graph_.task(*it).info) <
                priority_rank(graph_.task(*best).info)) {
              best = it;
            }
          }
          id = *best;
          ready_.erase(best);
        } else {
          id = ready_.back();
          ready_.pop_back();
        }
        poisoned = poisoned_[id] != 0;
      }

      const Task& task = graph_.task(id);
      const double t0 = clock.seconds();
      TaskStatus st = TaskStatus::Completed;
      std::exception_ptr err;
      if (poisoned) {
        st = TaskStatus::Cancelled;  // a predecessor failed: body never runs
      } else {
        try {
          if (options_.start_hook) options_.start_hook(task);
          if (options_.fault_injector) {
            options_.fault_injector->on_task_start(id, task.info.kind);
          }
          if (task.body) task.body();
          // Retire hook runs before successors are released below.
          if (options_.retire_hook) options_.retire_hook(task);
        } catch (...) {
          st = TaskStatus::Failed;
          err = std::current_exception();
        }
      }
      const double t1 = clock.seconds();
      metrics_.tasks_retired.add_sharded(1, worker);
      if (st == TaskStatus::Failed) metrics_.tasks_failed.add_sharded(1, worker);
      if (st == TaskStatus::Cancelled) {
        metrics_.tasks_cancelled.add_sharded(1, worker);
      }

      {
        std::unique_lock lk(mu_);
        status_[id] = st;
        if (st == TaskStatus::Failed && !first_error_) first_error_ = err;
        if (options_.capture_trace) {
          trace_.push_back(TaskTraceEntry{id, worker, t0, t1, st});
        }
        std::size_t newly_ready = 0;
        for (TaskId succ : task.successors) {
          // Failure and cancellation both poison dependents; they still
          // retire through the normal path so the graph drains.
          if (st != TaskStatus::Completed) poisoned_[succ] = 1;
          MPGEO_ASSERT(indegree_[succ] > 0);
          if (--indegree_[succ] == 0) {
            ready_.push_back(succ);
            ++newly_ready;
          }
        }
        MPGEO_ASSERT(remaining_ > 0);
        --remaining_;
        if (remaining_ == 0) {
          cv_.notify_all();  // quiesce: every waiter must observe termination
        } else {
          // One waiter per newly-ready task; waking the whole pool on every
          // retire (the seed's old behaviour) stampedes the ready lock.
          for (std::size_t i = 0; i < newly_ready; ++i) cv_.notify_one();
        }
      }
    }
  }

  const TaskGraph& graph_;
  const ExecutorOptions& options_;
  ExecutorMetrics metrics_;
  std::vector<std::uint32_t> indegree_;
  std::vector<TaskId> ready_;
  std::size_t remaining_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::exception_ptr first_error_;
  std::vector<TaskStatus> status_;    ///< terminal states, guarded by mu_
  std::vector<char> poisoned_;        ///< cancellation flags, guarded by mu_
  std::vector<TaskTraceEntry> trace_;
};

// ---------------------------------------------------------------------------
// Work-stealing scheduler.
//
// Each worker owns kNumClasses deques bucketed by kind class. The owner
// pushes and pops at the back of its lowest nonempty bucket (LIFO: a task's
// successors touch the tiles it just wrote, so depth-first execution reuses
// cache); thieves take from the front of a victim's lowest nonempty bucket
// (FIFO: the oldest task is the root of the largest unexplored subgraph, so
// a steal amortizes over the most future work). Bucket selection replaces
// the seed's O(|ready|) priority scan with an O(kNumClasses) probe.
//
// Dependency retirement is lock-free: indegrees are std::atomic<uint32_t>
// and the worker whose fetch_sub reaches zero owns the successor and pushes
// it locally. Per-worker state is only ever locked by the owner or by one
// thief at a time, so contention is per-victim, not global.
//
// Idle workers park on a per-worker condvar registered in a small parking
// lot; a retire that frees tasks wakes exactly as many sleepers as there are
// surplus tasks (targeted notify_one on the chosen sleeper's condvar — no
// broadcast). Termination is detected by an atomic count of unretired
// tasks; the worker that retires the last task wakes everyone.
//
// Traces are captured into per-worker buffers with no synchronization and
// merged after the pool quiesces (thread join gives the happens-before
// edge), so capture_trace no longer serializes workers.
// ---------------------------------------------------------------------------

class WorkStealingRun {
 public:
  WorkStealingRun(const TaskGraph& graph, const ExecutorOptions& options)
      : graph_(graph),
        options_(options),
        metrics_(options.metrics),
        remaining_(graph.num_tasks()),
        indegree_(std::make_unique<std::atomic<std::uint32_t>[]>(
            graph.num_tasks())),
        status_(std::make_unique<std::atomic<std::uint8_t>[]>(
            graph.num_tasks())),
        poisoned_(std::make_unique<std::atomic<std::uint8_t>[]>(
            graph.num_tasks())) {
    for (TaskId t = 0; t < graph.num_tasks(); ++t) {
      indegree_[t].store(graph.task(t).num_predecessors,
                         std::memory_order_relaxed);
      status_[t].store(std::uint8_t(TaskStatus::Completed),
                       std::memory_order_relaxed);
      poisoned_[t].store(0, std::memory_order_relaxed);
    }
  }

  ExecutionReport run() {
    const std::size_t n = resolve_thread_count(options_, graph_.num_tasks());
    workers_ = std::vector<WorkerState>(n);
    nshards_ = options_.rank_shards
                   ? std::min<std::size_t>(options_.rank_shards, n)
                   : 1;
    shards_ = std::make_unique<ShardState[]>(nshards_);

    // Seed the roots round-robin so every worker starts with local work;
    // rank-tagged roots go to a worker of their shard instead.
    std::size_t w = 0;
    for (TaskId t : graph_.roots()) {
      const int r = graph_.task(t).info.rank;
      if (r >= 0 && nshards_ > 1) {
        push_local(pick_worker(std::size_t(r) % nshards_), t);
      } else {
        push_local(w, t);
        w = (w + 1) % n;
      }
    }

    Stopwatch clock;
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      threads.emplace_back([this, i, &clock] { worker_loop(i, clock); });
    }
    for (auto& t : threads) t.join();

    ExecutionReport report;
    report.wall_seconds = clock.seconds();
    if (options_.capture_trace) {
      std::size_t total = 0;
      for (const WorkerState& ws : workers_) total += ws.trace.size();
      report.trace.reserve(total);
      for (WorkerState& ws : workers_) {
        report.trace.insert(report.trace.end(), ws.trace.begin(),
                            ws.trace.end());
      }
    }
    finalize_report(
        report, graph_.num_tasks(),
        [this](TaskId t) {
          return TaskStatus(status_[t].load(std::memory_order_relaxed));
        },
        first_error_, options_);
    return report;
  }

 private:
  struct alignas(64) WorkerState {
    std::mutex mu;  ///< guards buckets; taken by the owner and one thief
    std::array<std::deque<TaskId>, kNumClasses> buckets;
    std::atomic<int> approx_size{0};  ///< lock-free "worth stealing?" probe
    std::condition_variable park_cv;  ///< targeted wakeup (waits on park_mu_)
    bool wake_signal = false;         ///< guarded by park_mu_
    std::vector<TaskTraceEntry> trace;  ///< owner-only until quiesce
  };

  int bucket_of(TaskId id) const {
    return options_.use_priorities ? kind_class(graph_.task(id).info.kind) : 0;
  }

  // -------------------------------------------------------------------------
  // Rank sharding. Worker w belongs to shard w % nshards_; a task tagged
  // rank r runs only on shard r % nshards_ (routed on push, never stolen
  // across shards). Ready-work accounting (the queued counter the park/wake
  // handshake keys off) is per shard — a global counter would let a worker
  // whose own shard drained busy-spin forever on work it is not allowed to
  // take. nshards_ == 1 (the default) degenerates to the original scheduler.
  // -------------------------------------------------------------------------

  std::size_t shard_of(std::size_t worker) const { return worker % nshards_; }

  /// Number of workers in shard s ( = |{w : w % nshards_ == s}| ).
  std::size_t shard_size(std::size_t s) const {
    return (workers_.size() - s + nshards_ - 1) / nshards_;
  }

  /// Round-robin worker of shard s, for remote pushes and root seeding.
  std::size_t pick_worker(std::size_t s) {
    const std::size_t i =
        shards_[s].rr.fetch_add(1, std::memory_order_relaxed) % shard_size(s);
    return s + i * nshards_;
  }

  void push_local(std::size_t target, TaskId id) {
    WorkerState& ws = workers_[target];
    int depth = 0;
    {
      std::lock_guard lk(ws.mu);
      ws.buckets[std::size_t(bucket_of(id))].push_back(id);
      depth = ws.approx_size.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    metrics_.max_queue_depth.set_max(double(depth));
    shards_[shard_of(target)].queued.fetch_add(1, std::memory_order_seq_cst);
  }

  bool pop_local(std::size_t self, TaskId& id) {
    WorkerState& ws = workers_[self];
    std::lock_guard lk(ws.mu);
    for (auto& bucket : ws.buckets) {
      if (!bucket.empty()) {
        id = bucket.back();  // LIFO: hottest data first
        bucket.pop_back();
        ws.approx_size.fetch_sub(1, std::memory_order_relaxed);
        shards_[shard_of(self)].queued.fetch_sub(1, std::memory_order_seq_cst);
        return true;
      }
    }
    return false;
  }

  bool try_steal(std::size_t self, TaskId& id) {
    // Victims are the other workers of self's shard only: everything in a
    // shard-s queue is runnable on shard s (routed there on push), and
    // nothing outside it is.
    const std::size_t s = shard_of(self);
    const std::size_t cnt = shard_size(s);
    const std::size_t i0 = self / nshards_;  // self's index within the shard
    for (std::size_t hop = 1; hop < cnt; ++hop) {
      WorkerState& victim = workers_[s + ((i0 + hop) % cnt) * nshards_];
      if (victim.approx_size.load(std::memory_order_relaxed) <= 0) continue;
      std::lock_guard lk(victim.mu);
      for (auto& bucket : victim.buckets) {
        if (!bucket.empty()) {
          id = bucket.front();  // FIFO: oldest task, largest subgraph
          bucket.pop_front();
          victim.approx_size.fetch_sub(1, std::memory_order_relaxed);
          shards_[s].queued.fetch_sub(1, std::memory_order_seq_cst);
          metrics_.steals.add_sharded(1, self);
          return true;
        }
      }
    }
    return false;
  }

  bool done() const {
    return remaining_.load(std::memory_order_acquire) == 0;
  }

  /// Park until a wake signal, unless work or termination became visible.
  /// The worker enlists in the lot *before* it re-checks its shard's queued
  /// counter: a pusher increments the counter and then reads num_sleepers_
  /// (both seq_cst), so either the pusher sees this sleeper and wakes it, or
  /// this check sees the pushed task and the worker de-enlists.
  void park(std::size_t self) {
    WorkerState& ws = workers_[self];
    std::unique_lock lk(park_mu_);
    if (done()) return;
    sleepers_.push_back(self);
    num_sleepers_.store(sleepers_.size(), std::memory_order_seq_cst);
    // Only this worker's own shard counter matters: work queued on another
    // shard is work this worker may not take, so it must not keep it awake.
    if (shards_[shard_of(self)].queued.load(std::memory_order_seq_cst) > 0) {
      sleepers_.pop_back();  // still last: park_mu_ has been held throughout
      num_sleepers_.store(sleepers_.size(), std::memory_order_seq_cst);
      return;
    }
    ws.wake_signal = false;
    metrics_.parks.add_sharded(1, self);
    ws.park_cv.wait(lk, [&ws] { return ws.wake_signal; });
  }

  /// Wake one parked worker of shard s (targeted: only its condvar fires).
  void wake_one(std::size_t s) {
    if (num_sleepers_.load(std::memory_order_seq_cst) == 0) return;
    std::lock_guard lk(park_mu_);
    for (auto it = sleepers_.rbegin(); it != sleepers_.rend(); ++it) {
      if (shard_of(*it) != s) continue;
      const std::size_t w = *it;
      sleepers_.erase(std::next(it).base());
      num_sleepers_.store(sleepers_.size(), std::memory_order_seq_cst);
      workers_[w].wake_signal = true;
      metrics_.wakeups.add();
      workers_[w].park_cv.notify_one();
      return;
    }
  }

  /// Wake worker w specifically if it is parked (remote cross-shard pushes
  /// target one worker; the push's seq_cst queued increment happens before
  /// this call, so w either gets woken here or sees the counter in park()).
  void wake_worker(std::size_t w) {
    if (num_sleepers_.load(std::memory_order_seq_cst) == 0) return;
    std::lock_guard lk(park_mu_);
    auto it = std::find(sleepers_.begin(), sleepers_.end(), w);
    if (it == sleepers_.end()) return;
    sleepers_.erase(it);
    num_sleepers_.store(sleepers_.size(), std::memory_order_seq_cst);
    workers_[w].wake_signal = true;
    metrics_.wakeups.add();
    workers_[w].park_cv.notify_one();
  }

  void wake_all() {
    std::lock_guard lk(park_mu_);
    for (std::size_t w : sleepers_) {
      workers_[w].wake_signal = true;
      workers_[w].park_cv.notify_one();
    }
    sleepers_.clear();
    num_sleepers_.store(0, std::memory_order_seq_cst);
  }

  void worker_loop(std::size_t self, const Stopwatch& clock) {
    while (!done()) {
      TaskId id;
      if (pop_local(self, id) || try_steal(self, id)) {
        run_task(self, id, clock);
        continue;
      }
      // Nothing locally and nothing to steal: yield once (another worker may
      // be mid-retire), then park until a retire frees work.
      std::this_thread::yield();
      if (done()) break;
      if (pop_local(self, id) || try_steal(self, id)) {
        run_task(self, id, clock);
        continue;
      }
      park(self);
    }
  }

  void run_task(std::size_t self, TaskId id, const Stopwatch& clock) {
    WorkerState& ws = workers_[self];
    const Task& task = graph_.task(id);
    const double t0 = clock.seconds();
    TaskStatus st = TaskStatus::Completed;
    // The poison flag was stored before the predecessor's releasing
    // indegree decrement, so the claimer that observed zero sees it.
    if (poisoned_[id].load(std::memory_order_relaxed) != 0) {
      st = TaskStatus::Cancelled;  // a predecessor failed: body never runs
    } else {
      try {
        if (options_.start_hook) options_.start_hook(task);
        if (options_.fault_injector) {
          options_.fault_injector->on_task_start(id, task.info.kind);
        }
        if (task.body) task.body();
        // Retire hook runs before the indegree decrements release successors.
        if (options_.retire_hook) options_.retire_hook(task);
      } catch (...) {
        st = TaskStatus::Failed;
        std::lock_guard lk(err_mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
    }
    if (options_.capture_trace) {
      ws.trace.push_back(TaskTraceEntry{id, self, t0, clock.seconds(), st});
    }
    status_[id].store(std::uint8_t(st), std::memory_order_relaxed);
    metrics_.tasks_retired.add_sharded(1, self);
    if (st == TaskStatus::Failed) metrics_.tasks_failed.add_sharded(1, self);
    if (st == TaskStatus::Cancelled) {
      metrics_.tasks_cancelled.add_sharded(1, self);
    }

    // Retire: lock-free indegree decrement; the decrement that reaches zero
    // transfers ownership of the successor to this worker. Poison flags are
    // stored before the release-ordered decrement, so whichever worker
    // claims the successor observes them (release-sequence on indegree_).
    // Successors pinned to another shard are pushed to a round-robin worker
    // there (with a targeted wakeup); untagged/same-shard ones stay local.
    const std::size_t my_shard = shard_of(self);
    std::size_t freed_local = 0;
    for (TaskId succ : task.successors) {
      if (st != TaskStatus::Completed) {
        poisoned_[succ].store(1, std::memory_order_relaxed);
      }
      if (indegree_[succ].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        const int r = graph_.task(succ).info.rank;
        const std::size_t target_shard =
            (r < 0 || nshards_ == 1) ? my_shard : std::size_t(r) % nshards_;
        if (target_shard == my_shard) {
          push_local(self, succ);
          ++freed_local;
        } else {
          const std::size_t target = pick_worker(target_shard);
          push_local(target, succ);
          wake_worker(target);
        }
      }
    }
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      wake_all();  // last retire: quiesce the pool
      return;
    }
    // Keep one locally-freed task for ourselves (we pop it next iteration);
    // surplus tasks get one targeted wakeup each so same-shard thieves come.
    for (std::size_t i = 1; i < freed_local; ++i) wake_one(my_shard);
    if (freed_local == 1 && ws.approx_size.load(std::memory_order_relaxed) > 1) {
      wake_one(my_shard);  // backlog behind the task we kept: invite a thief
    }
  }

  /// Per-shard scheduler state, cache-line padded (every push/pop touches
  /// exactly one shard's counter).
  struct alignas(64) ShardState {
    /// Count of queued-but-unclaimed tasks runnable on this shard; the
    /// park/wake handshake keys off it (seq_cst so a parker's check and a
    /// pusher's increment are ordered).
    std::atomic<std::int64_t> queued{0};
    /// Round-robin cursor for remote pushes into this shard.
    std::atomic<std::size_t> rr{0};
  };

  const TaskGraph& graph_;
  const ExecutorOptions& options_;
  ExecutorMetrics metrics_;
  std::atomic<std::size_t> remaining_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> indegree_;
  std::vector<WorkerState> workers_;
  std::size_t nshards_ = 1;
  std::unique_ptr<ShardState[]> shards_;
  std::mutex park_mu_;
  std::vector<std::size_t> sleepers_;
  std::atomic<std::size_t> num_sleepers_{0};
  std::mutex err_mu_;
  std::exception_ptr first_error_;
  /// Terminal TaskStatus per task; each slot is written exactly once (by
  /// the retiring worker) and read after the pool joins.
  std::unique_ptr<std::atomic<std::uint8_t>[]> status_;
  /// Cancellation flags; set by failed/cancelled predecessors before their
  /// releasing indegree decrement, read by the successor's claimer.
  std::unique_ptr<std::atomic<std::uint8_t>[]> poisoned_;
};

}  // namespace

ExecutionReport execute(const TaskGraph& graph, const ExecutorOptions& options) {
  if (graph.num_tasks() == 0) return {};
  if (options.session) return options.session->run(graph, options);
  if (options.use_shared_pool) {
    return shared_executor_session().run(graph, options);
  }
  if (options.use_work_stealing) {
    WorkStealingRun run(graph, options);
    return run.run();
  }
  SeedRun run(graph, options);
  return run.run();
}

}  // namespace mpgeo
