#include "runtime/executor_session.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "obs/metrics.hpp"
#include "runtime/fault_injection.hpp"

namespace mpgeo {
namespace detail {

/// Per-run counter handles (null registry = no-op sinks).
struct RunMetrics {
  explicit RunMetrics(MetricsRegistry* reg) {
    if (!reg) return;
    tasks_retired = reg->counter("executor.tasks_retired");
    tasks_failed = reg->counter("executor.tasks_failed");
    tasks_cancelled = reg->counter("executor.tasks_cancelled");
  }
  MetricsRegistry::Counter tasks_retired;
  MetricsRegistry::Counter tasks_failed;
  MetricsRegistry::Counter tasks_cancelled;
};

/// State of one run. Queued items point at it raw, so no task touches a
/// shared refcount; the run keeps itself alive through `self` until the
/// worker retiring its last task releases it, so the state outlives the
/// caller's return from run() while that worker is still publishing.
struct SessionRun {
  SessionRun(const TaskGraph& g, const ExecutorOptions& o, double started)
      : graph(&g),
        capture_trace(o.capture_trace),
        start_hook(o.start_hook),
        retire_hook(o.retire_hook),
        fault_injector(o.fault_injector),
        metrics(o.metrics),
        start_seconds(started),
        remaining(g.num_tasks()),
        indegree(std::make_unique<std::atomic<std::uint32_t>[]>(g.num_tasks())),
        status(std::make_unique<std::atomic<std::uint8_t>[]>(g.num_tasks())),
        poisoned(std::make_unique<std::atomic<std::uint8_t>[]>(g.num_tasks())) {
    for (TaskId t = 0; t < g.num_tasks(); ++t) {
      indegree[t].store(g.task(t).num_predecessors, std::memory_order_relaxed);
      status[t].store(std::uint8_t(TaskStatus::Completed),
                      std::memory_order_relaxed);
      poisoned[t].store(0, std::memory_order_relaxed);
    }
  }

  const TaskGraph* graph;
  // The subgraph-scoped part of the caller's ExecutorOptions.
  bool capture_trace;
  std::function<void(const Task&)> start_hook;
  std::function<void(const Task&)> retire_hook;
  FaultInjector* fault_injector;
  RunMetrics metrics;
  double start_seconds = 0.0;  ///< on the session clock
  std::atomic<std::size_t> remaining;
  std::unique_ptr<std::atomic<std::uint32_t>[]> indegree;
  /// Terminal TaskStatus per task, written once by the retiring worker.
  std::unique_ptr<std::atomic<std::uint8_t>[]> status;
  /// Cancellation flags; set by failed/cancelled predecessors before their
  /// releasing indegree decrement, read by the successor's claimer.
  std::unique_ptr<std::atomic<std::uint8_t>[]> poisoned;
  std::shared_ptr<SessionRun> self;  ///< set at start, released at finish

  std::mutex err_mu;
  std::exception_ptr first_error;
  std::mutex trace_mu;
  std::vector<TaskTraceEntry> trace;  ///< timestamps relative to the start

  /// Completion latch: the worker retiring the run's last task publishes
  /// `report` under done_mu and flips `done`.
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
  ExecutionReport report;
};

}  // namespace detail

namespace {

// Priority model. Panel tasks (POTRF, TRSM) gate entire iterations of a
// factorization, so they preempt queued trailing updates; the class is the
// index of the worker bucket a ready task is queued in.
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

struct SessionMetrics {
  explicit SessionMetrics(MetricsRegistry* reg) {
    if (!reg) return;
    steals = reg->counter("executor.steals");
    parks = reg->counter("executor.parks");
    wakeups = reg->counter("executor.wakeups");
    max_queue_depth = reg->gauge("executor.max_queue_depth");
  }
  MetricsRegistry::Counter steals;
  MetricsRegistry::Counter parks;
  MetricsRegistry::Counter wakeups;
  MetricsRegistry::Gauge max_queue_depth;
};

}  // namespace

/// The pool. Each worker owns kNumClasses deques of run-tagged items. The
/// owner pushes and pops at the back of its lowest nonempty bucket (LIFO: a
/// task's successors touch the tiles it just wrote, so depth-first execution
/// reuses cache); thieves take from the front of a victim's lowest nonempty
/// bucket (FIFO: the oldest task is the root of the largest unexplored
/// subgraph, so a steal amortizes over the most future work).
///
/// Dependency retirement is lock-free: the worker whose indegree decrement
/// reaches zero owns the successor and pushes it locally. Idle workers park
/// on a per-worker condvar registered in a parking lot; a retire that frees
/// tasks wakes one sleeper per surplus task (a targeted notify, no
/// broadcast). Producers inject roots from arbitrary threads.
///
/// Rank shards: worker w belongs to shard w % nshards, and a task tagged
/// rank r runs only on shard r % nshards — routed there on push (round-robin
/// over the shard, with a targeted wake), never stolen across shards. The
/// queued counter the park/wake handshake keys off is per shard: a global
/// one would let a worker whose own shard drained spin on work it may not
/// take. nshards == 1 (the default) is the unsharded pool.
struct ExecutorSession::Impl {
  struct Item {
    detail::SessionRun* run = nullptr;
    TaskId id = 0;
  };

  struct alignas(64) WorkerState {
    std::mutex mu;  ///< guards buckets; taken by the owner, a thief, a producer
    std::array<std::deque<Item>, kNumClasses> buckets;
    std::atomic<int> approx_size{0};  ///< lock-free "worth stealing?" probe
    std::condition_variable park_cv;  ///< targeted wakeup (waits on park_mu)
    bool wake_signal = false;         ///< guarded by park_mu
  };

  /// Per-shard scheduler state, cache-line padded (every push/pop touches
  /// exactly one shard's counter).
  struct alignas(64) ShardState {
    /// Queued-but-unclaimed items runnable on this shard (seq_cst, so a
    /// parker's check and a pusher's increment are ordered).
    std::atomic<std::int64_t> queued{0};
    /// Round-robin cursor for pushes routed into this shard.
    std::atomic<std::size_t> rr{0};
  };

  explicit Impl(const ExecutorSessionOptions& options)
      : metrics(options.metrics) {
    std::size_t n = options.num_threads;
    if (n == 0) n = std::thread::hardware_concurrency();
    if (n == 0) n = 4;
    workers = std::vector<WorkerState>(n);
    nshards = std::clamp<std::size_t>(options.rank_shards, 1, n);
    shards = std::vector<ShardState>(nshards);
  }

  /// Spawn the workers, once. Called by the first run() after its
  /// roots are queued, so the workers of a per-call session find work at
  /// once instead of parking and waiting to be woken.
  void start() {
    std::call_once(started, [this] {
      threads.reserve(workers.size());
      for (std::size_t i = 0; i < workers.size(); ++i) {
        threads.emplace_back([this, i] { worker_loop(i); });
      }
    });
  }

  ~Impl() {
    stopping_flag.store(true, std::memory_order_release);
    {
      std::lock_guard lk(park_mu);
      stopping = true;
    }
    wake_all();
    for (auto& t : threads) t.join();
  }

  std::size_t shard_of(std::size_t worker) const { return worker % nshards; }

  /// Number of workers in shard s ( = |{w : w % nshards == s}| ).
  std::size_t shard_size(std::size_t s) const {
    return (workers.size() - s + nshards - 1) / nshards;
  }

  /// Round-robin worker of shard s, for routed pushes.
  std::size_t pick_worker(std::size_t s) {
    const std::size_t i =
        shards[s].rr.fetch_add(1, std::memory_order_relaxed) % shard_size(s);
    return s + i * nshards;
  }

  static constexpr std::size_t kAnyShard = std::size_t(-1);

  /// The shard a task is pinned to: its rank's shard when the task is
  /// rank-tagged and the pool sharded, kAnyShard otherwise.
  std::size_t pinned_shard(const Task& task) const {
    const int r = task.info.rank;
    return (r >= 0 && nshards > 1) ? std::size_t(r) % nshards : kAnyShard;
  }

  /// Queue `count` tasks of `run` on worker w under one acquisition of its
  /// lock, so the worker sees all of them at once.
  void push_to(std::size_t w, detail::SessionRun* run, const TaskId* ids,
               std::size_t count) {
    WorkerState& ws = workers[w];
    int depth = 0;
    {
      std::lock_guard lk(ws.mu);
      for (std::size_t i = 0; i < count; ++i) {
        const int b = kind_class(run->graph->task(ids[i]).info.kind);
        ws.buckets[std::size_t(b)].push_back(Item{run, ids[i]});
      }
      depth = ws.approx_size.fetch_add(int(count), std::memory_order_relaxed) +
              int(count);
    }
    metrics.max_queue_depth.set_max(double(depth));
    shards[shard_of(w)].queued.fetch_add(std::int64_t(count),
                                         std::memory_order_seq_cst);
  }

  bool pop_local(std::size_t self, Item& item) {
    WorkerState& ws = workers[self];
    std::lock_guard lk(ws.mu);
    for (auto& bucket : ws.buckets) {
      if (!bucket.empty()) {
        item = bucket.back();  // LIFO: hottest data first
        bucket.pop_back();
        ws.approx_size.fetch_sub(1, std::memory_order_relaxed);
        shards[shard_of(self)].queued.fetch_sub(1, std::memory_order_seq_cst);
        return true;
      }
    }
    return false;
  }

  bool try_steal(std::size_t self, Item& item) {
    // Victims are the other workers of self's shard only: everything in a
    // shard-s queue is runnable on shard s, and nothing outside it is.
    const std::size_t s = shard_of(self);
    const std::size_t cnt = shard_size(s);
    const std::size_t i0 = self / nshards;  // self's index within the shard
    for (std::size_t hop = 1; hop < cnt; ++hop) {
      WorkerState& victim = workers[s + ((i0 + hop) % cnt) * nshards];
      if (victim.approx_size.load(std::memory_order_relaxed) <= 0) continue;
      std::lock_guard lk(victim.mu);
      for (auto& bucket : victim.buckets) {
        if (!bucket.empty()) {
          item = bucket.front();  // FIFO: oldest task, largest subgraph
          bucket.pop_front();
          victim.approx_size.fetch_sub(1, std::memory_order_relaxed);
          shards[s].queued.fetch_sub(1, std::memory_order_seq_cst);
          metrics.steals.add_sharded(1, self);
          return true;
        }
      }
    }
    return false;
  }

  /// Producer-side injection of a run's roots: untagged roots spread
  /// round-robin over the pool, rank-tagged ones round-robin over their
  /// shard. Each worker's share is queued under one lock acquisition, then
  /// up to one sleeper per root of its shard is woken.
  void inject(detail::SessionRun* run, const std::vector<TaskId>& roots) {
    const std::size_t n = workers.size();
    std::vector<std::vector<TaskId>> share(n);
    for (TaskId t : roots) {
      const std::size_t s = pinned_shard(run->graph->task(t));
      const std::size_t w =
          s == kAnyShard ? inject_rr.fetch_add(1, std::memory_order_relaxed) % n
                         : pick_worker(s);
      share[w].push_back(t);
    }
    std::vector<std::size_t> fresh(nshards, 0);
    for (std::size_t w = 0; w < n; ++w) {
      if (share[w].empty()) continue;
      push_to(w, run, share[w].data(), share[w].size());
      fresh[shard_of(w)] += share[w].size();
    }
    for (std::size_t s = 0; s < nshards; ++s) wake_some(s, fresh[s]);
  }

  /// Park until a wake signal. The worker enlists as a sleeper *before* it
  /// re-checks its shard's `queued`: a pusher increments `queued` and then
  /// reads `num_sleepers` (both seq_cst), so either the pusher sees this
  /// sleeper and signals it, or this check sees the pushed item and the
  /// worker de-enlists. Checking first would leave a window where a push
  /// lands between the check and the enlisting and is never signalled. Only
  /// the worker's own shard counter matters: work queued on another shard
  /// is work it may not take, so it must not keep it awake.
  void park(std::size_t self) {
    WorkerState& ws = workers[self];
    std::unique_lock lk(park_mu);
    if (stopping) return;
    sleepers.push_back(self);
    num_sleepers.store(sleepers.size(), std::memory_order_seq_cst);
    if (shards[shard_of(self)].queued.load(std::memory_order_seq_cst) > 0) {
      sleepers.pop_back();  // still last: park_mu has been held throughout
      num_sleepers.store(sleepers.size(), std::memory_order_seq_cst);
      return;
    }
    ws.wake_signal = false;
    metrics.parks.add_sharded(1, self);
    ws.park_cv.wait(lk, [&ws] { return ws.wake_signal; });
  }

  /// Wake parked worker w, already removed from `sleepers`; park_mu held.
  void signal(std::size_t w) {
    workers[w].wake_signal = true;
    metrics.wakeups.add();
    workers[w].park_cv.notify_one();
  }

  /// Wake up to `count` parked workers of shard s, most recently parked
  /// first, in one acquisition of park_mu.
  void wake_some(std::size_t s, std::size_t count) {
    if (count == 0 || num_sleepers.load(std::memory_order_seq_cst) == 0) {
      return;
    }
    std::lock_guard lk(park_mu);
    for (std::size_t i = sleepers.size(); i-- > 0 && count > 0;) {
      const std::size_t w = sleepers[i];
      if (shard_of(w) != s) continue;
      sleepers.erase(sleepers.begin() + std::ptrdiff_t(i));
      signal(w);
      --count;
    }
    num_sleepers.store(sleepers.size(), std::memory_order_seq_cst);
  }

  /// Wake worker w specifically if it is parked (a push routed to another
  /// shard targets one worker; its seq_cst queued increment happens before
  /// this call, so w either gets woken here or sees the counter in park()).
  void wake_worker(std::size_t w) {
    if (num_sleepers.load(std::memory_order_seq_cst) == 0) return;
    std::lock_guard lk(park_mu);
    auto it = std::find(sleepers.begin(), sleepers.end(), w);
    if (it == sleepers.end()) return;
    sleepers.erase(it);
    num_sleepers.store(sleepers.size(), std::memory_order_seq_cst);
    signal(w);
  }

  void wake_all() {
    std::lock_guard lk(park_mu);
    for (std::size_t w : sleepers) {
      workers[w].wake_signal = true;
      workers[w].park_cv.notify_one();
    }
    sleepers.clear();
    num_sleepers.store(0, std::memory_order_seq_cst);
  }

  void worker_loop(std::size_t self) {
    for (;;) {
      Item item;
      if (pop_local(self, item) || try_steal(self, item)) {
        run_task(self, item);
        continue;
      }
      if (stopping_flag.load(std::memory_order_acquire)) return;
      // Nothing locally and nothing to steal: yield once (another worker may
      // be mid-retire), then park until a push wakes this worker.
      std::this_thread::yield();
      if (pop_local(self, item) || try_steal(self, item)) {
        run_task(self, item);
        continue;
      }
      park(self);
      if (stopping_flag.load(std::memory_order_acquire) &&
          shards[shard_of(self)].queued.load(std::memory_order_seq_cst) == 0) {
        return;
      }
    }
  }

  void run_task(std::size_t self, Item item) {
    detail::SessionRun& run = *item.run;
    const TaskId id = item.id;
    const Task& task = run.graph->task(id);
    const double t0 =
        run.capture_trace ? clock.seconds() - run.start_seconds : 0.0;
    TaskStatus st = TaskStatus::Completed;
    // The poison flag was stored before the predecessor's releasing
    // indegree decrement, so the claimer that observed zero sees it.
    if (run.poisoned[id].load(std::memory_order_relaxed) != 0) {
      st = TaskStatus::Cancelled;  // a predecessor failed: body never runs
    } else {
      try {
        if (run.start_hook) run.start_hook(task);
        if (run.fault_injector) {
          run.fault_injector->on_task_start(id, task.info.kind);
        }
        if (task.body) task.body();
        // Retire hook runs before the indegree decrements release successors.
        if (run.retire_hook) run.retire_hook(task);
      } catch (...) {
        st = TaskStatus::Failed;
        std::lock_guard lk(run.err_mu);
        if (!run.first_error) run.first_error = std::current_exception();
      }
    }
    if (run.capture_trace) {
      std::lock_guard lk(run.trace_mu);
      run.trace.push_back(TaskTraceEntry{
          id, self, t0, clock.seconds() - run.start_seconds, st});
    }
    run.status[id].store(std::uint8_t(st), std::memory_order_relaxed);
    run.metrics.tasks_retired.add_sharded(1, self);
    if (st == TaskStatus::Failed) {
      run.metrics.tasks_failed.add_sharded(1, self);
    }
    if (st == TaskStatus::Cancelled) {
      run.metrics.tasks_cancelled.add_sharded(1, self);
    }

    // Retire: the decrement that reaches zero transfers ownership of the
    // successor to this worker. Poison flags are stored before the
    // release-ordered decrement, so whichever worker claims the successor
    // observes them. Successors pinned to another shard are pushed to a
    // round-robin worker there (with a targeted wakeup); untagged and
    // same-shard ones stay local.
    const std::size_t my_shard = shard_of(self);
    std::size_t freed_local = 0;
    for (TaskId succ : task.successors) {
      if (st != TaskStatus::Completed) {
        run.poisoned[succ].store(1, std::memory_order_relaxed);
      }
      if (run.indegree[succ].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        const std::size_t s = pinned_shard(run.graph->task(succ));
        if (s == kAnyShard || s == my_shard) {
          push_to(self, &run, &succ, 1);
          ++freed_local;
        } else {
          const std::size_t target = pick_worker(s);
          push_to(target, &run, &succ, 1);
          wake_worker(target);
        }
      }
    }
    // Keep one locally freed task for ourselves (popped next iteration) and
    // wake a same-shard thief per surplus task — or one, if a backlog sits
    // behind the single task we kept.
    std::size_t surplus = freed_local > 1 ? freed_local - 1 : 0;
    if (freed_local == 1 &&
        workers[self].approx_size.load(std::memory_order_relaxed) > 1) {
      surplus = 1;
    }
    wake_some(my_shard, surplus);
    // Last touch of the run: once its final task retires it may be freed.
    if (run.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      finish_run(run);
    }
  }

  /// Build the run's report and release its waiter. Called by the worker
  /// that retired the run's last task; the self-reference taken here keeps
  /// the state alive through the publish even if the waiting run() call
  /// returns at once.
  void finish_run(detail::SessionRun& run) {
    const std::shared_ptr<detail::SessionRun> keep = std::move(run.self);
    ExecutionReport report;
    report.wall_seconds = clock.seconds() - run.start_seconds;
    std::size_t completed = 0;
    for (TaskId t = 0; t < run.graph->num_tasks(); ++t) {
      switch (TaskStatus(run.status[t].load(std::memory_order_relaxed))) {
        case TaskStatus::Completed: ++completed; break;
        case TaskStatus::Failed: report.report.failed.push_back(t); break;
        case TaskStatus::Cancelled: report.report.cancelled.push_back(t); break;
      }
    }
    report.tasks_run = completed;
    report.report.first_error = run.first_error;
    if (run.capture_trace) {
      std::lock_guard lk(run.trace_mu);
      report.trace = std::move(run.trace);
    }
    {
      std::lock_guard lk(run.done_mu);
      run.report = std::move(report);
      run.done = true;
    }
    run.done_cv.notify_all();
  }

  SessionMetrics metrics;
  Stopwatch clock;
  std::vector<WorkerState> workers;
  std::size_t nshards = 1;
  std::vector<ShardState> shards;
  std::once_flag started;
  std::vector<std::thread> threads;
  std::atomic<std::size_t> inject_rr{0};
  std::mutex park_mu;
  std::vector<std::size_t> sleepers;
  std::atomic<std::size_t> num_sleepers{0};
  bool stopping = false;  ///< guarded by park_mu (the park predicate)
  std::atomic<bool> stopping_flag{false};
};

ExecutorSession::ExecutorSession(const ExecutorSessionOptions& options)
    : impl_(std::make_unique<Impl>(options)) {}

ExecutorSession::~ExecutorSession() = default;

ExecutionReport ExecutorSession::run(const TaskGraph& graph,
                                     const ExecutorOptions& options) {
  if (graph.num_tasks() == 0) return {};
  const auto run = std::make_shared<detail::SessionRun>(
      graph, options, impl_->clock.seconds());
  run->self = run;
  impl_->inject(run.get(), graph.roots());
  impl_->start();
  ExecutionReport report;
  {
    std::unique_lock lk(run->done_mu);
    run->done_cv.wait(lk, [&run] { return run->done; });
    report = std::move(run->report);
  }
  if (options.rethrow_errors && report.report.first_error) {
    std::rethrow_exception(report.report.first_error);
  }
  return report;
}

std::size_t ExecutorSession::num_threads() const {
  return impl_->workers.size();
}

}  // namespace mpgeo
