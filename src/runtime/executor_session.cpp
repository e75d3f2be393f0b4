#include "runtime/executor_session.hpp"

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
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

/// State of one submitted subgraph. Scheduled items hold a shared_ptr to
/// their run, so the state outlives the waiter even if the ticket is
/// dropped; the retirement protocol (atomic indegrees, poison-before-
/// release) is identical to the work-stealing scheduler in executor.cpp.
struct SessionRun {
  SessionRun(const TaskGraph& g, ExecutorSession::SubmitOptions o,
             double submitted)
      : graph(&g),
        opts(std::move(o)),
        metrics(opts.metrics),
        submit_seconds(submitted),
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
  ExecutorSession::SubmitOptions opts;
  RunMetrics metrics;
  double submit_seconds = 0.0;  ///< on the session clock
  std::atomic<std::size_t> remaining;
  std::unique_ptr<std::atomic<std::uint32_t>[]> indegree;
  std::unique_ptr<std::atomic<std::uint8_t>[]> status;
  std::unique_ptr<std::atomic<std::uint8_t>[]> poisoned;

  std::mutex err_mu;
  std::exception_ptr first_error;
  std::mutex trace_mu;
  std::vector<TaskTraceEntry> trace;  ///< timestamps relative to submit

  /// Completion latch: the worker retiring the run's last task publishes
  /// `report` under done_mu and flips `done`.
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
  ExecutionReport report;
};

}  // namespace detail

namespace {

// Kind-class priority buckets, mirroring the work-stealing scheduler in
// executor.cpp (panel kinds preempt trailing updates).
constexpr int kNumClasses = 9;

int kind_class(KernelKind kind) {
  switch (kind) {
    case KernelKind::POTRF: return 0;
    case KernelKind::TRSM: return 1;
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

/// The shared pool: per-worker kind-class deques of run-tagged items, the
/// same steal policy (owner LIFO back, thief FIFO front) and parking lot as
/// WorkStealingRun — but session-lifetime, with producers injecting roots
/// from arbitrary threads and workers idling parked between submissions.
struct ExecutorSession::Impl {
  struct Item {
    std::shared_ptr<detail::SessionRun> run;
    TaskId id = 0;
  };

  struct alignas(64) WorkerState {
    std::mutex mu;  ///< guards buckets; taken by the owner, a thief, a producer
    std::array<std::deque<Item>, kNumClasses> buckets;
    std::atomic<int> approx_size{0};
    std::condition_variable park_cv;
    bool wake_signal = false;  ///< guarded by park_mu
  };

  explicit Impl(const ExecutorSessionOptions& options)
      : opts(options), metrics(options.metrics) {
    std::size_t n = options.num_threads;
    if (n == 0) n = std::thread::hardware_concurrency();
    if (n == 0) n = 4;
    workers = std::vector<WorkerState>(n);
    threads.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      threads.emplace_back([this, i] { worker_loop(i); });
    }
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

  int bucket_of(const detail::SessionRun& run, TaskId id) const {
    return opts.use_priorities ? kind_class(run.graph->task(id).info.kind) : 0;
  }

  void push_to(WorkerState& ws, Item item) {
    const int b = bucket_of(*item.run, item.id);
    int depth = 0;
    {
      std::lock_guard lk(ws.mu);
      ws.buckets[std::size_t(b)].push_back(std::move(item));
      depth = ws.approx_size.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    metrics.max_queue_depth.set_max(double(depth));
    queued.fetch_add(1, std::memory_order_seq_cst);
  }

  bool pop_local(WorkerState& ws, Item& item) {
    std::lock_guard lk(ws.mu);
    for (auto& bucket : ws.buckets) {
      if (!bucket.empty()) {
        item = std::move(bucket.back());  // LIFO: hottest data first
        bucket.pop_back();
        ws.approx_size.fetch_sub(1, std::memory_order_relaxed);
        queued.fetch_sub(1, std::memory_order_seq_cst);
        return true;
      }
    }
    return false;
  }

  bool try_steal(std::size_t self, Item& item) {
    const std::size_t n = workers.size();
    for (std::size_t hop = 1; hop < n; ++hop) {
      WorkerState& victim = workers[(self + hop) % n];
      if (victim.approx_size.load(std::memory_order_relaxed) <= 0) continue;
      std::lock_guard lk(victim.mu);
      for (auto& bucket : victim.buckets) {
        if (!bucket.empty()) {
          item = std::move(bucket.front());  // FIFO: largest subgraph
          bucket.pop_front();
          victim.approx_size.fetch_sub(1, std::memory_order_relaxed);
          queued.fetch_sub(1, std::memory_order_seq_cst);
          metrics.steals.add_sharded(1, self);
          return true;
        }
      }
    }
    return false;
  }

  /// Producer-side injection: spread items round-robin so a burst of roots
  /// lands across the pool, then wake one sleeper per item.
  void inject(std::vector<Item> items) {
    const std::size_t n = workers.size();
    for (Item& item : items) {
      const std::size_t w =
          inject_rr.fetch_add(1, std::memory_order_relaxed) % n;
      push_to(workers[w], std::move(item));
      wake_one();
    }
  }

  /// Park until a wake signal. The worker enlists as a sleeper *before* it
  /// re-checks `queued`: a producer increments `queued` and then reads
  /// `num_sleepers` (both seq_cst), so either the producer sees this sleeper
  /// and signals it, or this check sees the producer's item and the worker
  /// de-enlists. Checking first would leave a window where a push lands
  /// between the check and the enlisting and is never signalled.
  void park(std::size_t self) {
    WorkerState& ws = workers[self];
    std::unique_lock lk(park_mu);
    if (stopping) return;
    sleepers.push_back(self);
    num_sleepers.store(sleepers.size(), std::memory_order_seq_cst);
    if (queued.load(std::memory_order_seq_cst) > 0) {
      sleepers.pop_back();  // still last: park_mu has been held throughout
      num_sleepers.store(sleepers.size(), std::memory_order_seq_cst);
      return;
    }
    ws.wake_signal = false;
    metrics.parks.add_sharded(1, self);
    ws.park_cv.wait(lk, [&ws] { return ws.wake_signal; });
  }

  void wake_one() {
    if (num_sleepers.load(std::memory_order_seq_cst) == 0) return;
    std::lock_guard lk(park_mu);
    if (sleepers.empty()) return;
    const std::size_t w = sleepers.back();
    sleepers.pop_back();
    num_sleepers.store(sleepers.size(), std::memory_order_seq_cst);
    workers[w].wake_signal = true;
    metrics.wakeups.add();
    workers[w].park_cv.notify_one();
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
    WorkerState& ws = workers[self];
    for (;;) {
      Item item;
      if (pop_local(ws, item) || try_steal(self, item)) {
        run_task(self, std::move(item));
        continue;
      }
      if (stopping_flag.load(std::memory_order_acquire)) return;
      std::this_thread::yield();
      if (pop_local(ws, item) || try_steal(self, item)) {
        run_task(self, std::move(item));
        continue;
      }
      park(self);
      if (stopping_flag.load(std::memory_order_acquire) &&
          queued.load(std::memory_order_seq_cst) == 0) {
        return;
      }
    }
  }

  void run_task(std::size_t self, Item item) {
    detail::SessionRun& run = *item.run;
    const TaskId id = item.id;
    const Task& task = run.graph->task(id);
    const double t0 = clock.seconds() - run.submit_seconds;
    TaskStatus st = TaskStatus::Completed;
    if (run.poisoned[id].load(std::memory_order_relaxed) != 0) {
      st = TaskStatus::Cancelled;  // a predecessor failed: body never runs
    } else {
      try {
        if (run.opts.start_hook) run.opts.start_hook(task);
        if (run.opts.fault_injector) {
          run.opts.fault_injector->on_task_start(id, task.info.kind);
        }
        if (task.body) task.body();
        if (run.opts.retire_hook) run.opts.retire_hook(task);
      } catch (...) {
        st = TaskStatus::Failed;
        std::lock_guard lk(run.err_mu);
        if (!run.first_error) run.first_error = std::current_exception();
      }
    }
    if (run.opts.capture_trace) {
      std::lock_guard lk(run.trace_mu);
      run.trace.push_back(TaskTraceEntry{
          id, self, t0, clock.seconds() - run.submit_seconds, st});
    }
    run.status[id].store(std::uint8_t(st), std::memory_order_relaxed);
    run.metrics.tasks_retired.add_sharded(1, self);
    if (st == TaskStatus::Failed) {
      run.metrics.tasks_failed.add_sharded(1, self);
    }
    if (st == TaskStatus::Cancelled) {
      run.metrics.tasks_cancelled.add_sharded(1, self);
    }

    // Same lock-free retirement as the work-stealing scheduler: poison
    // stores precede the release-ordered indegree decrement, so the claimer
    // of a freed successor observes them.
    std::size_t freed = 0;
    WorkerState& ws = workers[self];
    for (TaskId succ : task.successors) {
      if (st != TaskStatus::Completed) {
        run.poisoned[succ].store(1, std::memory_order_relaxed);
      }
      if (run.indegree[succ].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        push_to(ws, Item{item.run, succ});
        ++freed;
      }
    }
    for (std::size_t i = 1; i < freed; ++i) wake_one();
    if (freed == 1 && ws.approx_size.load(std::memory_order_relaxed) > 1) {
      wake_one();  // backlog behind the task we kept: invite a thief
    }
    if (run.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      finish_run(item.run);
    }
  }

  /// Build the run's report and release its waiter. Called by the worker
  /// that retired the run's last task; the item's shared_ptr keeps the state
  /// alive through this even if the waiter returns immediately.
  void finish_run(const std::shared_ptr<detail::SessionRun>& run) {
    ExecutionReport report;
    report.wall_seconds = clock.seconds() - run->submit_seconds;
    std::size_t completed = 0;
    for (TaskId t = 0; t < run->graph->num_tasks(); ++t) {
      switch (TaskStatus(run->status[t].load(std::memory_order_relaxed))) {
        case TaskStatus::Completed: ++completed; break;
        case TaskStatus::Failed: report.report.failed.push_back(t); break;
        case TaskStatus::Cancelled: report.report.cancelled.push_back(t); break;
      }
    }
    report.tasks_run = completed;
    report.report.first_error = run->first_error;
    if (run->opts.capture_trace) {
      std::lock_guard lk(run->trace_mu);
      report.trace = std::move(run->trace);
    }
    {
      std::lock_guard lk(run->done_mu);
      run->report = std::move(report);
      run->done = true;
    }
    run->done_cv.notify_all();
  }

  ExecutorSessionOptions opts;
  SessionMetrics metrics;
  Stopwatch clock;
  std::vector<WorkerState> workers;
  std::vector<std::thread> threads;
  std::atomic<std::size_t> inject_rr{0};
  /// Queued-but-unclaimed items across all workers; the park/wake handshake
  /// keys off it exactly as in the work-stealing scheduler.
  std::atomic<std::int64_t> queued{0};
  std::mutex park_mu;
  std::vector<std::size_t> sleepers;
  std::atomic<std::size_t> num_sleepers{0};
  bool stopping = false;  ///< guarded by park_mu (the park predicate)
  std::atomic<bool> stopping_flag{false};
};

ExecutorSession::ExecutorSession(const ExecutorSessionOptions& options)
    : impl_(std::make_unique<Impl>(options)) {}

ExecutorSession::~ExecutorSession() = default;

ExecutorSession::Ticket ExecutorSession::submit(const TaskGraph& graph,
                                                SubmitOptions options) {
  Ticket ticket;
  ticket.run_ = std::make_shared<detail::SessionRun>(
      graph, std::move(options), impl_->clock.seconds());
  if (graph.num_tasks() == 0) {
    // Nothing to schedule: complete the run inline.
    std::lock_guard lk(ticket.run_->done_mu);
    ticket.run_->done = true;
    return ticket;
  }
  std::vector<Impl::Item> roots;
  for (TaskId t : graph.roots()) {
    roots.push_back(Impl::Item{ticket.run_, t});
  }
  impl_->inject(std::move(roots));
  return ticket;
}

ExecutionReport ExecutorSession::wait(Ticket ticket) {
  MPGEO_REQUIRE(bool(ticket), "ExecutorSession::wait: empty ticket");
  detail::SessionRun& run = *ticket.run_;
  std::unique_lock lk(run.done_mu);
  run.done_cv.wait(lk, [&run] { return run.done; });
  return std::move(run.report);
}

ExecutionReport ExecutorSession::run(const TaskGraph& graph,
                                     const ExecutorOptions& options) {
  SubmitOptions sub;
  sub.capture_trace = options.capture_trace;
  sub.start_hook = options.start_hook;
  sub.retire_hook = options.retire_hook;
  sub.fault_injector = options.fault_injector;
  sub.metrics = options.metrics;
  ExecutionReport report = wait(submit(graph, std::move(sub)));
  if (options.rethrow_errors && report.report.first_error) {
    std::rethrow_exception(report.report.first_error);
  }
  return report;
}

std::size_t ExecutorSession::num_threads() const {
  return impl_->workers.size();
}

ExecutorSession& shared_executor_session() {
  // Sized to hardware concurrency once; intentionally leaked so worker
  // threads never race static destruction order at exit.
  static ExecutorSession* session =
      new ExecutorSession(ExecutorSessionOptions{});
  return *session;
}

}  // namespace mpgeo
