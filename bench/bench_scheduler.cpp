// Scheduler microbenchmark: task throughput of execute() — a dedicated
// executor session per call — on DAGs whose bodies are free (pure
// scheduling cost: pool start-up, root injection, retirement, stealing,
// park/wake, teardown) or tiny (a 64-element dot product, the smallest
// realistic kernel), at 1, 4 and 8 workers.
//
// Shapes:
//   wide   — `width` independent chains of length `depth`: the ready set
//            holds ~width tasks at once (trailing-update shape);
//   diamond — repeated fan-out/fan-in: source -> width mids -> sink, chained
//            `depth` times (panel-then-update shape).
//
// Throughput is reported as items/s where one item = one task.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "runtime/executor.hpp"
#include "runtime/task_graph.hpp"

namespace {

using namespace mpgeo;

// Round-robin kernel kinds so priority buckets are exercised.
KernelKind kind_of(std::size_t i) {
  switch (i % 4) {
    case 0: return KernelKind::POTRF;
    case 1: return KernelKind::TRSM;
    case 2: return KernelKind::SYRK;
    default: return KernelKind::GEMM;
  }
}

TaskInfo info_of(std::size_t chain, std::size_t level) {
  TaskInfo ti;
  ti.kind = kind_of(chain + level);
  ti.tk = int(level);
  return ti;
}

/// `width` independent chains of `depth` tasks each.
TaskGraph make_wide_dag(std::size_t width, std::size_t depth,
                        std::function<void()> body) {
  TaskGraph g;
  std::vector<DataId> data(width);
  for (std::size_t c = 0; c < width; ++c) {
    data[c] = g.add_data({"d" + std::to_string(c), 64, -1});
  }
  for (std::size_t l = 0; l < depth; ++l) {
    for (std::size_t c = 0; c < width; ++c) {
      g.add_task(info_of(c, l), {{data[c], AccessMode::ReadWrite}}, body);
    }
  }
  return g;
}

/// `depth` repetitions of source -> `width` mids -> sink.
TaskGraph make_diamond_dag(std::size_t width, std::size_t depth,
                           std::function<void()> body) {
  TaskGraph g;
  const DataId hub = g.add_data({"hub", 64, -1});
  std::vector<DataId> mids(width);
  for (std::size_t c = 0; c < width; ++c) {
    mids[c] = g.add_data({"m" + std::to_string(c), 64, -1});
  }
  for (std::size_t l = 0; l < depth; ++l) {
    TaskInfo src;
    src.kind = KernelKind::POTRF;
    src.tk = int(l);
    g.add_task(src, {{hub, AccessMode::Write}}, body);
    for (std::size_t c = 0; c < width; ++c) {
      g.add_task(info_of(c, l),
                 {{hub, AccessMode::Read}, {mids[c], AccessMode::Write}}, body);
    }
    TaskInfo sink;
    sink.kind = KernelKind::TRSM;
    sink.tk = int(l);
    std::vector<Access> acc{{hub, AccessMode::ReadWrite}};
    for (DataId m : mids) acc.push_back({m, AccessMode::Read});
    g.add_task(sink, acc, body);
  }
  return g;
}

std::function<void()> tiny_body() {
  // A ~64-FMA dot product: the smallest body a real tile kernel would have.
  static double xs[64], ys[64];
  for (int i = 0; i < 64; ++i) {
    xs[i] = 1.0 / (i + 1);
    ys[i] = double(i);
  }
  return [] {
    double acc = 0.0;
    for (int i = 0; i < 64; ++i) acc += xs[i] * ys[i];
    benchmark::DoNotOptimize(acc);
  };
}

void run_bench(benchmark::State& state, TaskGraph& graph) {
  ExecutorOptions opts;
  opts.num_threads = std::size_t(state.range(2));
  for (auto _ : state) {
    const ExecutionReport rep = execute(graph, opts);
    benchmark::DoNotOptimize(rep.tasks_run);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(graph.num_tasks()));
}

void BM_WideEmpty(benchmark::State& state) {
  TaskGraph g = make_wide_dag(std::size_t(state.range(0)),
                              std::size_t(state.range(1)), nullptr);
  run_bench(state, g);
}

void BM_WideTiny(benchmark::State& state) {
  TaskGraph g = make_wide_dag(std::size_t(state.range(0)),
                              std::size_t(state.range(1)), tiny_body());
  run_bench(state, g);
}

void BM_DiamondEmpty(benchmark::State& state) {
  TaskGraph g = make_diamond_dag(std::size_t(state.range(0)),
                                 std::size_t(state.range(1)), nullptr);
  run_bench(state, g);
}

// Args: {width, depth, threads}.
void shapes(benchmark::internal::Benchmark* b) {
  for (int64_t threads : {1, 4, 8}) {
    for (int64_t width : {64, 1024, 4096}) {
      b->Args({width, 8, threads});
    }
  }
}

BENCHMARK(BM_WideEmpty)->Apply(shapes)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WideTiny)->Apply(shapes)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DiamondEmpty)
    ->Args({1024, 8, 8})
    ->Unit(benchmark::kMillisecond);

/// ConsoleReporter that additionally records every run into a JsonWriter, so
/// `--json <path>` gets the same numbers the console shows.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(mpgeo::bench::JsonWriter* writer)
      : writer_(writer) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    if (!writer_) return;
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      auto& rec = writer_->add(run.benchmark_name(),
                               benchmark::GetTimeUnitString(run.time_unit));
      rec.metrics.emplace_back("real_time", run.GetAdjustedRealTime());
      rec.metrics.emplace_back("cpu_time", run.GetAdjustedCPUTime());
      rec.metrics.emplace_back("iterations", double(run.iterations));
      for (const auto& [name, counter] : run.counters) {
        rec.metrics.emplace_back(name, double(counter));
      }
    }
  }

 private:
  mpgeo::bench::JsonWriter* writer_;
};

}  // namespace

namespace {

/// One instrumented real-executor run over the diamond DAG: per-task trace,
/// scheduler counters, Chrome trace + metrics dumps per the obs flags. This
/// is the real-backend counterpart of the simulator exports in the other
/// benches — same schema, so the two traces diff side by side in Perfetto.
void run_observed(const mpgeo::bench::ObsFlags& obs) {
  using namespace mpgeo;
  TaskGraph g = make_diamond_dag(256, 8, tiny_body());
  MetricsRegistry registry;
  ExecutorOptions opts;
  opts.capture_trace = true;
  opts.metrics = &registry;
  const ExecutionReport rep = execute(g, opts);
  const CriticalPathReport cp = critical_path(g, rep);
  std::fprintf(stderr,
               "[obs] diamond 256x8: wall %.6f s, critical path %.6f s over "
               "%zu tasks, %llu steals\n",
               rep.wall_seconds, cp.length_seconds, cp.path.size(),
               (unsigned long long)registry.counter_value("executor.steals"));
  // Per-task latency tail, through the same summarizer bench_serving uses
  // for fit latencies, so "p99" is one definition across the bench suite.
  std::vector<double> task_us;
  task_us.reserve(rep.trace.size());
  for (const TaskTraceEntry& e : rep.trace) {
    task_us.push_back((e.end_seconds - e.start_seconds) * 1e6);
  }
  const mpgeo::bench::LatencySummary lat =
      mpgeo::bench::summarize_latencies(std::move(task_us));
  std::fprintf(stderr,
               "[obs] task latency (us): p50 %.2f, p95 %.2f, p99 %.2f, max "
               "%.2f over %zu tasks\n",
               lat.p50, lat.p95, lat.p99, lat.max, lat.count);
  if (!obs.trace_path.empty()) {
    TraceExportOptions topts;
    topts.metrics = &registry;
    write_chrome_trace_file(rep, g, obs.trace_path, topts);
    std::fprintf(stderr, "[obs] trace written to %s\n", obs.trace_path.c_str());
  }
  if (!obs.metrics_path.empty()) {
    registry.write_json_file(obs.metrics_path);
    std::fprintf(stderr, "[obs] metrics written to %s\n",
                 obs.metrics_path.c_str());
  }
}

/// One injected run of the diamond DAG on a 1-worker and on an 8-worker
/// pool: prints the failed/cancelled/completed partition and checks the two
/// agree (they must — the failure sets are a pure function of graph +
/// injector). The obs flags apply to the 8-worker run, so `--trace` exports
/// the injected timeline with its FAILED/CANCELLED span categories.
void run_injected(const mpgeo::FaultInjectionOptions& fault,
                  const mpgeo::bench::ObsFlags& obs) {
  using namespace mpgeo;
  TaskGraph g = make_diamond_dag(256, 8, tiny_body());
  std::vector<TaskId> ref_failed;
  for (const std::size_t threads : {1u, 8u}) {
    const bool wide = threads > 1;
    FaultInjector inj(fault);
    MetricsRegistry registry;
    ExecutorOptions opts;
    opts.num_threads = threads;
    opts.rethrow_errors = false;
    opts.fault_injector = &inj;
    opts.capture_trace = wide && obs.any();
    opts.metrics = wide && obs.any() ? &registry : nullptr;
    const ExecutionReport rep = execute(g, opts);
    std::fprintf(stderr,
                 "[fault] %zu worker(s): %zu tasks -> %zu completed, %zu "
                 "failed, %zu cancelled (%llu injections)\n",
                 threads, g.num_tasks(), rep.tasks_run,
                 rep.report.failed.size(), rep.report.cancelled.size(),
                 (unsigned long long)inj.injections());
    if (wide) {
      std::fprintf(stderr, "[fault] pool sizes agree on failure set: %s\n",
                   rep.report.failed == ref_failed ? "yes" : "NO");
    } else {
      ref_failed = rep.report.failed;
    }
    if (wide && !obs.trace_path.empty()) {
      TraceExportOptions topts;
      topts.metrics = &registry;
      write_chrome_trace_file(rep, g, obs.trace_path, topts);
      std::fprintf(stderr, "[fault] trace written to %s\n",
                   obs.trace_path.c_str());
    }
    if (wide && !obs.metrics_path.empty()) {
      registry.write_json_file(obs.metrics_path);
      std::fprintf(stderr, "[fault] metrics written to %s\n",
                   obs.metrics_path.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = mpgeo::bench::json_path_from_args(argc, argv);
  mpgeo::bench::ObsFlags obs;
  obs.trace_path = mpgeo::bench::flag_from_args(argc, argv, "--trace");
  obs.metrics_path = mpgeo::bench::flag_from_args(argc, argv, "--metrics-json");
  const auto fault = mpgeo::bench::inject_fault_from_args(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  mpgeo::bench::JsonWriter writer;
  CapturingReporter reporter(json_path.empty() ? nullptr : &writer);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_path.empty() && !writer.write_file(json_path)) return 1;
  // With a fault spec the obs flags describe the injected run instead.
  if (obs.any() && !fault) run_observed(obs);
  if (fault) run_injected(*fault, obs);
  return 0;
}
