#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace mpgeo {
namespace {

/// One traced task execution, backend-neutral: pid/tid locate the track
/// (host worker or simulated device channel), start/end are seconds.
struct Span {
  int pid = 0;
  int tid = 0;
  double start = 0.0;
  double end = 0.0;
  bool traced = false;
};

/// Streams the {"traceEvents": [...]} document, handling commas.
class Emitter {
 public:
  explicit Emitter(std::ostream& os) : os_(os) {
    os_ << "{\"traceEvents\": [";
  }

  void finish() { os_ << (first_ ? "]}\n" : "\n]}\n"); }

  void meta(const char* kind, int pid, int tid, const std::string& name,
            bool with_tid) {
    begin();
    os_ << "{\"name\": \"" << kind << "\", \"ph\": \"M\", \"pid\": " << pid;
    if (with_tid) os_ << ", \"tid\": " << tid;
    os_ << ", \"args\": {\"name\": \"" << json_escape(name) << "\"}}";
  }

  void complete(const std::string& name, const std::string& cat, int pid,
                int tid, double start, double end) {
    begin();
    os_ << "{\"name\": \"" << json_escape(name) << "\", \"cat\": \"" << cat
        << "\", \"ph\": \"X\", \"ts\": " << trace_us(start)
        << ", \"dur\": " << trace_us(end - start) << ", \"pid\": " << pid
        << ", \"tid\": " << tid << "}";
  }

  void flow(char phase, std::size_t id, int pid, int tid, double ts) {
    begin();
    os_ << "{\"name\": \"dep\", \"cat\": \"dep\", \"ph\": \"" << phase
        << "\"";
    if (phase == 'f') os_ << ", \"bp\": \"e\"";
    os_ << ", \"id\": " << id << ", \"ts\": " << trace_us(ts)
        << ", \"pid\": " << pid << ", \"tid\": " << tid << "}";
  }

  void counter(const std::string& name, int pid, double ts,
               const std::string& key, const std::string& value) {
    begin();
    os_ << "{\"name\": \"" << json_escape(name)
        << "\", \"ph\": \"C\", \"pid\": " << pid << ", \"ts\": " << trace_us(ts)
        << ", \"args\": {\"" << key << "\": " << value << "}}";
  }

 private:
  void begin() {
    os_ << (first_ ? "\n  " : ",\n  ");
    first_ = false;
  }

  std::ostream& os_;
  bool first_ = true;
};

std::string task_display_name(const TaskInfo& info) {
  return info.name.empty() ? to_string(info.kind) : info.name;
}

/// Flow arrows: one per DAG dependency edge, id = edge index, from the
/// producer's end to the consumer's start. Shared by both writers — the ids
/// line up, so a real trace and a sim replay of the same graph can be
/// compared arrow-for-arrow.
void emit_flows(Emitter& em, const TaskGraph& graph,
                const std::vector<Span>& spans) {
  const auto& edges = graph.edges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Span& from = spans[edges[i].from];
    const Span& to = spans[edges[i].to];
    if (!from.traced || !to.traced) continue;
    em.flow('s', i, from.pid, from.tid, from.end);
    em.flow('f', i, to.pid, to.tid, to.start);
  }
}

/// Final sample of every registry counter and gauge, as its own counter
/// track (gauges carry e.g. ooc.shared.resident_bytes / operand_cache.bytes).
void emit_registry_counters(Emitter& em, const MetricsRegistry& metrics,
                            double ts) {
  const MetricsRegistry::Snapshot snap = metrics.snapshot();
  for (const auto& [name, value] : snap.counters) {
    em.counter(name, 0, ts, "value", std::to_string(value));
  }
  for (const auto& [name, value] : snap.gauges) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", value);
    em.counter(name, 0, ts, "value", buf);
  }
}

/// Caller-supplied time-series counter tracks (TraceExportOptions::
/// extra_counters), emitted sample-for-sample.
void emit_extra_counters(Emitter& em, const TraceExportOptions& options) {
  for (const auto& [name, samples] : options.extra_counters) {
    for (const auto& [seconds, value] : samples) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.3f", value);
      em.counter(name, 0, seconds, "value", buf);
    }
  }
}

}  // namespace

void write_chrome_trace(const ExecutionReport& report, const TaskGraph& graph,
                        std::ostream& os, const TraceExportOptions& options) {
  MPGEO_REQUIRE(!report.trace.empty() || report.tasks_run == 0,
                "write_chrome_trace: report has no trace (enable "
                "ExecutorOptions::capture_trace)");
  Emitter em(os);

  std::vector<Span> spans(graph.num_tasks());
  std::set<std::size_t> workers;
  double t_end = 0.0;
  for (const TaskTraceEntry& e : report.trace) {
    MPGEO_REQUIRE(e.task < graph.num_tasks(),
                  "write_chrome_trace: trace references unknown task");
    spans[e.task] =
        Span{0, int(e.worker), e.start_seconds, e.end_seconds, true};
    workers.insert(e.worker);
    t_end = std::max(t_end, e.end_seconds);
  }

  em.meta("process_name", 0, 0, "host", /*with_tid=*/false);
  for (std::size_t w : workers) {
    em.meta("thread_name", 0, int(w), "worker" + std::to_string(w),
            /*with_tid=*/true);
  }

  for (const TaskTraceEntry& e : report.trace) {
    const TaskInfo& info = graph.task(e.task).info;
    // Failed/cancelled spans get a marker category so Perfetto colors them
    // apart from the kernel kinds; clean runs are byte-identical to PR 3.
    std::string cat = to_string(info.kind);
    if (e.status == TaskStatus::Failed) cat = "FAILED";
    if (e.status == TaskStatus::Cancelled) cat = "CANCELLED";
    em.complete(task_display_name(info), cat, 0, int(e.worker),
                e.start_seconds, e.end_seconds);
  }

  emit_flows(em, graph, spans);

  // Tasks-in-flight track: +1 at each start, -1 at each end, sampled at
  // every transition. Shows how well the DAG kept the pool fed.
  std::vector<std::pair<double, int>> deltas;
  deltas.reserve(2 * report.trace.size());
  for (const TaskTraceEntry& e : report.trace) {
    deltas.emplace_back(e.start_seconds, +1);
    deltas.emplace_back(e.end_seconds, -1);
  }
  std::sort(deltas.begin(), deltas.end());
  int in_flight = 0;
  for (const auto& [t, d] : deltas) {
    in_flight += d;
    em.counter("tasks_in_flight", 0, t, "tasks", std::to_string(in_flight));
  }
  emit_extra_counters(em, options);
  if (options.metrics) emit_registry_counters(em, *options.metrics, t_end);

  em.finish();
}

void write_chrome_trace_file(const ExecutionReport& report,
                             const TaskGraph& graph, const std::string& path,
                             const TraceExportOptions& options) {
  std::ofstream out(path);
  MPGEO_REQUIRE(out.good(), "write_chrome_trace_file: cannot open " + path);
  write_chrome_trace(report, graph, out, options);
}

void write_sim_chrome_trace(const SimReport& report, const TaskGraph& graph,
                            std::ostream& os,
                            const TraceExportOptions& options) {
  MPGEO_REQUIRE(!report.timeline.empty() || graph.num_tasks() == 0,
                "write_sim_chrome_trace: report has no timeline (enable "
                "SimOptions::capture_timeline)");
  Emitter em(os);

  constexpr int kComputeTid = 0, kCopyInTid = 1, kCopyOutTid = 2;

  std::vector<Span> spans(graph.num_tasks());
  std::set<int> devices;
  for (const SimTaskRecord& r : report.timeline) {
    MPGEO_REQUIRE(r.task < graph.num_tasks(),
                  "write_sim_chrome_trace: timeline references unknown task");
    spans[r.task] =
        Span{r.device, kComputeTid, r.start_seconds, r.end_seconds, true};
    devices.insert(r.device);
  }
  for (const SimTransferRecord& t : report.transfers) devices.insert(t.device);

  for (int d : devices) {
    em.meta("process_name", d, 0, "gpu" + std::to_string(d),
            /*with_tid=*/false);
    em.meta("thread_name", d, kComputeTid, "compute", /*with_tid=*/true);
    em.meta("thread_name", d, kCopyInTid, "copy-in", /*with_tid=*/true);
    em.meta("thread_name", d, kCopyOutTid, "copy-out", /*with_tid=*/true);
  }

  for (const SimTaskRecord& r : report.timeline) {
    const TaskInfo& info = graph.task(r.task).info;
    em.complete(task_display_name(info), to_string(info.kind), r.device,
                kComputeTid, r.start_seconds, r.end_seconds);
  }
  for (const SimTransferRecord& t : report.transfers) {
    const DataInfo& d = graph.data(t.data);
    const std::string name =
        d.name.empty() ? "data" + std::to_string(t.data) : d.name;
    const int tid =
        t.link == SimLinkClass::DeviceToHost ? kCopyOutTid : kCopyInTid;
    em.complete(name, to_string(t.link), t.device, tid, t.start_seconds,
                t.end_seconds);
  }

  emit_flows(em, graph, spans);

  // Cumulative bytes per (device, link class): one counter sample at each
  // transfer's completion. The end value of sim.device.<d> tracks equals
  // DeviceSimStats::bytes_received for incoming links.
  std::vector<const SimTransferRecord*> order;
  order.reserve(report.transfers.size());
  for (const SimTransferRecord& t : report.transfers) order.push_back(&t);
  std::sort(order.begin(), order.end(),
            [](const SimTransferRecord* a, const SimTransferRecord* b) {
              return a->end_seconds < b->end_seconds;
            });
  std::map<std::pair<int, SimLinkClass>, std::size_t> cumulative;
  for (const SimTransferRecord* t : order) {
    std::size_t& acc = cumulative[{t->device, t->link}];
    acc += t->bytes;
    em.counter("bytes." + to_string(t->link), t->device, t->end_seconds,
               "bytes", std::to_string(acc));
  }
  emit_extra_counters(em, options);
  if (options.metrics) {
    emit_registry_counters(em, *options.metrics, report.makespan_seconds);
  }

  em.finish();
}

void write_sim_chrome_trace_file(const SimReport& report,
                                 const TaskGraph& graph,
                                 const std::string& path,
                                 const TraceExportOptions& options) {
  std::ofstream out(path);
  MPGEO_REQUIRE(out.good(),
                "write_sim_chrome_trace_file: cannot open " + path);
  write_sim_chrome_trace(report, graph, out, options);
}

}  // namespace mpgeo
