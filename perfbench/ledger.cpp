#include "ledger.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common.hpp"
#include "core/mp_cholesky.hpp"
#include "obs/metrics.hpp"
#include "runtime/task_graph.hpp"

namespace perfbench {

int Ledger::begin(const std::string& name, const std::string& layer,
                  std::uint64_t op, int parent) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.start = now_s();
  s.end = s.start;
  s.parent = parent;
  s.op = op;
  spans_.push_back(std::move(s));
  return int(spans_.size()) - 1;
}

void Ledger::end(int span) { spans_.at(std::size_t(span)).end = now_s(); }

int Ledger::add(Span s) {
  spans_.push_back(std::move(s));
  return int(spans_.size()) - 1;
}

namespace {

/// Flops of one factorization task from its tile shapes.
double task_flops(const std::string& kind, std::size_t m, std::size_t n,
                  std::size_t k) {
  const double M = double(m), N = double(n), K = double(k);
  if (kind == "GEMM") return 2.0 * M * N * K;   // C(m,n) -= A(m,k) B(n,k)^T
  if (kind == "SYRK") return M * (M + 1.0) * K;  // C(m,m) -= A(m,k) A^T
  if (kind == "TRSM") return M * K * K;          // B(m,k) L(k,k)^-T
  if (kind == "POTRF") return K * K * K / 3.0;   // L(k,k)
  return 0.0;
}

}  // namespace

void Ledger::add_factorization(const mpgeo::MpCholeskyResult& r,
                               const mpgeo::TileMatrix& a,
                               std::size_t workers, double call_start,
                               double call_end, int parent, std::uint64_t op,
                               ExecTotals& totals) {
  if (!r.graph) {
    throw std::logic_error("add_factorization: run without capture_trace");
  }
  const double exec = r.exec.wall_seconds;
  const double exec_start = std::max(call_start, call_end - exec);
  add({"chol.prep", "chol.prep", call_start, exec_start, parent, op, 0});
  const int exec_span =
      add({"chol.exec", "chol.exec", exec_start, call_end, parent, op, 0});
  totals.exec_s += exec;
  totals.prep_s += (call_end - call_start) - exec;
  totals.worker_s += exec * double(workers);
  totals.opcache_hits += r.operand_cache.hits;
  totals.opcache_fills += r.operand_cache.misses;
  totals.opcache_peak_bytes =
      std::max(totals.opcache_peak_bytes, r.operand_cache.peak_bytes);
  totals.demoted = totals.tiles = 0;
  for (std::size_t m = 0; m < a.num_tiles(); ++m) {
    for (std::size_t k = 0; k <= m; ++k, ++totals.tiles) {
      totals.demoted += r.pmap.kernel(m, k) != mpgeo::Precision::FP64;
    }
  }

  for (const mpgeo::TaskTraceEntry& e : r.exec.trace) {
    const mpgeo::TaskInfo& info = r.graph->task(e.task).info;
    const std::string kind = mpgeo::to_string(info.kind);
    const std::string key = kind + "." + mpgeo::to_string(info.prec);
    const std::size_t tm = std::size_t(std::max(info.tm, 0));
    const std::size_t tn = std::size_t(std::max(info.tn, 0));
    const std::size_t tk = std::size_t(std::max(info.tk, 0));
    KernelTotals& kt = totals.kernels[key];
    kt.busy_s += e.end_seconds - e.start_seconds;
    kt.flops += task_flops(kind, a.tile_rows(tm), a.tile_rows(tn),
                           a.tile_rows(kind == "POTRF" ? tm : tk));
    totals.busy_s += e.end_seconds - e.start_seconds;
    add({info.name, "kernel." + key, exec_start + e.start_seconds,
         exec_start + e.end_seconds, exec_span, op, 1 + int(e.worker)});
  }
}

void set_exec_layers(Result& out, const ExecTotals& ex, double factorizations,
                     const mpgeo::MetricsRegistry& reg, double evals) {
  out.set("maps.demoted_frac", double(ex.demoted) / double(ex.tiles));
  out.set("chol.prep_ms", 1e3 * ex.prep_s / factorizations);
  out.set("chol.exec_ms", 1e3 * ex.exec_s / factorizations);
  out.set("chol.breakdowns_per_eval",
          double(reg.counter_value("cholesky.breakdowns")) / evals);
  out.set("chol.retry_frac",
          double(reg.counter_value("cholesky.escalations")) / evals);
  for (const auto& [key, kt] : ex.kernels) {
    out.set("kernel." + key + ".busy_ms", 1e3 * kt.busy_s / factorizations);
    out.set("kernel." + key + ".gflops", 1e-9 * kt.flops / kt.busy_s);
  }
  const double lookups = double(ex.opcache_hits + ex.opcache_fills);
  out.set("opcache.hit_ratio",
          lookups > 0 ? double(ex.opcache_hits) / lookups : 0.0);
  out.set("opcache.fills", double(ex.opcache_fills) / factorizations);
  out.set("opcache.peak_mb", double(ex.opcache_peak_bytes) / 1e6);
  const double tasks = double(reg.counter_value("executor.tasks_retired"));
  out.set("sched.idle_frac", 1.0 - ex.busy_s / ex.worker_s);
  out.set("sched.tasks_per_eval", tasks / evals);
  out.set("sched.parks_per_ktask",
          1e3 * double(reg.counter_value("executor.parks")) / tasks);
  out.set("sched.steals_per_ktask",
          1e3 * double(reg.counter_value("executor.steals")) / tasks);
}

void set_ledger(Result& out, const Ledger& led, std::size_t workers,
                double operations) {
  const auto layers = led.self_by_layer(workers);
  const auto it = layers.find("");
  out.set("ledger.unattributed_frac",
          (it == layers.end() ? 0.0 : it->second) / led.root_seconds());
  for (const auto& [name, secs] : layers) {
    out.info("ledger." + (name.empty() ? std::string("unattributed") : name),
             1e3 * secs / operations, "ms/op", "-");
  }
}

std::map<std::string, double> Ledger::self_by_layer(
    std::size_t workers) const {
  const double W = double(std::max<std::size_t>(workers, 1));
  std::vector<double> child_s(spans_.size(), 0.0);
  std::vector<std::vector<std::size_t>> tasks(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent < 0) continue;
    if (s.track == 0) {
      child_s[std::size_t(s.parent)] += s.end - s.start;
    } else {
      tasks[std::size_t(s.parent)].push_back(i);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.track != 0) continue;
    const double self = (s.end - s.start) - child_s[i];
    if (s.name != "chol.exec") {
      out[s.layer] += self;
      continue;
    }
    // Worker-time decomposition of the executor's share.
    std::map<std::size_t, std::vector<std::pair<double, double>>> by_track;
    for (std::size_t t : tasks[i]) {
      by_track[std::size_t(spans_[t].track)].push_back(
          {spans_[t].start, spans_[t].end});
    }
    double busy = 0.0, gaps = 0.0;
    for (auto& [track, iv] : by_track) {
      std::sort(iv.begin(), iv.end());
      for (std::size_t j = 0; j < iv.size(); ++j) {
        busy += iv[j].second - iv[j].first;
        if (j) gaps += std::max(0.0, iv[j].first - iv[j - 1].second);
      }
    }
    out["kernel"] += busy / W;
    out["sched"] += gaps / W;
    out[""] += self - (busy + gaps) / W;
  }
  return out;
}

double Ledger::root_seconds() const {
  double s = 0.0;
  for (const Span& sp : spans_) {
    if (sp.parent < 0 && sp.track == 0) s += sp.end - sp.start;
  }
  return s;
}

void Ledger::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  const auto us = [](double seconds) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.3f", seconds * 1e6);
    return std::string(buf);
  };
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "") << "{\"name\": \"" << s.name << "\", \"cat\": \""
       << (s.layer.empty() ? "op" : s.layer)
       << "\", \"ph\": \"X\", \"pid\": 0, \"tid\": " << s.track
       << ", \"ts\": " << us(s.start) << ", \"dur\": " << us(s.end - s.start)
       << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
       << ", \"op\": " << s.op << "}}";
  }
  os << "\n]}\n";
}

Scope::Scope(Ledger* ledger, const std::string& name, const std::string& layer,
             std::uint64_t op, int parent)
    : ledger_(ledger) {
  if (ledger_) id_ = ledger_->begin(name, layer, op, parent);
}

Scope::~Scope() {
  if (ledger_) ledger_->end(id_);
}

}  // namespace perfbench
