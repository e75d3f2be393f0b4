#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) throw std::logic_error("percentile of an empty sample");
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * double(v.size()));
  const std::size_t i =
      std::min(v.size() - 1, std::size_t(std::max(rank, 1.0)) - 1);
  return v[i];
}

Tail tail_with_ten_beyond(std::vector<double> v) {
  Tail t;
  if (v.size() < 11) return t;
  std::sort(v.begin(), v.end());
  // Nearest rank of whole percent q is ceil(q n / 100); walk down from 99
  // until at least ten samples lie strictly beyond that rank.
  for (int q = 99; q >= 1; --q) {
    const std::size_t rank = std::size_t(std::ceil(q * double(v.size()) / 100));
    if (rank >= 1 && v.size() - rank >= 10) {
      t.pct = q;
      t.value = v[rank - 1];
      t.beyond = v.size() - rank;
      return t;
    }
  }
  return t;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double median_setup_seconds(int reps, const std::function<void()>& once) {
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    once();
    s.push_back(now_s() - t0);
  }
  return median(s);
}

namespace {

constexpr Better L = Better::Lower;
constexpr Better H = Better::Higher;

const char* better_name(Better b) {
  return b == Better::Lower ? "lower" : "higher";
}

}  // namespace

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", L},
      {"peak_rss_mb", "MB", L},
      {"op_ms", "ms", L},
      {"ops_per_s", "1/s", H},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"covgen.fill_ms", "ms", L},
        {"covgen.share", "ratio", L},
        {"covgen.mvalues_per_s", "Mvalue/s", H},
        {"maps.build_ms", "ms", L},
        {"maps.demoted_frac", "ratio", H},
        {"chol.prep_ms", "ms", L},
        {"chol.exec_ms", "ms", L},
        {"chol.breakdowns_per_eval", "ratio", L},
        {"chol.retry_frac", "ratio", L},
    };
    // Every (kind, precision) pair the factorization can emit: POTRF and
    // SYRK always run in FP64, TRSM in FP64 or FP32, GEMM on the ladder.
    static const char* const pairs[] = {
        "POTRF.FP64", "SYRK.FP64",    "TRSM.FP64",     "TRSM.FP32",
        "GEMM.FP64",  "GEMM.FP32",    "GEMM.FP16_32",  "GEMM.FP16",
    };
    static std::vector<std::string> names;  // stable storage for c_str()
    names.reserve(2 * std::size(pairs));
    for (const char* p : pairs) {
      names.push_back(std::string("kernel.") + p + ".busy_ms");
      s.push_back({names.back().c_str(), "ms", L});
      names.push_back(std::string("kernel.") + p + ".gflops");
      s.push_back({names.back().c_str(), "GFLOP/s", H});
    }
    const std::vector<MetricSpec> rest = {
        {"opcache.hit_ratio", "ratio", H},
        {"opcache.fills", "count", L},
        {"opcache.peak_mb", "MB", L},
        {"sched.idle_frac", "ratio", L},
        {"sched.tasks_per_eval", "count", L},
        {"sched.parks_per_ktask", "count", L},
        {"sched.steals_per_ktask", "count", L},
        {"sched.speedup_vs_1t", "ratio", H},
        {"mle.logdet_ms", "ms", L},
        {"mle.solve_ms", "ms", L},
        {"mle.eval_p50_ms", "ms", L},
        {"mle.eval_tail_ms", "ms", L},
        {"mle.eval_tail_pct", "%", H},
        {"mle.sentinel_frac", "ratio", L},
        {"optim.evals", "count", L},
        {"optim.self_ms", "ms", L},
        {"ooc.uses", "count", L},
        {"ooc.fault_frac", "ratio", L},
        {"ooc.ahead_frac", "ratio", H},
        {"ooc.prefetch_waits", "count", L},
        {"ooc.cold_evictions", "count", L},
        {"ooc.peak_resident_mb", "MB", L},
        {"codec.spills", "count", L},
        {"codec.restores", "count", L},
        {"codec.ratio", "ratio", H},
        {"codec.compress_mb_s", "MB/s", H},
        {"codec.decompress_mb_s", "MB/s", H},
        {"serve.queue_ms_p50", "ms", L},
        {"serve.run_ms_p50", "ms", L},
        {"serve.fit_p95_ms", "ms", L},
        {"serve.geometry_hit_frac", "ratio", H},
        {"serve.workspace_reuse_frac", "ratio", H},
        {"serve.evals_per_fit", "count", L},
        {"ledger.unattributed_frac", "ratio", L},
        {"trace.overhead_frac", "ratio", L},
    };
    s.insert(s.end(), rest.begin(), rest.end());
    return s;
  }();
  return specs;
}

Result::Result(bool traced)
    : specs_(traced ? &per_layer_specs() : &end_to_end_specs()),
      values_(specs_->size(), 0.0) {}

void Result::set(const std::string& name, double value) {
  for (std::size_t i = 0; i < specs_->size(); ++i) {
    if (name == (*specs_)[i].name) {
      values_[i] = value;
      return;
    }
  }
  throw std::logic_error("perfbench: unknown metric " + name);
}

void Result::info(const std::string& name, double value,
                  const std::string& unit, const std::string& better) {
  infos_.push_back({name, unit, better, value});
}

void Result::op(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

bool Result::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
  return ok;
}

void Result::print(const std::string& workload) const {
  std::vector<std::string> failures = failures_;
  for (std::size_t i = 0; i < specs_->size(); ++i) {
    if (!std::isfinite(values_[i])) {
      failures.push_back(std::string("metric ") + (*specs_)[i].name +
                         " is not finite");
    }
  }
  if (failed_ > 0 && failures.empty()) {
    failures.push_back("an operation failed its output check");
  }
  std::printf("%-10s %-34s %16s  %-9s %s\n", "kind", "name", "value", "unit",
              "better");
  for (std::size_t i = 0; i < specs_->size(); ++i) {
    const MetricSpec& s = (*specs_)[i];
    std::printf("%-10s %-34s %16.6g  %-9s %s\n", "metric", s.name, values_[i],
                s.unit, better_name(s.better));
  }
  for (const Info& f : infos_) {
    std::printf("%-10s %-34s %16.6g  %-9s %s\n", workload.c_str(),
                f.name.c_str(), f.value, f.unit.c_str(), f.better.c_str());
  }
  for (const std::string& f : failures) std::printf("FAILED: %s\n", f.c_str());

  const bool ok = failures.empty();
  std::string line = "{\"correct\": ";
  line += ok ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < specs_->size(); ++i) {
    const MetricSpec& s = (*specs_)[i];
    char num[64];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(values_[i]) ? values_[i] : 0.0);
    if (i) line += ", ";
    line += std::string("\"") + s.name + "\": {\"value\": " + num +
            ", \"unit\": \"" + s.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
