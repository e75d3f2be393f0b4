// Shared plumbing of the benchmark binary: command line, clocks, order
// statistics, the metric catalogue and the result line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  /// Small shapes for the self-test; never used for measurements.
  bool smoke = false;
  /// Self-test hook: corrupt one output before its check ("" = none).
  std::string corrupt;
  /// Scratch directory for spill logs and trace files (inside the checkout).
  std::string workdir = ".";
};

/// Seconds on the steady clock since process start.
double now_s();

/// Median of a non-empty sample (mean of the two middle values when even).
double median(std::vector<double> v);

/// Nearest-rank percentile, q in (0, 100].
double percentile(std::vector<double> v, double q);

/// The highest nearest-rank percentile of `v` (in whole percent) that still
/// has at least ten samples above it; {0, 0} when `v` has fewer than 11.
struct Tail {
  double pct = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;
};
Tail tail_with_ten_beyond(std::vector<double> v);

/// Process peak resident set size in MB (getrusage high-water mark).
double peak_rss_mb();

/// Repeat `once` `reps` times and return the median wall seconds. Each call
/// builds the state it needs from scratch, so the last call's state is the
/// one the run keeps.
double median_setup_seconds(int reps, const std::function<void()>& once);

enum class Better { Lower, Higher };

struct MetricSpec {
  const char* name;
  const char* unit;
  Better better;
};

/// The end-to-end metrics every workload reports with --trace 0, and the
/// per-layer metrics every workload reports with --trace 1, in the order of
/// BENCHMARK.json (the self-test compares both lists against it).
const std::vector<MetricSpec>& end_to_end_specs();
const std::vector<MetricSpec>& per_layer_specs();

/// One workload run's outcome. Metrics are looked up by name in the
/// catalogue above; a layer the workload does not touch keeps its 0.
class Result {
 public:
  explicit Result(bool traced);

  void set(const std::string& name, double value);
  /// A workload-specific figure printed for the reader (such as
  /// mp_chol_s) that is not part of the result line.
  void info(const std::string& name, double value, const std::string& unit,
            const std::string& better);
  /// Record one operation and whether it (and its output checks) passed.
  void op(bool ok);
  /// Record the outcome of one output check (a failure is printed and
  /// marks the run incorrect) and return `ok`, so a caller can fold it into
  /// the operation it belongs to: out.op(out.check(...)).
  bool check(bool ok, const std::string& what);

  bool correct() const { return failures_.empty() && failed_ == 0; }
  std::uint64_t attempted() const { return attempted_; }

  /// Print the readable table, the failures, then the result line.
  void print(const std::string& workload) const;

 private:
  const std::vector<MetricSpec>* specs_;
  std::vector<double> values_;
  struct Info {
    std::string name, unit, better;
    double value;
  };
  std::vector<Info> infos_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// Workload entry points (one per file).
void run_fit_matern(const Args& args, Result& out);
void run_factor_sqexp(const Args& args, Result& out);
void run_factor_ooc(const Args& args, Result& out);
void run_serve(const Args& args, Result& out);

}  // namespace perfbench
