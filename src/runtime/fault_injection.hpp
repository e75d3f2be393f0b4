// Deterministic fault injection for the task runtime (DESIGN.md 5e).
//
// Two fault families exercise the failure machinery end to end:
//
//   * TaskException — the executor consults the injector right before a
//     task body runs and throws InjectedFault, driving the FAILED/CANCELLED
//     propagation and the RunReport surface directly;
//   * ConvertNaN / ConvertOverflow — numeric corruption scribbled into a
//     tile by the factorization kernels' injection hook, modelling a
//     precision conversion gone wrong. The downstream POTRF then fails with
//     a genuine NotPositiveDefinite, driving the precision-escalation retry
//     through exactly the code path a real low-precision breakdown takes.
//
// Arming is a pure function of (seed, task id): same seed + same graph gives
// the same armed set at every pool size, so failing runs replay
// deterministically. A separate injection *budget* (max_injections) makes
// faults one-shot — the fault fires on the first attempt and is absent from
// the escalation retry — but note the budget is consumed in scheduler order,
// so only targeted (single-task) injection stays deterministic with a finite
// budget under probability arming.
//
// Off by default: a null injector pointer costs one branch per task and
// nothing else.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "runtime/task_graph.hpp"

namespace mpgeo {

enum class FaultKind {
  None,             ///< injector disabled
  TaskException,    ///< throw InjectedFault from the executor before the body
  ConvertNaN,       ///< corrupt one tile entry with a quiet NaN
  ConvertOverflow,  ///< corrupt one tile entry with a value overflowing FP16
  WireCorrupt,      ///< flip mantissa bits in a serialized dist payload
};

std::string to_string(FaultKind kind);

struct FaultInjectionOptions {
  FaultKind kind = FaultKind::None;
  /// Per-task arming probability in [0, 1] (ignored when target_task set).
  double probability = 0.0;
  std::uint64_t seed = 0;
  /// When set, arms exactly this task id and nothing else.
  TaskId target_task = kNoTask;
  /// Restrict probability arming to one kernel kind (e.g. only TRSMs).
  std::optional<KernelKind> kind_filter;
  /// Injection budget; <= 0 = unlimited. 1 gives one-shot faults: the fault
  /// fires once and the escalation retry runs clean.
  int max_injections = 0;
};

/// The exception a TaskException fault raises, carrying the victim task id.
class InjectedFault : public Error {
 public:
  explicit InjectedFault(TaskId task)
      : Error("injected fault in task " + std::to_string(task)), task_(task) {}
  TaskId task() const { return task_; }

 private:
  TaskId task_;
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultInjectionOptions& options);

  const FaultInjectionOptions& options() const { return opts_; }

  /// Pure arming decision (no budget): would this (task, kind) be hit?
  bool armed(TaskId task, KernelKind kind) const;

  /// Executor hook, called before a task body runs. Throws InjectedFault
  /// when a TaskException fault is armed and the budget admits it.
  void on_task_start(TaskId task, KernelKind kind);

  /// Kernel hook for conversion faults: the value to scribble into the
  /// task's output tile (NaN or an FP16-overflowing magnitude), or nullopt
  /// when this task is not hit. Consumes budget on a hit.
  std::optional<double> corruption(TaskId task, KernelKind kind);

  /// SEND hook for WireCorrupt faults: true when this task's serialized
  /// payload should have mantissa bits flipped before it ships (the dist
  /// layer then calls corrupt_payload_mantissa on the wire bytes). Consumes
  /// budget on a hit.
  bool payload_corruption(TaskId task, KernelKind kind);

  /// Faults actually delivered so far.
  std::uint64_t injections() const {
    return injections_.load(std::memory_order_relaxed);
  }

  /// Restore the budget (e.g. between benchmark repetitions).
  void reset() { injections_.store(0, std::memory_order_relaxed); }

 private:
  bool consume_budget();

  FaultInjectionOptions opts_;
  std::atomic<std::uint64_t> injections_{0};
};

/// Parse a "kind:prob:seed" bench/CLI spec, e.g. "exception:0.1:42",
/// "nan:1:7", "overflow:0.25:3". Kinds: exception | nan | overflow | wire.
FaultInjectionOptions parse_fault_spec(const std::string& spec);

}  // namespace mpgeo
