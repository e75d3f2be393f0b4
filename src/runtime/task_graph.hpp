// A task-based dataflow graph, the PaRSEC-analogue substrate of this library.
//
// Algorithms are expressed as tasks over versioned logical data with
// read/write access modes; dependence analysis (last-writer / reader sets,
// sequential insertion semantics like PaRSEC's DTD interface) turns the
// insertion sequence into a DAG. The same graph is consumed by two backends:
//
//   * runtime/executor.hpp — really runs task bodies on a worker pool,
//     asynchronously, as soon as dependencies are satisfied (the numeric
//     path used for accuracy experiments);
//   * gpusim/sim_executor.hpp — replays the DAG through a discrete-event
//     cluster simulator using each task's TaskInfo cost annotations (the
//     performance/energy path standing in for Summit).
//
// Tasks carry the metadata the paper's strategy needs: kernel kind, compute
// precision, tile coordinates, flop count, and the wire format of the data
// version they produce (which is where STC vs TTC shows up as bytes moved).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "precision/precision.hpp"

namespace mpgeo {

using DataId = std::uint32_t;
using TaskId = std::uint32_t;

inline constexpr TaskId kNoTask = std::numeric_limits<TaskId>::max();

enum class AccessMode { Read, Write, ReadWrite };

struct Access {
  DataId data = 0;
  AccessMode mode = AccessMode::Read;
  /// Data version this access binds to, stamped by add_task from the
  /// dependence analysis: for Read, the version the task observes (produced
  /// by its last-writer dependence); for Write/ReadWrite, the new version
  /// the task produces. Insertion order is a topological order, so the
  /// stamped version is exactly what the task sees at runtime. Consumers use
  /// it to key the operand cache.
  std::uint64_t version = 0;
};

/// Kernel taxonomy used by the cost model.
enum class KernelKind {
  POTRF,
  TRSM,
  SYRK,
  GEMM,
  CONVERT,  ///< datatype conversion (the cost STC shifts to the sender)
  GENERATE, ///< covariance tile generation
  SEND,     ///< serialize + ship a tile across a rank boundary (dist)
  RECV,     ///< deserialize a shipped payload into a rank-local replica
  CUSTOM,
};

std::string to_string(KernelKind k);

/// Cost/placement annotations consumed by the simulator backend.
struct TaskInfo {
  std::string name;
  KernelKind kind = KernelKind::CUSTOM;
  Precision prec = Precision::FP64;
  /// Tile coordinates (algorithm-specific; -1 when not applicable).
  int tm = -1, tn = -1, tk = -1;
  /// Floating point operations this task performs.
  double flops = 0.0;
  /// Device the task is pinned to in simulation (-1 = scheduler's choice).
  int device = -1;
  /// Bytes of the data version this task produces when it crosses a device
  /// or node boundary (0 = derive from the data object's registered bytes).
  /// This is precisely where sender-side conversion (STC) reduces traffic.
  std::size_t wire_bytes = 0;
  /// Storage formats of a CONVERT task (ignored for other kinds).
  Storage conv_from = Storage::FP64;
  Storage conv_to = Storage::FP64;
  /// HBM bytes of receiver-side (TTC) datatype conversions folded into this
  /// task's runtime — the per-consumer conversion cost STC eliminates.
  double extra_conv_bytes = 0.0;
  /// Number of logical conversions those bytes comprise. Each one carries the
  /// same kernel-launch overhead an explicit CONVERT task pays — the exact
  /// fixed cost the STC/TTC comparison amortizes — so the cost model charges
  /// it per conversion, not per byte.
  int extra_conv_count = 0;
  /// Owning rank under sharded (distributed) execution; -1 = unconstrained.
  /// The executor pins rank-tagged tasks to the matching worker shard
  /// (ExecutorSessionOptions::rank_shards).
  int rank = -1;
};

/// A logical datum (a tile). `bytes` is its at-rest footprint; used as the
/// default payload size for transfers of versions whose producer did not
/// override wire_bytes.
struct DataInfo {
  std::string name;
  std::size_t bytes = 0;
  /// Initial placement for simulation (-1 = host).
  int home_device = -1;
  /// The datum's bytes are a tile-codec compressed payload: the simulator
  /// additionally books its transfers under the `sim.bytes.compressed`
  /// link, so replayed compressed wire traffic stays separately
  /// reconcilable (dist/wire.hpp).
  bool compressed_payload = false;
};

struct Task {
  TaskInfo info;
  std::function<void()> body;  // empty for simulation-only graphs
  std::vector<Access> accesses;
  std::vector<TaskId> successors;
  std::uint32_t num_predecessors = 0;
};

/// An edge annotated with the datum that induced it (for transfer modelling).
struct Edge {
  TaskId from = kNoTask;
  TaskId to = kNoTask;
  DataId data = 0;
};

class TaskGraph {
 public:
  /// Register a logical datum and return its handle.
  DataId add_data(DataInfo info);

  /// Insert a task. Dependencies are derived from `accesses` against all
  /// previously inserted tasks (sequential-consistency semantics):
  ///   Read     — depends on the last writer of the datum;
  ///   Write/RW — depends on the last writer and every reader since.
  TaskId add_task(TaskInfo info, std::vector<Access> accesses,
                  std::function<void()> body = nullptr);

  std::size_t num_tasks() const { return tasks_.size(); }
  std::size_t num_data() const { return data_.size(); }
  std::size_t num_edges() const { return edges_.size(); }

  const Task& task(TaskId id) const { return tasks_[id]; }
  Task& task(TaskId id) { return tasks_[id]; }
  const DataInfo& data(DataId id) const { return data_[id]; }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Tasks with no predecessors (the frontier the executor starts from).
  std::vector<TaskId> roots() const;

  /// Current version of a datum (number of writes inserted so far). A task
  /// inserted next that reads `id` observes exactly this version.
  std::uint64_t data_version(DataId id) const { return state_.at(id).version; }

  /// Sanity checks: no dangling ids, indegrees consistent with edges,
  /// graph is acyclic by construction (insertion order is a topological
  /// order — verified). Throws on violation. Intended for tests.
  void validate() const;

 private:
  void link(TaskId from, TaskId to, DataId d);

  struct DataState {
    TaskId last_writer = kNoTask;
    std::vector<TaskId> readers_since_write;
    std::uint64_t version = 0;  // bumped by each Write/ReadWrite insertion
  };

  std::vector<Task> tasks_;
  std::vector<DataInfo> data_;
  std::vector<DataState> state_;
  std::vector<Edge> edges_;
};

}  // namespace mpgeo
