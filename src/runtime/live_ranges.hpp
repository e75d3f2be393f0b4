// Per-datum live ranges over a TaskGraph.
//
// Insertion order is a topological order (task_graph.hpp), so a datum's
// lifetime during execution is bracketed by the smallest and largest task id
// that declares an access on it. The out-of-core pager
// (core/shared_pager.hpp) uses the access count to spill a tile the moment
// its last consumer retires (the per-tile user lists it builds alongside
// rank cold-eviction victims by next use), and mp_cholesky uses it to free a
// tile's operand packs at the same moment. The analysis is exact on the
// graph (every access is declared), O(total accesses), and schedule-
// independent: every run retires exactly the declared consumer set.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/task_graph.hpp"

namespace mpgeo {

struct DataLiveRange {
  TaskId first_use = kNoTask;  ///< smallest task id accessing the datum
  TaskId last_use = kNoTask;   ///< largest task id accessing the datum
  std::uint32_t uses = 0;      ///< number of tasks accessing the datum
  bool live() const { return uses != 0; }
};

/// One entry per datum in `graph`, indexed by DataId. A task accessing the
/// same datum through several Access entries counts once.
std::vector<DataLiveRange> compute_live_ranges(const TaskGraph& graph);

/// Call `f(data)` once per distinct datum `t` accesses, in declaration order
/// — the unit `uses` counts: a task may declare a datum twice (e.g. Read +
/// Write instead of ReadWrite), but it retires once.
template <class F>
void for_each_distinct_datum(const Task& t, F&& f) {
  for (std::size_t i = 0; i < t.accesses.size(); ++i) {
    const DataId d = t.accesses[i].data;
    bool dup = false;
    for (std::size_t j = 0; j < i && !dup; ++j) dup = t.accesses[j].data == d;
    if (!dup) f(d);
  }
}

}  // namespace mpgeo
