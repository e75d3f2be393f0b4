#include "runtime/live_ranges.hpp"

namespace mpgeo {

std::vector<DataLiveRange> compute_live_ranges(const TaskGraph& graph) {
  std::vector<DataLiveRange> ranges(graph.num_data());
  for (TaskId id = 0; id < graph.num_tasks(); ++id) {
    for_each_distinct_datum(graph.task(id), [&](DataId d) {
      DataLiveRange& r = ranges[d];
      if (r.uses == 0) r.first_use = id;
      r.last_use = id;  // ids ascend, so the last update wins
      r.uses += 1;
    });
  }
  return ranges;
}

}  // namespace mpgeo
