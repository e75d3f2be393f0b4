#include "runtime/task_graph.hpp"

#include <algorithm>
#include <set>

#include "common/error.hpp"

namespace mpgeo {

std::string to_string(KernelKind k) {
  switch (k) {
    case KernelKind::POTRF: return "POTRF";
    case KernelKind::TRSM: return "TRSM";
    case KernelKind::SYRK: return "SYRK";
    case KernelKind::GEMM: return "GEMM";
    case KernelKind::CONVERT: return "CONVERT";
    case KernelKind::GENERATE: return "GENERATE";
    case KernelKind::SEND: return "SEND";
    case KernelKind::RECV: return "RECV";
    case KernelKind::CUSTOM: return "CUSTOM";
  }
  MPGEO_ASSERT(false);
  return {};
}

DataId TaskGraph::add_data(DataInfo info) {
  data_.push_back(std::move(info));
  state_.emplace_back();
  return static_cast<DataId>(data_.size() - 1);
}

void TaskGraph::link(TaskId from, TaskId to, DataId d) {
  MPGEO_ASSERT(from < tasks_.size() && to <= tasks_.size());
  MPGEO_ASSERT(from != to);
  // Dedup successor entries (a task may touch several tiles produced by the
  // same predecessor); indegree must match the dedup'd edge count.
  auto& succ = tasks_[from].successors;
  if (std::find(succ.begin(), succ.end(), to) == succ.end()) {
    succ.push_back(to);
    tasks_[to].num_predecessors++;
  }
  edges_.push_back(Edge{from, to, d});
}

TaskId TaskGraph::add_task(TaskInfo info, std::vector<Access> accesses,
                           std::function<void()> body) {
  const TaskId id = static_cast<TaskId>(tasks_.size());
  tasks_.push_back(Task{std::move(info), std::move(body), std::move(accesses),
                        {}, 0});
  for (Access& a : tasks_[id].accesses) {
    MPGEO_REQUIRE(a.data < data_.size(), "add_task: unknown data id");
    DataState& st = state_[a.data];
    switch (a.mode) {
      case AccessMode::Read:
        if (st.last_writer != kNoTask && st.last_writer != id) {
          link(st.last_writer, id, a.data);
        }
        st.readers_since_write.push_back(id);
        a.version = st.version;  // the version this task observes
        break;
      case AccessMode::Write:
      case AccessMode::ReadWrite:
        if (st.last_writer != kNoTask && st.last_writer != id) {
          link(st.last_writer, id, a.data);
        }
        for (TaskId r : st.readers_since_write) {
          if (r != id) link(r, id, a.data);
        }
        st.readers_since_write.clear();
        st.last_writer = id;
        a.version = ++st.version;  // the version this task produces
        break;
    }
  }
  return id;
}

std::vector<TaskId> TaskGraph::roots() const {
  std::vector<TaskId> out;
  for (TaskId t = 0; t < tasks_.size(); ++t) {
    if (tasks_[t].num_predecessors == 0) out.push_back(t);
  }
  return out;
}

void TaskGraph::validate() const {
  std::vector<std::uint32_t> indeg(tasks_.size(), 0);
  std::set<std::pair<TaskId, TaskId>> seen;
  for (const Edge& e : edges_) {
    MPGEO_REQUIRE(e.from < tasks_.size() && e.to < tasks_.size(),
                  "validate: dangling edge endpoint");
    MPGEO_REQUIRE(e.data < data_.size(), "validate: dangling edge datum");
    MPGEO_REQUIRE(e.from < e.to,
                  "validate: edge against insertion order (cycle risk)");
    if (seen.insert({e.from, e.to}).second) indeg[e.to]++;
  }
  for (TaskId t = 0; t < tasks_.size(); ++t) {
    MPGEO_REQUIRE(indeg[t] == tasks_[t].num_predecessors,
                  "validate: indegree mismatch for task " + tasks_[t].info.name);
  }
}

}  // namespace mpgeo
