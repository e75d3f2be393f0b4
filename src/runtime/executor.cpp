#include "runtime/executor.hpp"

#include <algorithm>
#include <thread>

#include "runtime/executor_session.hpp"

namespace mpgeo {

ExecutionReport execute(const TaskGraph& graph, const ExecutorOptions& options) {
  if (graph.num_tasks() == 0) return {};
  if (options.session) return options.session->run(graph, options);
  // A dedicated session for this call, never larger than the graph.
  std::size_t n = options.num_threads;
  if (n == 0) n = std::thread::hardware_concurrency();
  ExecutorSessionOptions dedicated;
  dedicated.num_threads = std::min(n, graph.num_tasks());
  dedicated.rank_shards = options.rank_shards;
  dedicated.metrics = options.metrics;
  ExecutorSession session(dedicated);
  return session.run(graph, options);
}

}  // namespace mpgeo
