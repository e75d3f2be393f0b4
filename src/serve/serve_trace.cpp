// Chrome/Perfetto export of per-fit serving spans (fit_server.hpp).
//
// Same schema conventions as obs/trace.cpp — X complete events, fixed-point
// microsecond timestamps, \u00XX control-character escaping — so a fit-span
// trace loads in the same viewer (and alongside an executor trace of the
// same run, on its own "fit-server" process track). One thread track per
// driver slot; categories FIT / SHED / FAILED color outcomes apart; a
// serve.queue_depth counter track is derived from the submit/start edges.
#include <algorithm>
#include <fstream>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/json.hpp"
#include "serve/fit_server.hpp"

namespace mpgeo {
namespace {

const char* outcome_category(FitOutcome o) {
  switch (o) {
    case FitOutcome::Ok:
      return "FIT";
    case FitOutcome::Shed:
      return "SHED";
    case FitOutcome::Error:
      return "FAILED";
  }
  return "FIT";
}

}  // namespace

void write_fit_spans_chrome_trace(const std::vector<FitSpan>& spans,
                                  std::ostream& os,
                                  const FitTraceCounters& extra_counters) {
  os << "{\"traceEvents\": [";
  bool first = true;
  const auto begin = [&] {
    os << (first ? "\n  " : ",\n  ");
    first = false;
  };

  os << "\n  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
        "\"args\": {\"name\": \"fit-server\"}}";
  first = false;

  std::set<std::size_t> slots;
  for (const FitSpan& s : spans) {
    if (s.outcome != FitOutcome::Shed) slots.insert(s.slot);
  }
  for (std::size_t slot : slots) {
    begin();
    os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": "
       << slot << ", \"args\": {\"name\": \"slot" << slot << "\"}}";
  }

  for (const FitSpan& s : spans) {
    const std::string name = "fit" + std::to_string(s.fit_id) +
                             (s.tenant.empty() ? "" : " [" + s.tenant + "]") +
                             " " + to_string(s.priority);
    // Shed spans are instant (start == end); a 0-duration X event still
    // renders as a tick mark on the slot-0 track.
    begin();
    os << "{\"name\": \"" << json_escape(name) << "\", \"cat\": \""
       << outcome_category(s.outcome) << "\", \"ph\": \"X\", \"ts\": "
       << trace_us(s.start_seconds)
       << ", \"dur\": " << trace_us(s.end_seconds - s.start_seconds)
       << ", \"pid\": 0, \"tid\": " << s.slot << "}";
  }

  // Queue depth over time: +1 at each admission, -1 when a driver picks the
  // fit up (or immediately, for shed fits), sampled at every transition.
  std::vector<std::pair<double, int>> deltas;
  deltas.reserve(2 * spans.size());
  for (const FitSpan& s : spans) {
    deltas.emplace_back(s.submit_seconds, +1);
    deltas.emplace_back(s.start_seconds, -1);
  }
  std::sort(deltas.begin(), deltas.end());
  int depth = 0;
  for (const auto& [t, d] : deltas) {
    depth += d;
    begin();
    os << "{\"name\": \"serve.queue_depth\", \"ph\": \"C\", \"pid\": 0, "
          "\"ts\": "
       << trace_us(t) << ", \"args\": {\"fits\": " << depth << "}}";
  }

  // Caller-provided counter tracks (e.g. the shared pager's global
  // residency), same schema as TraceExportOptions::extra_counters.
  for (const auto& [name, samples] : extra_counters) {
    for (const auto& [t, v] : samples) {
      begin();
      os << "{\"name\": \"" << json_escape(name)
         << "\", \"ph\": \"C\", \"pid\": 0, \"ts\": " << trace_us(t)
         << ", \"args\": {\"value\": " << v << "}}";
    }
  }

  os << (first ? "]}\n" : "\n]}\n");
}

void write_fit_spans_chrome_trace_file(const std::vector<FitSpan>& spans,
                                       const std::string& path,
                                       const FitTraceCounters& extra_counters) {
  std::ofstream out(path);
  MPGEO_REQUIRE(out.good(),
                "write_fit_spans_chrome_trace_file: cannot open " + path);
  write_fit_spans_chrome_trace(spans, out, extra_counters);
}

}  // namespace mpgeo
