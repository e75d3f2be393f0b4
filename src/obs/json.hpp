// JSON formatting shared by every writer in the repo: the metrics dump, the
// executor trace (obs/trace.cpp), the serving-span trace (serve/serve_trace)
// and the bench --json dumps. Header-only, so libraries that do not link the
// trace exporter (mpgeo_serve) reach the same definitions.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace mpgeo {

/// JSON string escape. Quotes and backslashes are backslash-escaped and
/// control characters become \u00XX escapes, so no name can break the
/// document.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (u < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", u);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Trace timestamp: seconds as microseconds in fixed-point notation.
/// operator<<(double) uses 6 significant digits, which truncates microsecond
/// timestamps past ~1 s of run time (1.23457e+06) and reorders events in the
/// viewer; three decimals keep nanosecond resolution at any run length.
inline std::string trace_us(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", seconds * 1e6);
  return buf;
}

}  // namespace mpgeo
