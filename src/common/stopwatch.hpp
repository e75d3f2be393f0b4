// Wall-clock stopwatch for coarse timing in examples and drivers.
// Benchmarks use google-benchmark; this is for human-readable progress output.
#pragma once

#include <chrono>

namespace mpgeo {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Reset the epoch to now.
  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace mpgeo
