// Deterministic, platform-independent random number generation.
//
// Monte-Carlo experiments in the paper (Figs 5/6) need reproducible synthetic
// datasets. std::mt19937 is portable but std::normal_distribution is not
// (implementations differ), so we provide our own xoshiro256++ generator and
// explicit uniform/normal transforms whose output is identical everywhere.
#pragma once

#include <cstdint>
#include <vector>

namespace mpgeo {

/// xoshiro256++ PRNG (Blackman & Vigna). Fast, 256-bit state, passes BigCrush.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, 1) with 53-bit resolution.
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Marsaglia polar method (deterministic given state).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Split off an independent stream (jump-free: reseeds from splitmix64 of
  /// the current state plus `stream_id`). Used to give each Monte-Carlo
  /// replica its own generator without correlation.
  Rng spawn(std::uint64_t stream_id);

 private:
  std::uint64_t s_[4];
  bool have_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace mpgeo
