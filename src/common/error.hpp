// Error handling primitives for the mpgeo library.
//
// Recoverable, caller-facing failures throw mpgeo::Error (invalid arguments,
// non-SPD matrices, failed convergence). Internal invariant violations use
// MPGEO_ASSERT, which aborts with a location message — per the C++ Core
// Guidelines (E.12, I.4) we never return error codes from deep call stacks.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace mpgeo {

/// Exception type for all recoverable mpgeo failures.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

[[noreturn]] void throw_error(const char* file, int line, const std::string& msg);
[[noreturn]] void assert_fail(const char* file, int line, const char* expr);

/// Throw mpgeo::Error when `cond` is false. Use for argument validation.
#define MPGEO_REQUIRE(cond, msg)                                   \
  do {                                                             \
    if (!(cond)) ::mpgeo::throw_error(__FILE__, __LINE__, (msg));  \
  } while (0)

/// Abort on internal invariant violation. Enabled in all build types:
/// a silent out-of-bounds in a numerical kernel is worse than a crash.
#define MPGEO_ASSERT(cond)                                         \
  do {                                                             \
    if (!(cond)) ::mpgeo::assert_fail(__FILE__, __LINE__, #cond);  \
  } while (0)

}  // namespace mpgeo
