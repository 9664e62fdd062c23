// Invariant checking that stays on in release builds.
//
// The simulator is a scientific instrument: a silently-corrupted invariant
// (a lost flit, a negative credit count) poisons every number downstream.
// NOCSIM_CHECK therefore aborts with a message in all build types; the
// hot-path variant NOCSIM_DCHECK compiles out in NDEBUG builds.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace nocsim::detail {
[[noreturn]] inline void check_failed(const char* expr, const char* file, int line,
                                      const char* msg) {
  std::fprintf(stderr, "nocsim invariant violated: %s\n  at %s:%d\n  %s\n", expr, file, line,
               msg ? msg : "");
  std::abort();
}
}  // namespace nocsim::detail

#define NOCSIM_CHECK(expr)                                                  \
  do {                                                                      \
    if (!(expr)) ::nocsim::detail::check_failed(#expr, __FILE__, __LINE__, nullptr); \
  } while (0)

#define NOCSIM_CHECK_MSG(expr, msg)                                         \
  do {                                                                      \
    if (!(expr)) ::nocsim::detail::check_failed(#expr, __FILE__, __LINE__, (msg)); \
  } while (0)

#ifdef NDEBUG
#define NOCSIM_DCHECK(expr) ((void)0)
#else
#define NOCSIM_DCHECK(expr) NOCSIM_CHECK(expr)
#endif
