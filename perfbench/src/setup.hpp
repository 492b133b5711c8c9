// setup_s: the one-off work a process pays before its first useful call —
// plan builds, workspace allocation and first touch, resident encodes and
// service start — measured by redoing it from cold caches several times
// and taking the median.  Input generation is not part of it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace pb {

enum class Dtype { kF64, kF32, kBf16, kI8 };

struct SetupShape {
  Dtype dtype;
  std::int64_t m, n, k;
  int threads;
};

/// Median seconds over `reps` of: clear the process caches, build the FT
/// and Ori plans of every shape through the process plan cache, size and
/// first-touch a fresh workspace for each FT plan, then run `extra` (the
/// workload's own set-up, e.g. resident encodes and service start).
double measure_setup(const std::vector<SetupShape>& shapes,
                     const std::function<void()>& extra, int reps);

}  // namespace pb
