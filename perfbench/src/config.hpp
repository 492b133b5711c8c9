// Constants that define the benchmark.  Changing any of them changes what
// the benchmark measures, so it is a change to the benchmark, made on its
// own and re-baselined (perfbench/README.md).
#pragma once

#include <array>
#include <cstdint>

namespace pb::cfg {

// dense: clean square GEMMs, Ori and FT interleaved.  512^3 keeps each
// call at a few milliseconds, short enough for its best call to land in a
// moment the host's other tenants leave the core alone (perfbench/README.md).
inline constexpr std::int64_t kDenseN = 512;
// inject paper phase: square GEMMs with a fixed error count per call.  At
// 512^3, 20 errors per call now and then leave a panel uncorrectable in one
// pass and force a retry; at 1024^3 every error is corrected.
inline constexpr std::int64_t kInjectN = 1024;
inline constexpr int kPaperErrors = 20;
// The closed-loop latency stream of dense (clean) and inject (storm).
inline constexpr std::int64_t kStreamM = 192, kStreamN = 192, kStreamK = 512;
inline constexpr std::array<int, 4> kStormErrors = {10, 20, 40, 60};

// serve: resident weights (m x k) and the general-path request.
inline constexpr std::array<std::int64_t, 2> kWeightM = {128, 256};
inline constexpr std::array<std::int64_t, 2> kWeightK = {128, 256};
inline constexpr std::array<std::int64_t, 3> kActivationN = {16, 32, 64};
inline constexpr int kActivationPool = 8;  ///< activations per (weight, n)
inline constexpr std::int64_t kGeneralN = 512;
inline constexpr int kGeneralThreads = 2;
inline constexpr int kGeneralEvery = 10;  ///< one request in ten
inline constexpr int kServiceShards = 2;

// Open-loop offered load, requests per second, light to past saturation.
// On the 4-core host the ladder was fixed on, 1000 req/s met the limit in
// every run and 8000 req/s overflowed the queues in every run; 2000 and
// 4000 req/s passed or failed with the host's background load, which would
// make max_rps_slo flip between runs, so they are not steps.
inline constexpr std::array<double, 4> kLadderRps = {250, 500, 1000, 8000};
/// Each step's share of the ladder's time.  The nominal step, the highest
/// that meets the limit, gets the most samples: its p99 then misses only if
/// the host stalls the process for more than about 160 ms on a 30-s run.
/// The saturated step gets only enough to show the overflow.
inline constexpr std::array<double, 4> kStepShare = {0.1, 0.2, 0.6, 0.1};
inline constexpr int kNominalStep = 2;  ///< serve.overhead_us_p50 step
inline constexpr double kLatencyLimitMs = 50.0;  ///< p99 limit per step

/// Cold set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 61;

}  // namespace pb::cfg
