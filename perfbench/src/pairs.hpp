// The two closed-loop building blocks of the dense and inject workloads.
//
// A PairCase is one precision / thread-count configuration of a square
// GEMM: an Ori call and an FT call on the same operands, run back to back
// (the order alternates per round), each timed and checked.  With
// `errors > 0` the FT call runs through the *_reliable entry point with a
// CountInjector striking that many errors per call.
//
// A Stream is the closed-loop latency stream: 192x192x512 fp64 FT calls at
// nt=1 through ft_dgemm_reliable, each due the moment the previous one
// returned, with a per-call error count taken from a seeded schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/options.hpp"

namespace pb {

/// Fault-tolerance counters summed over the FT calls of a case or stream.
struct AbftCounts {
  std::int64_t calls = 0;
  std::int64_t injected = 0;     ///< errors scheduled, over every attempt
  std::int64_t detected = 0;
  std::int64_t corrected = 0;
  std::int64_t uncorrectable = 0;  ///< panels flagged uncorrectable
  std::int64_t retries = 0;
  std::int64_t undelivered = 0;  ///< scheduled but never struck (last attempt)
  std::int64_t flagged_calls = 0;

  void add(const ftgemm::FtReport& rep, int errors, std::size_t undelivered_now);
};

struct PairCase {
  std::string label;  ///< f64_nt1, f64_nt2, f64_nt4, f32, bf16, i8
  double flops = 0.0;
  int errors = 0;
  bool ft_only = false;  ///< no Ori call (the nt=4 runtime probe)
  std::function<void()> ori;
  std::function<ftgemm::FtReport()> ft;
  std::function<Outcome()> check_ori;
  std::function<Outcome(const ftgemm::FtReport&)> check_ft;
  std::function<double()> ft_error;  ///< max relative error of the FT result
  std::function<std::size_t()> undelivered;
  std::vector<double> t_ori, t_ft;
  AbftCounts abft;
  std::shared_ptr<void> data;  ///< operands and results the closures use
};

/// One case: `label` is f64_nt1, f64_nt2, f64_nt4, f32, bf16 or i8.
PairCase make_pair(const std::string& label, std::int64_t n, int errors,
                   std::uint64_t seed);
/// The five precision cases (fp64 at nt=1 and 2, fp32, bf16, int8) of an
/// n^3 problem, plus an FT-only fp64 nt=4 case when `with_nt4`.  Only the
/// fp64 cases get `f64_errors` injected errors per FT call.
std::vector<PairCase> make_pairs(std::int64_t n, int f64_errors,
                                 std::uint64_t seed, bool with_nt4);

/// One untimed call of each side (plans, workspaces and references warm).
void warm_pair(PairCase& c, Run& run);
/// One timed and checked Ori + FT pair of a case.
void run_pair(PairCase& c, bool ft_first, Run& run);

/// Work completed per second by a case's median timed call (0 when it has
/// no samples).
double gflops(const PairCase& c, bool ft);
/// Operations per core cycle of a case's best timed call, at the run's
/// fastest clock (0 when it has no samples).
double best_per_cycle(const PairCase& c, bool ft, const CoreClock& clock);

/// Report the cases' throughput, FT overhead and scaling metrics.
void report_pairs(Run& run, const std::vector<PairCase>& cases);

class Stream {
 public:
  /// `storm`: draw 10/20/40/60 errors per call in seeded balanced blocks,
  /// and time one clean call after every four storm calls.
  Stream(std::uint64_t seed, bool storm);
  ~Stream();
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  /// Run `calls` stream calls (timed into lat_ms, checked into the tally).
  void run(int calls, Run& run, bool traced_half = false);
  /// Drop the samples and counters (after warm-up calls).
  void clear();

  std::vector<double> lat_ms;        ///< per stream call
  std::vector<int> lat_errors;       ///< errors injected into each of them
  std::vector<double> clean_ms;      ///< storm runs only: interleaved clean calls
  std::vector<double> traced_ms, untraced_ms;  ///< trace-overhead split
  AbftCounts abft;

  /// Report lat_best_kcycles (the fastest call per error level, averaged
  /// over the levels), max_rps_slo (the calls/s that average allows),
  /// core.call_us_p50 / _p99 and, on a traced run, trace.overhead_pct.
  void report(Run& run) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pb
