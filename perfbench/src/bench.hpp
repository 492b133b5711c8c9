// Shared state of one benchmark run: arguments, clocks, sample statistics,
// the metric registry and the outcome tally every checked operation feeds.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double now_s() { return double(now_ns()) * 1e-9; }

/// Nanoseconds per core clock cycle right now: a chain of 16384 dependent
/// register-to-register 64-bit adds (one cycle each on x86-64 cores; an
/// immediate operand would let newer cores fold the adds at rename) timed
/// with the steady clock.
inline double ns_per_cycle_now() {
  constexpr int kBlocks = 256;  // of 64 adds
  std::uint64_t x = 0;
  const std::uint64_t one = 1;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kBlocks; ++i) {
    __asm__ __volatile__(".rept 64\n\tadd %1, %0\n\t.endr" : "+r"(x) : "r"(one));
  }
  return double(now_ns() - t0) / (64.0 * kBlocks);
}

/// The fastest core clock seen in a run.  The gated timings are converted
/// to cycles at it: the host's clock moves by up to 15% with its other
/// tenants' load for minutes at a time (perfbench/README.md).  Sampled
/// before every timed call, on the calling thread.
class CoreClock {
 public:
  void sample() {
    const double ns = ns_per_cycle_now();
    if (best_ns_ == 0.0 || ns < best_ns_) best_ns_ = ns;
  }
  [[nodiscard]] double cycles(double seconds) const { return seconds * 1e9 / best_ns_; }
  [[nodiscard]] double ghz() const { return best_ns_ > 0.0 ? 1.0 / best_ns_ : 0.0; }

 private:
  double best_ns_ = 0.0;
};

/// Median of a sample (0 for an empty one).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Percentile q in [0, 100] with linear interpolation between ranks.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

/// What happened to one checked operation.
enum class Outcome {
  kOk,         ///< completed and its output passed the check
  kFlagged,    ///< the library reported it uncorrectable (detected, not silent)
  kWrong,      ///< an unprotected call produced a wrong output
  kSilent,     ///< a clean FT report with a wrong output
  kRejected,   ///< refused by the service (or no free client buffer)
  kSloMissed,  ///< correct, but later than the latency limit
};

/// Operation outcomes of a run.  `failed_frac` counts every outcome but
/// kOk; the result line's `failed` counts only wrong outputs (kWrong and
/// kSilent), which a correct library never produces.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t flagged = 0;
  std::int64_t wrong = 0;
  std::int64_t silent = 0;
  std::int64_t rejected = 0;
  std::int64_t slo_missed = 0;

  void add(Outcome o) {
    ++attempted;
    switch (o) {
      case Outcome::kOk: break;
      case Outcome::kFlagged: ++flagged; break;
      case Outcome::kWrong: ++wrong; break;
      case Outcome::kSilent: ++silent; break;
      case Outcome::kRejected: ++rejected; break;
      case Outcome::kSloMissed: ++slo_missed; break;
    }
  }
  [[nodiscard]] std::int64_t wrong_outputs() const { return wrong + silent; }
  [[nodiscard]] std::int64_t not_ok() const {
    return flagged + wrong + silent + rejected + slo_missed;
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string source_sha = "unknown";
  std::string trace_out;  ///< span dump written at exit (trace runs only)
};

/// Everything a workload reads and writes.
struct Run {
  Args args;
  Tally tally;
  CoreClock clock;
  /// Measured values by metric name (units live in metrics.hpp).
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  /// Cache sizes the host calibration ran against (traced runs only).
  struct HostSizes {
    double l2_mib = 0.0, llc_mib = 0.0, dram_array_mib = 0.0;
  } host_sizes;

  void set_e2e(const std::string& name, double v) { e2e[name] = v; }
  void set_layer(const std::string& name, double v) { layer[name] = v; }
  /// Seconds of the run's measuring budget, scaled by a workload's share.
  [[nodiscard]] double budget(double share) const {
    return args.seconds * share;
  }
};

}  // namespace pb
