// The metric catalogue: every metric the benchmark prints, with its unit and
// direction.  BENCHMARK.json lists the same names (`perfbench --list-metrics`
// prints this table); a run fails if a workload leaves an end-to-end metric
// unset.
#pragma once

#include <string>
#include <vector>

#include "config.hpp"
#include "trace.hpp"

namespace pb {

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;  ///< "higher" or "lower"
};

inline std::vector<MetricDef> end_to_end_metrics() {
  return {
      {"ft_flop_per_cycle_f64_nt1", "flop/cycle", "higher"},
      {"ori_flop_per_cycle_f64_nt1", "flop/cycle", "higher"},
      {"ft_flop_per_cycle_f32_nt1", "flop/cycle", "higher"},
      {"ft_flop_per_cycle_bf16_nt1", "flop/cycle", "higher"},
      {"ft_op_per_cycle_i8_nt1", "op/cycle", "higher"},
      {"lat_best_kcycles", "kcycles", "lower"},
      {"max_rps_slo", "req/s", "higher"},
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MiB", "lower"},
  };
}

inline std::vector<MetricDef> per_layer_metrics() {
  std::vector<MetricDef> m = {
      {"host.peak_gflops_f64", "GFLOP/s", "higher"},
      {"host.peak_gflops_f32", "GFLOP/s", "higher"},
      {"host.peak_gops_i8", "GOP/s", "higher"},
      {"host.bw_l2_gbs", "GB/s", "higher"},
      {"host.bw_dram_gbs", "GB/s", "higher"},
      {"host.clock_ghz", "GHz", "higher"},
      {"kernels.base_gflops_f64", "GFLOP/s", "higher"},
      {"kernels.ft_gflops_f64", "GFLOP/s", "higher"},
      {"kernels.base_gflops_f32", "GFLOP/s", "higher"},
      {"kernels.ft_gflops_f32", "GFLOP/s", "higher"},
      {"kernels.ft_gops_i8", "GOP/s", "higher"},
      {"kernels.frac_peak_f64", "ratio", "higher"},
      {"kernels.frac_peak_i8", "ratio", "higher"},
      {"pack.a_ft_gbs_f64", "GB/s", "higher"},
      {"pack.b_ft_gbs_f64", "GB/s", "higher"},
      {"pack.checksum_pct_f64", "%", "lower"},
      {"pack.a_ft_gbs_bf16", "GB/s", "higher"},
      {"pack.a_ft_gbs_i8", "GB/s", "higher"},
      {"pack.b_ft_gbs_i8", "GB/s", "higher"},
      {"abft.ft_overhead_pct.f64_nt1", "%", "lower"},
      {"abft.ft_overhead_pct.f64_nt2", "%", "lower"},
      {"abft.ft_overhead_pct.f32", "%", "lower"},
      {"abft.ft_overhead_pct.bf16", "%", "lower"},
      {"abft.ft_overhead_pct.i8", "%", "lower"},
      {"abft.false_positives", "count", "lower"},
      {"abft.injected", "count", "higher"},
      {"abft.detected", "count", "higher"},
      {"abft.corrected", "count", "higher"},
      {"abft.uncorrectable_panels", "count", "lower"},
      {"abft.retries", "count", "lower"},
      {"abft.undelivered", "count", "lower"},
      {"abft.corrected_per_injected", "ratio", "higher"},
      {"abft.correct_us_per_error", "us", "lower"},
      {"abft.storm_clean_ms_p50", "ms", "lower"},
      {"abft.paper_flagged_calls", "count", "lower"},
      {"abft.storm_flagged_calls", "count", "lower"},
      {"plan.build_us", "us", "lower"},
      {"plan.hit_ns", "ns", "lower"},
      {"plan.hits", "count", "higher"},
      {"plan.misses", "count", "lower"},
      {"opcache.encode_ms", "ms", "lower"},
      {"opcache.verify_us", "us", "lower"},
      {"opcache.hits", "count", "higher"},
      {"opcache.misses", "count", "lower"},
      {"opcache.verifies", "count", "higher"},
      {"opcache.heals", "count", "lower"},
      {"opcache.bytes", "bytes", "lower"},
      {"core.call_us_p50", "us", "lower"},
      {"core.call_us_p99", "us", "lower"},
      {"runtime.dispatch_us", "us", "lower"},
      {"runtime.ft_flop_per_cycle_f64_nt2", "flop/cycle", "higher"},
      {"runtime.ori_flop_per_cycle_f64_nt2", "flop/cycle", "higher"},
      {"runtime.scaling_eff_nt2", "ratio", "higher"},
      {"runtime.ft_gflops_f64_nt4", "GFLOP/s", "higher"},
      {"runtime.ft_gflops_f64_nt4_min", "GFLOP/s", "higher"},
      {"serve.inline_frac", "ratio", "higher"},
      {"serve.coalesce_size", "requests", "higher"},
      {"serve.steals", "count", "higher"},
      {"serve.peak_queue_depth", "count", "lower"},
      {"serve.rejected", "count", "lower"},
      {"serve.gen_lag_ms_p99", "ms", "lower"},
      {"serve.overhead_us_p50", "us", "lower"},
  };
  for (std::size_t r = 0; r < cfg::kLadderRps.size(); ++r) {
    const std::string s = ".r" + std::to_string(r);
    m.push_back({"serve.sent" + s, "count", "higher"});
    m.push_back({"serve.succeeded" + s, "count", "higher"});
    m.push_back({"serve.failed" + s, "count", "lower"});
    m.push_back({"serve.lat_p50_ms" + s, "ms", "lower"});
    m.push_back({"serve.lat_p99_ms" + s, "ms", "lower"});
    m.push_back({"serve.backlog_end" + s, "count", "lower"});
  }
  m.push_back({"trace.overhead_pct", "%", "lower"});
  for (const char* layer : kLayers)
    m.push_back({std::string("trace.self_ms.") + layer, "ms", "lower"});
  m.push_back({"failed_frac", "ratio", "lower"});
  return m;
}

}  // namespace pb
