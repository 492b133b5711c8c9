// perfbench: the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload dense|inject|serve --seed N --seconds S --trace 0|1
//             [--source-sha HEX] [--trace-out PATH]
//   perfbench --list-metrics
//
// Prints a provenance line, then as its last line one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics on an
// untraced run, the per-layer metrics on a traced run.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "arch/cpu_features.hpp"
#include "arch/isa.hpp"
#include "config.hpp"
#include "core/context.hpp"
#include "metrics.hpp"
#include "runtime/topology.hpp"
#include "trace.hpp"
#include "workloads.hpp"

extern char** environ;

namespace pb {
namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload dense|inject|serve "
               "--seed N --seconds S --trace 0|1 [--source-sha HEX] "
               "[--trace-out PATH]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") a.seconds = std::strtod(val.c_str(), nullptr);
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--source-sha") a.source_sha = val;
    else if (key == "--trace-out") a.trace_out = val;
    else usage(("unknown argument " + key).c_str());
  }
  if (a.workload != "dense" && a.workload != "inject" && a.workload != "serve")
    usage("--workload must be dense, inject or serve");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

/// The benchmark runs the library with its defaults: any FTGEMM_* or OMP_*
/// setting would tune away what it is meant to show.
void refuse_overrides() {
  bool found = false;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "FTGEMM_", 7) == 0 || std::strncmp(*e, "OMP_", 4) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
      found = true;
    }
  }
  if (found) std::exit(2);
}

struct CacheCounters {
  double plan_hits = 0, plan_misses = 0;
  double hits = 0, misses = 0, verifies = 0, heals = 0, bytes = 0;
};

template <typename S, typename C = S>
void add_counters(CacheCounters& c) {
  auto& cache = ftgemm::process_context_cache<S, C>();
  c.plan_hits += double(cache.plan_hits());
  c.plan_misses += double(cache.plan_misses());
  const ftgemm::OperandCacheStats st = cache.operands().stats();
  c.hits += double(st.hits);
  c.misses += double(st.misses);
  c.verifies += double(st.verifies);
  c.heals += double(st.heals);
  c.bytes += double(st.bytes);
}

CacheCounters counters() {
  CacheCounters c;
  add_counters<double>(c);
  add_counters<float>(c);
  add_counters<ftgemm::bf16_t, float>(c);
  add_counters<std::int8_t, std::int32_t>(c);
  return c;
}

void print_provenance(const Run& run) {
  std::string ladder;
  for (double r : cfg::kLadderRps) ladder += (ladder.empty() ? "" : ",") + std::to_string(int(r));
  const ftgemm::RuntimeBackend be =
      ftgemm::runtime::resolve_backend(ftgemm::RuntimeBackend::kAuto);
  std::printf(
      "{\"provenance\": {\"source_sha256\": \"%s\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d, \"isa\": \"%s\", "
      "\"cpu_features\": \"%s\", \"nproc\": %u, \"omp_max_threads\": %d, "
      "\"runtime_backend\": \"%s\", \"ladder_rps\": [%s], "
      "\"latency_limit_ms\": %g, \"nominal_step\": %d, \"clock_ghz\": %.4f, "
      "\"l2_mib\": %g, \"llc_mib\": %g, \"dram_triad_array_mib\": %g}}\n",
      run.args.source_sha.c_str(), run.args.workload.c_str(),
      static_cast<unsigned long long>(run.args.seed), run.args.seconds,
      int(run.args.trace), std::string(ftgemm::isa_name(ftgemm::select_isa())).c_str(),
      ftgemm::cpu_feature_string().c_str(), std::thread::hardware_concurrency(),
      ftgemm::runtime::hardware_concurrency(),
      be == ftgemm::RuntimeBackend::kPool ? "pool" : "openmp", ladder.c_str(),
      cfg::kLatencyLimitMs, cfg::kNominalStep, run.clock.ghz(), run.host_sizes.l2_mib,
      run.host_sizes.llc_mib, run.host_sizes.dram_array_mib);
}

int list_metrics() {
  for (const MetricDef& m : end_to_end_metrics())
    std::printf("end_to_end %s %s %s\n", m.name.c_str(), m.unit.c_str(), m.better.c_str());
  for (const MetricDef& m : per_layer_metrics())
    std::printf("per_layer %s %s %s\n", m.name.c_str(), m.unit.c_str(), m.better.c_str());
  return 0;
}

int run_main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) return list_metrics();
  Run run;
  run.args = parse(argc, argv);
  refuse_overrides();
  // Per-layer metrics a workload does not exercise read 0.
  for (const MetricDef& m : per_layer_metrics()) run.set_layer(m.name, 0.0);

  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(run.args.trace);
  if (run.args.trace) {
    run_host_calibration(run);
    run_probes(run);
  }
  const CacheCounters before = counters();
  if (run.args.workload == "dense") run_dense(run);
  else if (run.args.workload == "inject") run_inject(run);
  else run_serve(run);
  const CacheCounters after = counters();
  tracer.set_enabled(false);

  run.set_layer("plan.hits", after.plan_hits - before.plan_hits);
  run.set_layer("plan.misses", after.plan_misses - before.plan_misses);
  run.set_layer("opcache.hits", after.hits - before.hits);
  run.set_layer("opcache.misses", after.misses - before.misses);
  run.set_layer("opcache.verifies", after.verifies - before.verifies);
  run.set_layer("opcache.heals", after.heals - before.heals);
  run.set_layer("opcache.bytes", after.bytes);
  run.set_layer("host.clock_ghz", run.clock.ghz());
  if (run.args.trace) {
    for (const auto& [layer, ms] : tracer.self_ms_by_layer())
      run.set_layer("trace.self_ms." + layer, ms);
    if (!run.args.trace_out.empty() && !tracer.write_json(run.args.trace_out))
      std::fprintf(stderr, "perfbench: could not write %s\n", run.args.trace_out.c_str());
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  run.set_e2e("peak_rss_mb", double(ru.ru_maxrss) / 1024.0);
  const Tally& t = run.tally;
  run.set_layer("failed_frac", t.attempted > 0 ? double(t.not_ok()) / double(t.attempted) : 0.0);

  print_provenance(run);
  std::fprintf(stderr,
               "perfbench: attempted %lld, flagged %lld, wrong %lld, silent %lld, "
               "rejected %lld, slo_missed %lld\n",
               static_cast<long long>(t.attempted), static_cast<long long>(t.flagged),
               static_cast<long long>(t.wrong), static_cast<long long>(t.silent),
               static_cast<long long>(t.rejected), static_cast<long long>(t.slo_missed));

  const auto& table = run.args.trace ? run.layer : run.e2e;
  const std::vector<MetricDef> defs =
      run.args.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string metrics;
  for (const MetricDef& d : defs) {
    const auto it = table.find(d.name);
    if (it == table.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", d.name.c_str());
      return 1;
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", d.name.c_str(), it->second,
                  d.unit.c_str());
    metrics += buf;
  }
  // A wrong output fails the run through `correct`; the run itself completed.
  const bool correct = t.wrong_outputs() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(t.attempted),
              static_cast<long long>(t.wrong_outputs()), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  try {
    return pb::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
