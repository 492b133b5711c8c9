#include "pairs.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "calls.hpp"
#include "check.hpp"
#include "config.hpp"
#include "inject/injectors.hpp"
#include "trace.hpp"
#include "util/aligned_buffer.hpp"

namespace pb {

void AbftCounts::add(const ftgemm::FtReport& rep, int errors,
                     std::size_t undelivered_now) {
  ++calls;
  injected += std::int64_t(errors) * (1 + rep.retries);
  detected += rep.errors_detected;
  corrected += rep.errors_corrected;
  uncorrectable += rep.uncorrectable_panels;
  retries += rep.retries;
  undelivered += std::int64_t(undelivered_now);
  flagged_calls += rep.clean() ? 0 : 1;
}

namespace {

template <typename S>
struct Operands {
  using C = OutT<S>;
  index_t n;
  ftgemm::AlignedBuffer<S> a, b;
  ftgemm::AlignedBuffer<C> c_ori, c_ft;
  ftgemm::AlignedBuffer<float> ref;  ///< bf16 only: widened fp32 reference
  std::unique_ptr<ftgemm::CountInjector> injector;

  Operands(index_t n_, std::uint64_t seed)
      : n(n_), a(std::size_t(n_ * n_)), b(std::size_t(n_ * n_)),
        c_ori(std::size_t(n_ * n_)), c_ft(std::size_t(n_ * n_)) {
    fill(a.data(), a.size(), seed);
    fill(b.data(), b.size(), seed + 1);
    std::fill(c_ori.data(), c_ori.data() + c_ori.size(), C(0));
    std::fill(c_ft.data(), c_ft.data() + c_ft.size(), C(0));
    if constexpr (std::is_same_v<S, bf16_t>) {
      ftgemm::AlignedBuffer<float> wa(a.size()), wb(b.size());
      for (std::size_t i = 0; i < a.size(); ++i) wa[i] = float(a[i]);
      for (std::size_t i = 0; i < b.size(); ++i) wb[i] = float(b[i]);
      ref.reset(std::size_t(n * n));
      call_ori<float>(n, n, n, wa.data(), n, wb.data(), n, ref.data(), n, {});
    }
  }
};

template <typename S>
PairCase make_case(const std::string& label, index_t n, int threads,
                   int errors, std::uint64_t seed) {
  using C = OutT<S>;
  auto d = std::make_shared<Operands<S>>(n, seed);
  Options o;
  o.threads = threads;
  Options oft = o;
  if (errors > 0) {
    d->injector = std::make_unique<ftgemm::CountInjector>(errors, seed + 7);
    oft.injector = d->injector.get();
  }
  const bool reliable = errors > 0;
  const double tol = result_tolerance<S>(n, errors > 0);
  PairCase c;
  c.label = label;
  c.flops = 2.0 * double(n) * double(n) * double(n);
  c.errors = errors;
  c.data = d;
  Operands<S>* p = d.get();
  c.ori = [p, o] {
    call_ori<S>(p->n, p->n, p->n, p->a.data(), p->n, p->b.data(), p->n,
                p->c_ori.data(), p->n, o);
  };
  c.ft = [p, oft, reliable] {
    return call_ft<S>(p->n, p->n, p->n, p->a.data(), p->n, p->b.data(), p->n,
                      p->c_ft.data(), p->n, oft, reliable);
  };
  c.check_ori = [p, tol, seed] {
    bool ok = false;
    if constexpr (std::is_same_v<S, std::int8_t>) {
      ok = sampled_oracle_i8_ok(p->a.data(), p->b.data(), p->c_ori.data(),
                                p->n, p->n, p->n, 64, seed + 11);
    } else if constexpr (std::is_same_v<S, bf16_t>) {
      return check_plain<float>(p->c_ori.data(), p->ref.data(), p->n, p->n,
                                p->n, tol);
    } else {
      ok = sampled_oracle_ok<S>(p->a.data(), p->b.data(), p->c_ori.data(),
                                p->n, p->n, p->n, 64, seed + 11, tol);
    }
    return ok ? Outcome::kOk : Outcome::kWrong;
  };
  c.check_ft = [p, tol](const FtReport& rep) {
    const C* want = p->c_ori.data();
    if constexpr (std::is_same_v<S, bf16_t>) want = p->ref.data();
    return check_ft<C>(rep, p->c_ft.data(), want, p->n, p->n, p->n, tol);
  };
  c.ft_error = [p] {
    const C* want = p->c_ori.data();
    if constexpr (std::is_same_v<S, bf16_t>) want = p->ref.data();
    return max_rel_diff<C>(p->c_ft.data(), want, p->n, p->n, p->n);
  };
  if (errors > 0) {
    c.undelivered = [p] { return p->injector->undelivered_count(); };
  }
  return c;
}

}  // namespace

PairCase make_pair(const std::string& label, std::int64_t n, int errors,
                   std::uint64_t seed) {
  if (label == "f64_nt1") return make_case<double>(label, n, 1, errors, seed + 100);
  if (label == "f64_nt2") return make_case<double>(label, n, 2, errors, seed + 200);
  if (label == "f32") return make_case<float>(label, n, 1, errors, seed + 300);
  if (label == "bf16") return make_case<bf16_t>(label, n, 1, errors, seed + 400);
  if (label == "i8") return make_case<std::int8_t>(label, n, 1, errors, seed + 500);
  PairCase c = make_case<double>(label, n, 4, errors, seed + 600);
  c.ft_only = true;
  return c;
}

std::vector<PairCase> make_pairs(std::int64_t n, int f64_errors,
                                 std::uint64_t seed, bool with_nt4) {
  std::vector<PairCase> cases;
  for (const char* label : {"f64_nt1", "f64_nt2"})
    cases.push_back(make_pair(label, n, f64_errors, seed));
  for (const char* label : {"f32", "bf16", "i8"})
    cases.push_back(make_pair(label, n, 0, seed));
  if (with_nt4) cases.push_back(make_pair("f64_nt4", n, f64_errors, seed));
  return cases;
}

void report_pairs(Run& run, const std::vector<PairCase>& cases) {
  std::int64_t false_positives = 0;
  double ft_nt1 = 0.0, ft_nt2 = 0.0;
  for (const PairCase& c : cases) {
    const double ft = gflops(c, true);
    if (c.errors == 0) false_positives += c.abft.detected;
    if (c.label == "f64_nt4") {
      const double worst = *std::max_element(c.t_ft.begin(), c.t_ft.end());
      run.set_layer("runtime.ft_gflops_f64_nt4", ft);
      run.set_layer("runtime.ft_gflops_f64_nt4_min", c.flops / worst * 1e-9);
      continue;
    }
    if (c.label == "f64_nt2") {
      // Not gated: a 2-thread call's best needs both cores left alone at
      // once, and over five runs it spread 0.15-0.26 of its median.
      run.set_layer("runtime.ft_flop_per_cycle_f64_nt2", best_per_cycle(c, true, run.clock));
      run.set_layer("runtime.ori_flop_per_cycle_f64_nt2", best_per_cycle(c, false, run.clock));
    } else {
      const std::string sfx = c.label == "f64_nt1" ? c.label : c.label + "_nt1";
      const std::string per_cycle = c.label == "i8" ? "_op_per_cycle_" : "_flop_per_cycle_";
      run.set_e2e("ft" + per_cycle + sfx, best_per_cycle(c, true, run.clock));
      if (c.label == "f64_nt1")
        run.set_e2e("ori" + per_cycle + sfx, best_per_cycle(c, false, run.clock));
    }
    run.set_layer("abft.ft_overhead_pct." + c.label, (1.0 - ft / gflops(c, false)) * 100.0);
    if (c.label == "f64_nt1") ft_nt1 = ft;
    if (c.label == "f64_nt2") ft_nt2 = ft;
  }
  run.set_layer("abft.false_positives", double(false_positives));
  if (ft_nt1 > 0.0)
    run.set_layer("runtime.scaling_eff_nt2", ft_nt2 / (2.0 * ft_nt1));
}

namespace {

void timed_ori(PairCase& c, Run& run) {
  run.clock.sample();
  const std::int64_t t0 = now_ns();
  {
    SpanScope span("core", "ori_gemm");
    c.ori();
  }
  c.t_ori.push_back(double(now_ns() - t0) * 1e-9);
  run.tally.add(c.check_ori());
}

void timed_ft(PairCase& c, Run& run) {
  FtReport rep;
  run.clock.sample();
  const std::int64_t t0 = now_ns();
  {
    SpanScope span(c.errors > 0 ? "abft" : "core",
                   c.errors > 0 ? "ft_gemm_reliable" : "ft_gemm");
    rep = c.ft();
  }
  c.t_ft.push_back(double(now_ns() - t0) * 1e-9);
  c.abft.add(rep, c.errors, c.undelivered ? c.undelivered() : 0);
  const Outcome o = c.check_ft(rep);
  if (o == Outcome::kSilent)
    std::fprintf(stderr,
                 "perfbench: silent wrong result in case %s (%lld corrected, max rel error %g)\n",
                 c.label.c_str(), static_cast<long long>(rep.errors_corrected), c.ft_error());
  run.tally.add(o);
}

}  // namespace

void warm_pair(PairCase& c, Run& run) {
  c.ori();  // an FT-only case still needs the reference
  run.tally.add(c.check_ori());
  const FtReport rep = c.ft();
  run.tally.add(c.check_ft(rep));
}

void run_pair(PairCase& c, bool ft_first, Run& run) {
  if (c.ft_only) {
    timed_ft(c, run);
  } else if (ft_first) {
    timed_ft(c, run);
    timed_ori(c, run);
  } else {
    timed_ori(c, run);
    timed_ft(c, run);
  }
}

double gflops(const PairCase& c, bool ft) {
  const double t = median(ft ? c.t_ft : c.t_ori);
  return t > 0.0 ? c.flops / t * 1e-9 : 0.0;
}

double best_per_cycle(const PairCase& c, bool ft, const CoreClock& clock) {
  const std::vector<double>& t = ft ? c.t_ft : c.t_ori;
  if (t.empty()) return 0.0;
  return c.flops / clock.cycles(*std::min_element(t.begin(), t.end()));
}

// ---------------------------------------------------------------------------
// Stream
// ---------------------------------------------------------------------------

struct Stream::Impl {
  ftgemm::AlignedBuffer<double> a, b, c, ref;
  std::vector<std::unique_ptr<ftgemm::CountInjector>> injectors;
  ftgemm::Xoshiro256 rng;
  std::vector<int> block;  ///< current balanced block of storm levels
  std::size_t pos = 0;
  bool storm;
  std::int64_t storm_calls = 0;

  Impl(std::uint64_t seed, bool storm_)
      : a(std::size_t(cfg::kStreamM * cfg::kStreamK)),
        b(std::size_t(cfg::kStreamK * cfg::kStreamN)),
        c(std::size_t(cfg::kStreamM * cfg::kStreamN)),
        ref(std::size_t(cfg::kStreamM * cfg::kStreamN)), rng(seed + 31),
        storm(storm_) {
    fill(a.data(), a.size(), seed + 21);
    fill(b.data(), b.size(), seed + 22);
    Options o;
    o.threads = 1;
    call_ori<double>(cfg::kStreamM, cfg::kStreamN, cfg::kStreamK, a.data(),
                     cfg::kStreamM, b.data(), cfg::kStreamK, ref.data(),
                     cfg::kStreamM, o);
    for (std::size_t l = 0; l < cfg::kStormErrors.size(); ++l) {
      injectors.push_back(std::make_unique<ftgemm::CountInjector>(
          cfg::kStormErrors[l], seed + 41 + l));
    }
  }

  /// Next storm level: a seeded permutation of every level per block, so
  /// each level's share of the calls is exact.
  std::size_t next_level() {
    if (pos == block.size()) {
      block.clear();
      for (std::size_t l = 0; l < cfg::kStormErrors.size(); ++l)
        block.push_back(int(l));
      for (std::size_t i = block.size() - 1; i > 0; --i)
        std::swap(block[i], block[std::size_t(rng.bounded(i + 1))]);
      pos = 0;
    }
    return std::size_t(block[pos++]);
  }

  FtReport call(ftgemm::FaultInjector* inj) {
    Options o;
    o.threads = 1;
    o.injector = inj;
    return call_ft<double>(cfg::kStreamM, cfg::kStreamN, cfg::kStreamK,
                           a.data(), cfg::kStreamM, b.data(), cfg::kStreamK,
                           c.data(), cfg::kStreamM, o, /*reliable=*/true);
  }

  Outcome check(const FtReport& rep) {
    return check_ft<double>(rep, c.data(), ref.data(), cfg::kStreamM,
                            cfg::kStreamN, cfg::kStreamM,
                            result_tolerance<double>(cfg::kStreamK, storm));
  }
};

Stream::Stream(std::uint64_t seed, bool storm)
    : impl_(std::make_unique<Impl>(seed, storm)) {}

Stream::~Stream() = default;

void Stream::run(int calls, Run& run, bool traced_half) {
  Impl& s = *impl_;
  Tracer& tracer = Tracer::instance();
  const bool trace_was_on = tracer.enabled();
  for (int i = 0; i < calls; ++i) {
    const bool traced = traced_half ? (i % 2 == 0) : trace_was_on;
    tracer.set_enabled(traced);
    ftgemm::CountInjector* inj = nullptr;
    int errors = 0;
    if (s.storm) {
      const std::size_t level = s.next_level();
      inj = s.injectors[level].get();
      errors = cfg::kStormErrors[level];
    }
    FtReport rep;
    run.clock.sample();
    const std::int64_t t0 = now_ns();
    {
      SpanScope span(s.storm ? "abft" : "core", "ft_dgemm_reliable");
      rep = s.call(inj);
    }
    const double dt = double(now_ns() - t0) * 1e-9;
    lat_ms.push_back(dt * 1e3);
    lat_errors.push_back(errors);
    if (traced_half) (traced ? traced_ms : untraced_ms).push_back(dt * 1e3);
    abft.add(rep, errors, inj != nullptr ? inj->undelivered_count() : 0);
    const Outcome o = s.check(rep);
    if (o == Outcome::kSilent)
      std::fprintf(stderr, "perfbench: silent wrong result in a stream call with %d errors, max rel diff %g\n",
                   errors, max_rel_diff<double>(s.c.data(), s.ref.data(), cfg::kStreamM,
                                                cfg::kStreamN, cfg::kStreamM));
    run.tally.add(o);
    if (s.storm && ++s.storm_calls % 4 == 0) {
      const std::int64_t c0 = now_ns();
      FtReport clean;
      {
        SpanScope span("core", "ft_dgemm_reliable_clean");
        clean = s.call(nullptr);
      }
      clean_ms.push_back(double(now_ns() - c0) * 1e-6);
      run.tally.add(s.check(clean));
    }
  }
  tracer.set_enabled(trace_was_on);
}

void Stream::clear() {
  lat_ms.clear();
  lat_errors.clear();
  clean_ms.clear();
  traced_ms.clear();
  untraced_ms.clear();
  abft = {};
}

void Stream::report(Run& run) const {
  // The fastest call of each error level, averaged over the levels (one
  // level, 0 errors, on a clean stream).
  std::map<int, double> best;
  for (std::size_t i = 0; i < lat_ms.size(); ++i) {
    const auto it = best.find(lat_errors[i]);
    if (it == best.end() || lat_ms[i] < it->second) best[lat_errors[i]] = lat_ms[i];
  }
  double best_ms = 0.0;
  for (const auto& [errors, ms] : best) best_ms += ms / double(best.size());
  run.set_e2e("lat_best_kcycles", run.clock.cycles(best_ms * 1e-3) * 1e-3);
  run.set_e2e("max_rps_slo", best_ms > 0.0 ? 1e3 / best_ms : 0.0);
  const double p50 = median(lat_ms), p99 = percentile(lat_ms, 99.0);
  run.set_layer("core.call_us_p50", p50 * 1e3);
  run.set_layer("core.call_us_p99", p99 * 1e3);
  if (!traced_ms.empty() && !untraced_ms.empty()) {
    run.set_layer("trace.overhead_pct",
                  (median(traced_ms) / median(untraced_ms) - 1.0) * 100.0);
  }
}

}  // namespace pb
