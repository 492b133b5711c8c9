// The serve workload: an LLM-inference-like mix of small GEMMs on resident
// weights (fp64, fp32, bf16, int8; m, k <= 256, n in {16, 32, 64}) plus one
// general-path 512^3 fp64 request at nt=2 in ten.
//
// Phase 1 runs the mix as a one-thread synchronous loop (Ori and FT per
// request): the floor that service latency is read against, and the source
// of the workload's throughput and latency metrics.  Phase 2 sends
// the same mix open-loop from one generator thread into a 2-shard
// GemmService with seeded Poisson arrivals at each rate of a fixed ladder.
// Each request is timed from when it was due to when its then() callback
// ran, and its C is checked against a reference computed up front.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "calls.hpp"
#include "check.hpp"
#include "config.hpp"
#include "core/context.hpp"
#include "core/operand_cache.hpp"
#include "serve/service.hpp"
#include "setup.hpp"
#include "trace.hpp"
#include "util/aligned_buffer.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

using ftgemm::AlignedBuffer;
using ftgemm::Layout;
using ftgemm::Trans;
namespace serve = ftgemm::serve;

enum Kind : int { kF64 = 0, kF32, kBf16, kI8, kGeneral, kKinds };

/// One weight matrix with its activation pool and references per n.
template <typename S>
struct Weight {
  using C = OutT<S>;
  index_t m = 0, k = 0;
  std::vector<index_t> ns;
  AlignedBuffer<S> a;
  std::vector<std::vector<AlignedBuffer<S>>> acts;  ///< [n index][pool]
  std::vector<std::vector<AlignedBuffer<C>>> refs;
  ftgemm::ResidentOperand handle;
};

template <typename S>
Weight<S> make_weight(index_t m, index_t k, std::vector<index_t> ns, int pool,
                      int threads, std::uint64_t seed, Run& run) {
  Weight<S> w;
  w.m = m;
  w.k = k;
  w.ns = std::move(ns);
  w.a.reset(std::size_t(m * k));
  fill(w.a.data(), w.a.size(), seed);
  Options o;
  o.threads = threads;
  for (std::size_t ni = 0; ni < w.ns.size(); ++ni) {
    const index_t n = w.ns[ni];
    w.acts.emplace_back();
    w.refs.emplace_back();
    for (int p = 0; p < pool; ++p) {
      AlignedBuffer<S> b(std::size_t(k * n));
      fill(b.data(), b.size(), seed + 1000 * (ni + 1) + std::uint64_t(p));
      AlignedBuffer<typename Weight<S>::C> ref(std::size_t(m * n));
      if constexpr (std::is_same_v<S, std::int8_t>) {
        oracle_i8(w.a.data(), m, b.data(), k, ref.data(), m, n, k);
      } else if constexpr (std::is_same_v<S, bf16_t>) {
        AlignedBuffer<float> wa(w.a.size()), wb(b.size());
        for (std::size_t i = 0; i < wa.size(); ++i) wa[i] = float(w.a[i]);
        for (std::size_t i = 0; i < wb.size(); ++i) wb[i] = float(b[i]);
        call_ori<float>(m, n, k, wa.data(), m, wb.data(), k, ref.data(), m, o);
      } else {
        call_ori<S>(m, n, k, w.a.data(), m, b.data(), k, ref.data(), m, o);
        const bool ok = sampled_oracle_ok<S>(w.a.data(), b.data(), ref.data(),
                                             m, n, k, 32, seed + 7,
                                             result_tolerance<S>(k, false));
        run.tally.add(ok ? Outcome::kOk : Outcome::kWrong);
      }
      w.acts.back().push_back(std::move(b));
      w.refs.back().push_back(std::move(ref));
    }
  }
  return w;
}

/// What one request computes: a kind, a weight, an n and an activation.
struct Tmpl {
  Kind kind;
  int w, ni, act;
};

struct Bank {
  std::vector<Weight<double>> f64;
  std::vector<Weight<float>> f32;
  std::vector<Weight<bf16_t>> bf16;
  std::vector<Weight<std::int8_t>> i8;
  std::vector<Weight<double>> general;
};

/// Visit the typed weight a template names.
template <typename F>
decltype(auto) with_weight(Bank& bank, const Tmpl& t, F&& f) {
  switch (t.kind) {
    case kF64: return f(bank.f64[std::size_t(t.w)]);
    case kF32: return f(bank.f32[std::size_t(t.w)]);
    case kBf16: return f(bank.bf16[std::size_t(t.w)]);
    case kI8: return f(bank.i8[std::size_t(t.w)]);
    default: return f(bank.general[std::size_t(t.w)]);
  }
}

Options request_options(Kind kind) {
  Options o;
  if (kind == kGeneral) {
    o.threads = cfg::kGeneralThreads;
  } else {
    o.threads = 1;
    o.resident_a = true;
  }
  return o;
}

double flops_of(Bank& bank, const Tmpl& t) {
  return with_weight(bank, t, [&](auto& w) {
    return 2.0 * double(w.m) * double(w.ns[std::size_t(t.ni)]) * double(w.k);
  });
}

/// Seeded request sequence: blocks of ten with one general request at a
/// seeded position, the other nine drawn uniformly over kind, weight, n and
/// activation.
std::vector<Tmpl> make_mix(std::size_t count, std::uint64_t seed) {
  ftgemm::Xoshiro256 rng(seed + 77);
  std::vector<Tmpl> mix;
  std::size_t general_at = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t pos = i % std::size_t(cfg::kGeneralEvery);
    if (pos == 0) general_at = std::size_t(rng.bounded(cfg::kGeneralEvery));
    if (pos == general_at) {
      mix.push_back({kGeneral, 0, 0, int(rng.bounded(2))});
      continue;
    }
    mix.push_back({Kind(rng.bounded(4)), int(rng.bounded(cfg::kWeightM.size())),
                   int(rng.bounded(cfg::kActivationN.size())),
                   int(rng.bounded(cfg::kActivationPool))});
  }
  return mix;
}

template <typename S>
Outcome check_out(const Weight<S>& w, const Tmpl& t, const FtReport& rep,
                  const OutT<S>* c) {
  const index_t n = w.ns[std::size_t(t.ni)];
  return check_ft<OutT<S>>(rep, c, w.refs[std::size_t(t.ni)][std::size_t(t.act)].data(),
                           w.m, n, w.m, result_tolerance<S>(w.k, false));
}

serve::GemmRequest make_request(Bank& bank, const Tmpl& t, void* c) {
  const Options o = request_options(t.kind);
  constexpr auto L = Layout::kColMajor;
  constexpr auto N = Trans::kNoTrans;
  return with_weight(bank, t, [&](auto& w) {
    using S = std::decay_t<decltype(*w.a.data())>;
    const index_t n = w.ns[std::size_t(t.ni)];
    const S* b = w.acts[std::size_t(t.ni)][std::size_t(t.act)].data();
    auto* out = static_cast<OutT<S>*>(c);
    if constexpr (std::is_same_v<S, std::int8_t>) {
      return serve::make_gemm_request_i8(true, L, N, N, w.m, n, w.k, 1.0f,
                                         w.a.data(), w.m, b, w.k, 0.0f, out,
                                         w.m, {}, o);
    } else {
      return serve::make_gemm_request<S>(true, L, N, N, w.m, n, w.k,
                                         OutT<S>(1), w.a.data(), w.m, b, w.k,
                                         OutT<S>(0), out, w.m, o);
    }
  });
}

// ---------------------------------------------------------------------------
// Client buffers for in-flight requests.
// ---------------------------------------------------------------------------

struct Slot {
  std::atomic<int> state{0};  ///< 0 free, 1 in flight, 2 settled
  Tmpl tmpl{};
  std::int64_t due_ns = 0;
  std::int64_t done_ns = 0;
  std::int64_t span = -1;
  serve::GemmResult result;
  AlignedBuffer<double> c;  ///< sized for the largest output of its ring
};

class Ring {
 public:
  Ring(std::size_t slots, std::size_t elems) : slots_(slots) {
    for (Slot& s : slots_) s.c.reset(elems);
  }
  Slot* acquire() {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[(next_ + i) % slots_.size()];
      if (s.state.load(std::memory_order_acquire) == 0) {
        next_ = (next_ + i + 1) % slots_.size();
        return &s;
      }
    }
    return nullptr;
  }
  std::vector<Slot>& slots() { return slots_; }

 private:
  std::vector<Slot> slots_;
  std::size_t next_ = 0;
};

struct StepStats {
  double rate = 0.0;
  std::int64_t sent = 0, succeeded = 0, failed = 0, rejected = 0;
  std::int64_t backlog_end = 0;
  std::vector<double> lat_ms;
};

}  // namespace

void run_serve(Run& run) {
  const std::uint64_t seed = run.args.seed;
  Bank bank;
  for (std::size_t i = 0; i < cfg::kWeightM.size(); ++i) {
    const index_t m = cfg::kWeightM[i], k = cfg::kWeightK[i];
    const std::vector<index_t> ns(cfg::kActivationN.begin(), cfg::kActivationN.end());
    const std::uint64_t s = seed + 10000 * (i + 1);
    bank.f64.push_back(make_weight<double>(m, k, ns, cfg::kActivationPool, 1, s + 1, run));
    bank.f32.push_back(make_weight<float>(m, k, ns, cfg::kActivationPool, 1, s + 2, run));
    bank.bf16.push_back(make_weight<bf16_t>(m, k, ns, cfg::kActivationPool, 1, s + 3, run));
    bank.i8.push_back(make_weight<std::int8_t>(m, k, ns, cfg::kActivationPool, 1, s + 4, run));
  }
  bank.general.push_back(make_weight<double>(cfg::kGeneralN, cfg::kGeneralN,
                                             {cfg::kGeneralN}, 2,
                                             cfg::kGeneralThreads, seed + 5, run));

  // Set-up: plans of every request shape, resident encodes, service start.
  std::vector<SetupShape> shapes;
  for (std::size_t i = 0; i < cfg::kWeightM.size(); ++i) {
    for (index_t n : cfg::kActivationN) {
      const index_t m = cfg::kWeightM[i], k = cfg::kWeightK[i];
      shapes.push_back({Dtype::kF64, m, n, k, 1});
      shapes.push_back({Dtype::kF32, m, n, k, 1});
      shapes.push_back({Dtype::kBf16, m, n, k, 1});
      shapes.push_back({Dtype::kI8, m, n, k, 1});
    }
  }
  shapes.push_back({Dtype::kF64, cfg::kGeneralN, cfg::kGeneralN, cfg::kGeneralN,
                    cfg::kGeneralThreads});
  const auto encode_all = [&bank] {
    SpanScope span("opcache", "make_resident_a");
    const Options o = request_options(kF64);
    const index_t n = cfg::kActivationN.back();
    constexpr auto N = Trans::kNoTrans;
    for (auto& w : bank.f64)
      w.handle = ftgemm::make_resident_a<double>(N, N, w.m, n, w.k, 1.0, w.a.data(), w.m, o);
    for (auto& w : bank.f32)
      w.handle = ftgemm::make_resident_a<float>(N, N, w.m, n, w.k, 1.0f, w.a.data(), w.m, o);
    for (auto& w : bank.bf16)
      w.handle = ftgemm::make_resident_a<bf16_t, float>(N, N, w.m, n, w.k, 1.0f,
                                                         w.a.data(), w.m, o);
    for (auto& w : bank.i8)
      w.handle = ftgemm::make_resident_a_i8(N, N, w.m, n, w.k, w.a.data(), w.m, o);
  };
  const auto start_service = [] {
    serve::ServiceConfig sc;
    sc.shards = cfg::kServiceShards;
    SpanScope span("serve", "service_start_stop");
    serve::GemmService svc(sc);
  };
  run.set_e2e("setup_s",
              measure_setup(shapes, [&] { encode_all(); start_service(); }, cfg::kSetupReps));

  // ---- Phase 1: synchronous loop over the mix (the core floor). ----
  const std::vector<Tmpl> mix = make_mix(200000, seed);
  AlignedBuffer<double> c_sync(std::size_t(cfg::kGeneralN * cfg::kGeneralN));
  // Throughput per precision weighs every (kind, weight, n) shape equally,
  // so the seeded mix's composition does not move it: flops summed over
  // the shapes per cycle of their summed best call times.  The best call,
  // not the median: these calls take microseconds, and their time switches
  // between a fast and a slow level with the host's load every few tens of
  // milliseconds (perfbench/README.md), so a median or mean measures how
  // long the slow level lasted in this run.
  std::map<std::tuple<int, int, int>, std::pair<std::vector<double>, std::vector<double>>> per_shape;
  std::vector<double> call_us;
  const auto sync_call = [&](const Tmpl& t, bool ft) {
    const Options o = request_options(t.kind);
    return with_weight(bank, t, [&](auto& w) {
      using S = std::decay_t<decltype(*w.a.data())>;
      const index_t n = w.ns[std::size_t(t.ni)];
      const S* b = w.acts[std::size_t(t.ni)][std::size_t(t.act)].data();
      auto* out = reinterpret_cast<OutT<S>*>(c_sync.data());
      FtReport rep;
      run.clock.sample();
      const std::int64_t t0 = now_ns();
      if (ft) {
        SpanScope span("core", "ft_gemm");
        rep = call_ft<S>(w.m, n, w.k, w.a.data(), w.m, b, w.k, out, w.m, o, false);
      } else {
        SpanScope span("core", "ori_gemm");
        call_ori<S>(w.m, n, w.k, w.a.data(), w.m, b, w.k, out, w.m, o);
      }
      const double dt = double(now_ns() - t0) * 1e-9;
      run.tally.add(ft ? check_out(w, t, rep, out)
                       : (check_out(w, t, FtReport{}, out) == Outcome::kOk
                              ? Outcome::kOk
                              : Outcome::kWrong));
      return dt;
    });
  };
  encode_all();
  for (std::size_t i = 0; i < 64; ++i) {  // warm every path
    (void)sync_call(mix[i], false);
    (void)sync_call(mix[i], true);
  }
  std::size_t next_tmpl = 64;
  const double sync_deadline = now_s() + run.budget(0.3);
  bool traced_half = run.args.trace;
  std::vector<double> traced_us, untraced_us;
  Tracer& tracer = Tracer::instance();
  do {
    const Tmpl& t = mix[next_tmpl % mix.size()];
    const bool ft_first = next_tmpl % 2 == 1;
    if (traced_half) tracer.set_enabled(next_tmpl % 4 < 2);
    double tf = 0.0, to = 0.0;
    if (ft_first) {
      tf = sync_call(t, true);
      to = sync_call(t, false);
    } else {
      to = sync_call(t, false);
      tf = sync_call(t, true);
    }
    if (traced_half) (next_tmpl % 4 < 2 ? traced_us : untraced_us).push_back(tf * 1e6);
    auto& slot = per_shape[{int(t.kind), t.w, t.ni}];
    slot.first.push_back(tf);
    slot.second.push_back(to);
    call_us.push_back(tf * 1e6);
    ++next_tmpl;
  } while (now_s() < sync_deadline || next_tmpl < 64 + 400);
  if (traced_half) tracer.set_enabled(true);

  std::vector<double> flops_sum(kKinds, 0.0), ft_sum(kKinds, 0.0), ori_sum(kKinds, 0.0);
  double small_best_s = 0.0;
  int small_shapes = 0;
  for (const auto& [key, times] : per_shape) {
    const Tmpl t{Kind(std::get<0>(key)), std::get<1>(key), std::get<2>(key), 0};
    const double ft_best = *std::min_element(times.first.begin(), times.first.end());
    flops_sum[t.kind] += flops_of(bank, t);
    ft_sum[t.kind] += ft_best;
    ori_sum[t.kind] += *std::min_element(times.second.begin(), times.second.end());
    if (t.kind != kGeneral) {
      small_best_s += ft_best;
      ++small_shapes;
    }
  }
  const auto per_cycle = [&](int kind, bool ft) {
    const double s = ft ? ft_sum[kind] : ori_sum[kind];
    return s > 0.0 ? flops_sum[kind] / run.clock.cycles(s) : 0.0;
  };
  run.set_e2e("ft_flop_per_cycle_f64_nt1", per_cycle(kF64, true));
  run.set_e2e("ori_flop_per_cycle_f64_nt1", per_cycle(kF64, false));
  run.set_layer("runtime.ft_flop_per_cycle_f64_nt2", per_cycle(kGeneral, true));
  run.set_layer("runtime.ori_flop_per_cycle_f64_nt2", per_cycle(kGeneral, false));
  run.set_e2e("ft_flop_per_cycle_f32_nt1", per_cycle(kF32, true));
  run.set_e2e("ft_flop_per_cycle_bf16_nt1", per_cycle(kBf16, true));
  run.set_e2e("ft_op_per_cycle_i8_nt1", per_cycle(kI8, true));
  const char* overhead_key[kKinds] = {"f64_nt1", "f32", "bf16", "i8", "f64_nt2"};
  for (int kind = 0; kind < kKinds; ++kind) {
    run.set_layer(std::string("abft.ft_overhead_pct.") + overhead_key[kind],
                  (1.0 - ori_sum[kind] / ft_sum[kind]) * 100.0);
  }
  // lat_best_kcycles on serve: the best FT call of each resident request
  // shape, averaged over the shapes.  The service's open-loop latencies,
  // which carry the queueing and thread hand-offs, are the per-layer
  // serve.lat_*.rN.
  run.set_e2e("lat_best_kcycles",
              small_shapes > 0 ? run.clock.cycles(small_best_s / small_shapes) * 1e-3
                               : 0.0);
  const double core_p50 = median(call_us);
  run.set_layer("core.call_us_p50", core_p50);
  run.set_layer("core.call_us_p99", percentile(call_us, 99.0));
  if (per_cycle(kF64, true) > 0.0) {
    // nt=2 general requests over nt=1 resident ones: different shapes, so
    // this is the serve mix's own reading of the nt=2 payoff.
    run.set_layer("runtime.scaling_eff_nt2",
                  per_cycle(kGeneral, true) / (2.0 * per_cycle(kF64, true)));
  }
  if (!traced_us.empty() && !untraced_us.empty()) {
    run.set_layer("trace.overhead_pct",
                  (median(traced_us) / median(untraced_us) - 1.0) * 100.0);
  }

  // ---- Phase 2: open-loop rate ladder into the service. ----
  Ring small(640, std::size_t(256 * 64));
  Ring general(64, std::size_t(cfg::kGeneralN * cfg::kGeneralN));
  serve::ServiceConfig sc;
  sc.shards = cfg::kServiceShards;
  serve::GemmService svc(sc);
  ftgemm::Xoshiro256 arrivals(seed + 99);
  std::vector<StepStats> steps;
  std::vector<double> gen_lag_ms;

  const auto settle = [&](Slot& s, StepStats& st) {
    const double lat = double(s.done_ns - s.due_ns) * 1e-6;
    Outcome o = Outcome::kRejected;
    if (s.result.status == serve::RequestStatus::kDone) {
      o = with_weight(bank, s.tmpl, [&](auto& w) {
        using S = std::decay_t<decltype(*w.a.data())>;
        return check_out(w, s.tmpl, s.result.report,
                         reinterpret_cast<const OutT<S>*>(s.c.data()));
      });
      st.lat_ms.push_back(lat);
      if (o == Outcome::kOk && lat > cfg::kLatencyLimitMs) o = Outcome::kSloMissed;
    }
    run.tally.add(o);
    (o == Outcome::kOk ? st.succeeded : st.failed) += 1;
    s.state.store(0, std::memory_order_release);
  };
  // Checking one settled request at a time keeps the generator's own work
  // from delaying the next arrival by more than one check.
  std::vector<Slot*> all_slots;
  for (Ring* r : {&small, &general})
    for (Slot& s : r->slots()) all_slots.push_back(&s);
  std::size_t cursor = 0;
  const auto settle_one = [&](StepStats& st) {
    for (std::size_t i = 0; i < all_slots.size(); ++i) {
      Slot& s = *all_slots[(cursor + i) % all_slots.size()];
      if (s.state.load(std::memory_order_acquire) == 2) {
        cursor = (cursor + i + 1) % all_slots.size();
        settle(s, st);
        return true;
      }
    }
    return false;
  };
  const auto count_state = [&](int state) {
    std::int64_t n = 0;
    for (const Slot* s : all_slots) n += s->state.load(std::memory_order_acquire) == state;
    return n;
  };

  std::int64_t request_id = 0;
  std::vector<double> step_seconds;
  for (std::size_t r = 0; r < cfg::kLadderRps.size(); ++r) {
    const double rate = cfg::kLadderRps[r];
    const double step_s = run.budget(0.65) * cfg::kStepShare[r];
    step_seconds.push_back(step_s);
    StepStats st;
    st.rate = rate;
    const std::int64_t t_start = now_ns() + 1000000;
    const std::int64_t t_end = t_start + std::int64_t(step_s * 1e9);
    std::int64_t due = t_start;
    while (due < t_end) {
      // Idle time before the next arrival goes to checking settled results.
      for (;;) {
        const std::int64_t now = now_ns();
        if (now >= due) break;
        if (settle_one(st)) continue;
        if (due - now > 200000) std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      const Tmpl& t = mix[next_tmpl++ % mix.size()];
      Ring& ring = t.kind == kGeneral ? general : small;
      ++st.sent;
      Slot* s = ring.acquire();
      while (s == nullptr && settle_one(st)) s = ring.acquire();
      if (s == nullptr) {  // no client buffer: counted as refused
        ++st.rejected;
        ++st.failed;
        run.tally.add(Outcome::kRejected);
      } else {
        s->tmpl = t;
        s->due_ns = due;
        s->state.store(1, std::memory_order_release);
        const serve::GemmRequest req = make_request(bank, t, s->c.data());
        const std::int64_t id = request_id++;
        s->span = tracer.enabled() ? tracer.begin_async("serve", "submit_to_settle", id) : -1;
        serve::GemmFuture fut = svc.try_submit(req);
        gen_lag_ms.push_back(double(now_ns() - due) * 1e-6);
        if (fut.status() == serve::RequestStatus::kRejected) {
          if (s->span >= 0) tracer.end_async(s->span, now_ns());
          ++st.rejected;
          ++st.failed;
          run.tally.add(Outcome::kRejected);
          s->state.store(0, std::memory_order_release);
        } else {
          fut.then([s, &tracer](const serve::GemmResult& r) {
            s->done_ns = now_ns();
            s->result = r;
            if (s->span >= 0) tracer.end_async(s->span, s->done_ns);
            s->state.store(2, std::memory_order_release);
          });
        }
      }
      due += std::int64_t(-std::log(1.0 - arrivals.uniform()) / rate * 1e9);
    }
    st.backlog_end = count_state(1);
    const std::int64_t give_up = now_ns() + std::int64_t(60e9);
    while ((count_state(1) > 0 || count_state(2) > 0) && now_ns() < give_up) {
      if (!settle_one(st)) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    steps.push_back(std::move(st));
  }
  const serve::ServiceStats ss = svc.stats();
  svc.shutdown(true);

  double max_rps = 0.0;
  for (std::size_t r = 0; r < steps.size(); ++r) {
    const StepStats& st = steps[r];
    const std::string sfx = ".r" + std::to_string(r);
    const double p50 = median(st.lat_ms), p99 = percentile(st.lat_ms, 99.0);
    run.set_layer("serve.sent" + sfx, double(st.sent));
    run.set_layer("serve.succeeded" + sfx, double(st.succeeded));
    run.set_layer("serve.failed" + sfx, double(st.failed));
    run.set_layer("serve.lat_p50_ms" + sfx, p50);
    run.set_layer("serve.lat_p99_ms" + sfx, p99);
    run.set_layer("serve.backlog_end" + sfx, double(st.backlog_end));
    const bool slo = st.rejected == 0 && p99 <= cfg::kLatencyLimitMs &&
                     double(st.backlog_end) <= std::max(2.0, st.rate * cfg::kLatencyLimitMs * 1e-3);
    if (slo) max_rps = double(st.sent) / step_seconds[r];
    std::fprintf(stderr,
                 "perfbench: step %zu at %g req/s: sent %lld, failed %lld, refused %lld, "
                 "p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, backlog %lld%s\n",
                 r, st.rate, static_cast<long long>(st.sent), static_cast<long long>(st.failed),
                 static_cast<long long>(st.rejected), p50, percentile(st.lat_ms, 90.0), p99,
                 static_cast<long long>(st.backlog_end), slo ? "" : " (misses the SLO)");
    if (int(r) == cfg::kNominalStep)
      run.set_layer("serve.overhead_us_p50", p50 * 1e3 - core_p50);
  }
  run.set_e2e("max_rps_slo", max_rps);
  run.set_layer("serve.inline_frac",
                ss.submitted > 0 ? double(ss.inline_executed) / double(ss.submitted) : 0.0);
  run.set_layer("serve.coalesce_size",
                ss.coalesced_batches > 0
                    ? double(ss.coalesced_members) / double(ss.coalesced_batches)
                    : 0.0);
  run.set_layer("serve.steals", double(ss.steals));
  run.set_layer("serve.peak_queue_depth", double(ss.peak_queue_depth));
  run.set_layer("serve.rejected", double(ss.rejected));
  run.set_layer("serve.gen_lag_ms_p99", percentile(gen_lag_ms, 99.0));
}

}  // namespace pb
