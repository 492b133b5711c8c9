// Per-layer probes: time calls into each module's public functions, away
// from the workloads, on the traced run only.
//
//   kernels  get_kernel_set(select_isa()) .base / .ft over a pre-packed
//            MC x KC A block and KC x NC B panel at build_plan's blocking
//            for 2048^3 (the dense shape), i.e. one macro-kernel block.
//   pack     get_pack_set(...) .pack_a(_ft) / .pack_b(_ft) on the same block;
//            bytes are computed from panel sizes (read + written).
//   plan     build_plan per distinct key; warm PlanCache::get_or_build.
//   opcache  make_resident_a on fresh weights; a resident hit with
//            resident_verify on minus off.
//   runtime  an empty run_team at nt=2 on the resolved default backend.
//   inject   CountInjector scheduling (begin_call + plan_block sweep).
//   abft     ft_dgemm_reliable under 20 injected errors (checked).
#include <cstdio>
#include <vector>

#include "arch/isa.hpp"
#include "calls.hpp"
#include "check.hpp"
#include "core/operand_cache.hpp"
#include "core/plan.hpp"
#include "inject/injectors.hpp"
#include "kernels/macro_kernel.hpp"
#include "runtime/topology.hpp"
#include "trace.hpp"
#include "util/aligned_buffer.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

using ftgemm::AlignedBuffer;
using ftgemm::Trans;
constexpr index_t kProbeN = 2048;
constexpr auto kN = Trans::kNoTrans;

/// Median seconds of `fn` over `reps` timed calls.
template <typename F>
double median_time(int reps, F&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    fn();
    t.push_back(double(now_ns() - t0) * 1e-9);
  }
  return median(t);
}

template <typename S, typename C = S>
ftgemm::BlockingPlan dense_blocking() {
  Options o;
  o.threads = 1;
  return ftgemm::build_plan<S, C>(kN, kN, kProbeN, kProbeN, kProbeN, o, true)
      .blocking;
}

template <typename T>
void kernel_probe(Run& run, const char* tag) {
  const ftgemm::BlockingPlan bp = dense_blocking<T>();
  const auto ks = ftgemm::get_kernel_set<T>(ftgemm::select_isa());
  const index_t mc = (bp.mc + ks.mr - 1) / ks.mr * ks.mr;
  const index_t nc = (bp.nc + ks.nr - 1) / ks.nr * ks.nr;
  AlignedBuffer<T> a{std::size_t(mc * bp.kc)}, b{std::size_t(nc * bp.kc)},
      c{std::size_t(mc * nc)}, cr{std::size_t(nc * ks.cr_lanes)}, cc{std::size_t(mc)};
  fill(a.data(), a.size(), 1);
  fill(b.data(), b.size(), 2);
  std::fill(c.data(), c.data() + c.size(), T(0));
  std::fill(cr.data(), cr.data() + cr.size(), T(0));
  std::fill(cc.data(), cc.data() + cc.size(), T(0));
  const double flops = 2.0 * double(mc) * double(nc) * double(bp.kc);
  SpanScope span("kernels", "macro_block");
  const double tb = median_time(9, [&] {
    ftgemm::run_macro_block<T, false>(ks, mc, nc, bp.kc, a.data(), b.data(),
                                      c.data(), mc, cr.data(), cc.data());
  });
  const double tf = median_time(9, [&] {
    ftgemm::run_macro_block<T, true>(ks, mc, nc, bp.kc, a.data(), b.data(),
                                     c.data(), mc, cr.data(), cc.data());
  });
  run.set_layer(std::string("kernels.base_gflops_") + tag, flops / tb * 1e-9);
  run.set_layer(std::string("kernels.ft_gflops_") + tag, flops / tf * 1e-9);
}

void kernel_probe_i8(Run& run) {
  const ftgemm::BlockingPlan bp = dense_blocking<std::int8_t, std::int32_t>();
  const auto ks = ftgemm::get_kernel_set<std::int8_t, std::int32_t>(ftgemm::select_isa());
  const index_t mtiles = (bp.mc + ks.mr - 1) / ks.mr;
  const index_t ntiles = (bp.nc + ks.nr - 1) / ks.nr;
  const index_t mc = mtiles * ks.mr, nc = ntiles * ks.nr;
  AlignedBuffer<std::uint8_t> a{std::size_t(mtiles * ftgemm::i8_tile_bytes(bp.kc, ks.mr))};
  AlignedBuffer<std::int8_t> b{std::size_t(ntiles * ftgemm::i8_tile_bytes(bp.kc, ks.nr))};
  AlignedBuffer<std::int32_t> c{std::size_t(mc * nc)};
  AlignedBuffer<std::int64_t> cr{std::size_t(nc)}, cc{std::size_t(mc)};
  ftgemm::Xoshiro256 rng(3);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = std::uint8_t(rng.bounded(256));
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = std::int8_t(int(rng.bounded(256)) - 128);
  std::fill(c.data(), c.data() + c.size(), 0);
  std::fill(cr.data(), cr.data() + cr.size(), 0);
  std::fill(cc.data(), cc.data() + cc.size(), 0);
  SpanScope span("kernels", "macro_block_i8");
  const double t = median_time(9, [&] {
    ftgemm::run_macro_block_i8<true>(ks, mc, nc, bp.kc, a.data(), b.data(),
                                     c.data(), mc, cr.data(), cc.data());
  });
  const double ops = 2.0 * double(mc) * double(nc) * double(bp.kc);
  run.set_layer("kernels.ft_gops_i8", ops / t * 1e-9);
}

/// pack_a_ft (and pack_b_ft when `with_b`) GB/s on the dense block; with
/// `with_plain` also the checksum share against the plain packs.
template <typename S, typename C>
void pack_probe(Run& run, const char* tag, bool with_b, bool with_plain) {
  const ftgemm::BlockingPlan bp = dense_blocking<S, C>();
  const auto ps = ftgemm::get_pack_set<S, C>(ftgemm::select_isa());
  AlignedBuffer<S> src{std::size_t(kProbeN * kProbeN)};
  fill(src.data(), src.size(), 5);
  const ftgemm::OperandView<S> view{src.data(), kProbeN, false};
  const index_t mc_pad = (bp.mc + bp.mr - 1) / bp.mr * bp.mr;
  const index_t nc_pad = (bp.nc + bp.nr - 1) / bp.nr * bp.nr;
  AlignedBuffer<C> ap{std::size_t(mc_pad * bp.kc)}, bpk{std::size_t(nc_pad * bp.kc)};
  AlignedBuffer<C> bc{std::size_t(bp.kc)}, cc{std::size_t(mc_pad)},
      ar{std::size_t(bp.kc)}, cr{std::size_t(nc_pad)};
  std::fill(bc.data(), bc.data() + bc.size(), C(1));
  std::fill(ar.data(), ar.data() + ar.size(), C(1));
  std::fill(cc.data(), cc.data() + cc.size(), C(0));
  std::fill(cr.data(), cr.data() + cr.size(), C(0));
  SpanScope span("pack", "pack_probe");
  const double ta_ft = median_time(15, [&] {
    ps.pack_a_ft(view, 0, 0, bp.mc, bp.kc, bp.mr, C(1), ap.data(), bc.data(), cc.data());
  });
  const double a_bytes = double(bp.mc * bp.kc) * sizeof(S) + double(mc_pad * bp.kc) * sizeof(C);
  run.set_layer(std::string("pack.a_ft_gbs_") + tag, a_bytes / ta_ft * 1e-9);
  if (!with_b) return;
  const double tb_ft = median_time(15, [&] {
    ps.pack_b_ft(view, 0, 0, bp.kc, bp.nc, bp.nr, bpk.data(), ar.data(), cr.data());
  });
  const double b_bytes = double(bp.nc * bp.kc) * sizeof(S) + double(nc_pad * bp.kc) * sizeof(C);
  run.set_layer(std::string("pack.b_ft_gbs_") + tag, b_bytes / tb_ft * 1e-9);
  if (!with_plain) return;
  const double ta = median_time(15, [&] {
    ps.pack_a(view, 0, 0, bp.mc, bp.kc, bp.mr, C(1), ap.data());
  });
  const double tb = median_time(15, [&] {
    ps.pack_b(view, 0, 0, bp.kc, bp.nc, bp.nr, bpk.data());
  });
  run.set_layer(std::string("pack.checksum_pct_") + tag,
                ((ta_ft + tb_ft) / (ta + tb) - 1.0) * 100.0);
}

void pack_probe_i8(Run& run) {
  using S = std::int8_t;
  const ftgemm::BlockingPlan bp = dense_blocking<S, std::int32_t>();
  const auto ps = ftgemm::get_pack_set<S, std::int32_t>(ftgemm::select_isa());
  AlignedBuffer<S> src{std::size_t(kProbeN * kProbeN)};
  fill(src.data(), src.size(), 6);
  const ftgemm::OperandView<S> view{src.data(), kProbeN, false};
  const index_t mtiles = (bp.mc + bp.mr - 1) / bp.mr;
  const index_t ntiles = (bp.nc + bp.nr - 1) / bp.nr;
  AlignedBuffer<std::uint8_t> ap{std::size_t(mtiles * ftgemm::i8_tile_bytes(bp.kc, bp.mr))};
  AlignedBuffer<std::int8_t> bpk{std::size_t(ntiles * ftgemm::i8_tile_bytes(bp.kc, bp.nr))};
  AlignedBuffer<std::int32_t> arow{std::size_t(mtiles * bp.mr)}, bcol{std::size_t(ntiles * bp.nr)},
      bc{std::size_t(bp.kc)}, ar{std::size_t(bp.kc)};
  AlignedBuffer<std::int64_t> cc{std::size_t(mtiles * bp.mr)}, cr{std::size_t(ntiles * bp.nr)};
  std::fill(bc.data(), bc.data() + bc.size(), 1);
  std::fill(ar.data(), ar.data() + ar.size(), 1);
  std::fill(cc.data(), cc.data() + cc.size(), 0);
  std::fill(cr.data(), cr.data() + cr.size(), 0);
  SpanScope span("pack", "pack_probe_i8");
  const double ta = median_time(15, [&] {
    ps.pack_a_ft(view, 0, 0, bp.mc, bp.kc, bp.mr, ap.data(), arow.data(), bc.data(), cc.data());
  });
  const double tb = median_time(15, [&] {
    ps.pack_b_ft(view, 0, 0, bp.kc, bp.nc, bp.nr, bpk.data(), bcol.data(), ar.data(), cr.data());
  });
  run.set_layer("pack.a_ft_gbs_i8", (double(bp.mc * bp.kc) + double(ap.size())) / ta * 1e-9);
  run.set_layer("pack.b_ft_gbs_i8", (double(bp.nc * bp.kc) + double(bpk.size())) / tb * 1e-9);
}

void plan_probe(Run& run) {
  SpanScope span("plan", "plan_probe");
  Options o;
  o.threads = 1;
  std::vector<double> build;
  for (index_t s = 0; s < 64; ++s) {
    const index_t m = 96 + 32 * s, n = 64 + 16 * s, k = 128 + 8 * s;
    const std::int64_t t0 = now_ns();
    const auto plan = ftgemm::build_plan<double>(kN, kN, m, n, k, o, true);
    build.push_back(double(now_ns() - t0) * 1e-3);
    if (plan.num_panels < 0) std::fprintf(stderr, "#");
  }
  run.set_layer("plan.build_us", median(build));
  ftgemm::PlanCache<double> cache;
  (void)cache.get_or_build(kN, kN, 1024, 1024, 1024, o, true);
  constexpr int kBatch = 1000;
  std::vector<double> hit;
  for (int r = 0; r < 21; ++r) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kBatch; ++i)
      (void)cache.get_or_build(kN, kN, 1024, 1024, 1024, o, true);
    hit.push_back(double(now_ns() - t0) / kBatch);
  }
  run.set_layer("plan.hit_ns", median(hit));
}

void opcache_probe(Run& run) {
  constexpr index_t m = 256, k = 256, n = 64;
  Options o;
  o.threads = 1;
  std::vector<double> encode;
  {
    SpanScope span("opcache", "make_resident_a");
    for (int r = 0; r < 7; ++r) {
      AlignedBuffer<double> w{std::size_t(m * k)};
      fill(w.data(), w.size(), 40 + std::uint64_t(r));
      const std::int64_t t0 = now_ns();
      ftgemm::ResidentOperand h =
          ftgemm::make_resident_a<double>(kN, kN, m, n, k, 1.0, w.data(), m, o);
      encode.push_back(double(now_ns() - t0) * 1e-6);
    }
  }
  run.set_layer("opcache.encode_ms", median(encode));

  AlignedBuffer<double> a{std::size_t(m * k)}, b{std::size_t(k * n)}, c{std::size_t(m * n)};
  fill(a.data(), a.size(), 50);
  fill(b.data(), b.size(), 51);
  ftgemm::ResidentOperand h =
      ftgemm::make_resident_a<double>(kN, kN, m, n, k, 1.0, a.data(), m, o);
  Options on = o, off = o;
  on.resident_a = off.resident_a = true;
  off.resident_verify = false;
  std::vector<double> t_on, t_off;
  SpanScope span("opcache", "resident_hit");
  for (int r = 0; r < 400; ++r) {
    Options& opt = r % 2 == 0 ? on : off;
    const std::int64_t t0 = now_ns();
    const FtReport rep = call_ft<double>(m, n, k, a.data(), m, b.data(), k,
                                         c.data(), m, opt, false);
    (r % 2 == 0 ? t_on : t_off).push_back(double(now_ns() - t0) * 1e-3);
    run.tally.add(rep.clean() ? Outcome::kOk : Outcome::kFlagged);
  }
  run.set_layer("opcache.verify_us", median(t_on) - median(t_off));
}

void runtime_probe(Run& run) {
  const ftgemm::RuntimeBackend backend =
      ftgemm::runtime::resolve_backend(ftgemm::RuntimeBackend::kAuto);
  auto empty = [](ftgemm::runtime::TeamMember&) {};
  SpanScope span("runtime", "run_team");
  for (int r = 0; r < 50; ++r) ftgemm::runtime::run_team(backend, 2, empty);
  std::vector<double> t;
  for (int r = 0; r < 2000; ++r) {
    const std::int64_t t0 = now_ns();
    ftgemm::runtime::run_team(backend, 2, empty);
    t.push_back(double(now_ns() - t0) * 1e-3);
  }
  run.set_layer("runtime.dispatch_us", median(t));
}

void inject_probe(Run& run) {
  (void)run;
  SpanScope span("inject", "count_injector_schedule");
  ftgemm::CountInjector inj(20, 9);
  std::vector<ftgemm::InjectionRecord> out;
  for (int call = 0; call < 200; ++call) {
    inj.begin_call(1024, 1024, 1024, 4);
    for (int panel = 0; panel < 4; ++panel) {
      for (std::int64_t i0 = 0; i0 < 1024; i0 += 192) {
        ftgemm::BlockContext ctx;
        ctx.panel = panel;
        ctx.i0 = i0;
        ctx.mlen = std::min<std::int64_t>(192, 1024 - i0);
        ctx.nlen = 1024;
        inj.plan_block(ctx, out);
      }
    }
    out.clear();
  }
}

void abft_probe(Run& run) {
  constexpr index_t m = 192, n = 192, k = 512;
  AlignedBuffer<double> a{std::size_t(m * k)}, b{std::size_t(k * n)},
      c{std::size_t(m * n)}, ref{std::size_t(m * n)};
  fill(a.data(), a.size(), 60);
  fill(b.data(), b.size(), 61);
  Options o;
  o.threads = 1;
  call_ori<double>(m, n, k, a.data(), m, b.data(), k, ref.data(), m, o);
  ftgemm::CountInjector inj(20, 62);
  o.injector = &inj;
  SpanScope span("abft", "ft_dgemm_reliable_probe");
  for (int r = 0; r < 20; ++r) {
    const FtReport rep = call_ft<double>(m, n, k, a.data(), m, b.data(), k,
                                         c.data(), m, o, true);
    run.tally.add(check_ft<double>(rep, c.data(), ref.data(), m, n, m,
                                   result_tolerance<double>(k, true)));
  }
}

}  // namespace

void run_probes(Run& run) {
  kernel_probe<double>(run, "f64");
  kernel_probe<float>(run, "f32");
  kernel_probe_i8(run);
  const double peak64 = run.layer["host.peak_gflops_f64"];
  const double peak8 = run.layer["host.peak_gops_i8"];
  if (peak64 > 0.0)
    run.set_layer("kernels.frac_peak_f64", run.layer["kernels.ft_gflops_f64"] / peak64);
  if (peak8 > 0.0)
    run.set_layer("kernels.frac_peak_i8", run.layer["kernels.ft_gops_i8"] / peak8);
  pack_probe<double, double>(run, "f64", true, true);
  pack_probe<ftgemm::bf16_t, float>(run, "bf16", false, false);
  pack_probe_i8(run);
  plan_probe(run);
  opcache_probe(run);
  runtime_probe(run);
  inject_probe(run);
  abft_probe(run);
}

}  // namespace pb
