#include "core/plan.hpp"

#include <algorithm>

#include "abft/tolerance.hpp"
#include "runtime/topology.hpp"
#include "util/env.hpp"

namespace ftgemm {

PlanKey make_plan_key(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                      const Options& opts, bool ft) {
  PlanKey key;
  key.m = m;
  key.n = n;
  key.k = k;
  key.ta = ta;
  key.tb = tb;
  key.ft = ft;
  key.fast_path_allowed = opts.small_fast_path;
  key.threads = runtime::topology(opts.threads);
  key.runtime = int(runtime::resolve_backend(opts.runtime));
  key.isa_override = opts.isa ? int(*opts.isa) : -1;
  key.tolerance_factor = opts.tolerance_factor;
  return key;
}

template <typename S, typename C>
GemmPlan<S, C> build_plan(const PlanKey& key) {
  const Isa isa =
      key.isa_override >= 0 ? Isa(key.isa_override) : select_isa();
  return detail::build_plan_with_kernels<S, C>(key,
                                               get_kernel_set<S, C>(isa));
}

template <typename S, typename C>
GemmPlan<S, C> detail::build_plan_with_kernels(
    const PlanKey& key, const KernelSet<S, C>& kernels) {
  GemmPlan<S, C> plan;
  plan.key = key;
  plan.isa = kernels.isa;
  plan.kernels = kernels;
  // Blocking and tolerance both key on ComputeT: the widening sets' panels
  // are ComputeT-wide (narrow storage is widened on pack), and the checksum
  // arithmetic whose rounding the tolerance model bounds runs entirely in
  // ComputeT — a bf16-storage plan therefore shares the fp32 blocking and
  // the fp32 tolerance derivation exactly (DESIGN.md §10).  The AMX tier's
  // bf16 panels keep that blocking too (half its cache footprint; kc = 512
  // measured no faster per depth than 256 on Sapphire Rapids) and only
  // reshape it to their 32 x 32 tile and 32-deep kc granule below; for the
  // other sets the reshape is a no-op.
  plan.blocking =
      make_plan(plan.isa, int(sizeof(C)), key.m, key.n, key.k);
  {
    BlockingPlan& bp = plan.blocking;
    const auto round_up = [](index_t v, index_t q) {
      return ((std::max<index_t>(v, q) + q - 1) / q) * q;
    };
    bp.mr = plan.kernels.mr;
    bp.nr = plan.kernels.nr;
    bp.mc = round_up(bp.mc, bp.mr);
    bp.nc = round_up(bp.nc, bp.nr);
    if (key.k > bp.kc) bp.kc = round_up(bp.kc, plan.kernels.kc_quantum);
  }
  plan.k_zero = key.k <= 0;
  plan.num_panels =
      plan.k_zero ? 0 : (key.k + plan.blocking.kc - 1) / plan.blocking.kc;
  plan.tol_factor = !key.ft ? 0.0
                    : key.tolerance_factor > 0.0
                        ? key.tolerance_factor
                        : default_tolerance_factor_for<C>();

  // Single-macro-tile fast path: the whole problem fits one packed-A block
  // and one packed-B panel, so the cooperative-packing machinery would be
  // pure overhead.  Pin the topology to one thread (below the flop bound,
  // threading a problem is all barrier, no work — see kFastPathFlopCutoff
  // for why the tile test alone is not enough).
  const double flops =
      2.0 * double(key.m) * double(key.n) * double(key.k);
  plan.fast_path = key.fast_path_allowed && key.m > 0 && key.n > 0 &&
                   key.k > 0 && key.m <= plan.blocking.mc &&
                   key.n <= plan.blocking.nc && key.k <= plan.blocking.kc &&
                   flops <= env_double("FTGEMM_FAST_PATH_FLOPS",
                                       kFastPathFlopCutoff);
  plan.threads = plan.fast_path ? 1 : key.threads;
  plan.runtime = RuntimeBackend(key.runtime);

  // Workspace footprint (diagnostics; GemmContext::ensure is the allocation
  // authority and pads per-thread strides on top of these).
  const auto elems = [](index_t v) { return std::size_t(std::max<index_t>(v, 0)); };
  std::size_t ws = elems(plan.blocking.mc * plan.blocking.kc) *
                       std::size_t(plan.threads) +        // atilde per thread
                   elems(plan.blocking.kc * plan.blocking.nc);  // shared btilde
  if (key.ft) {
    const index_t lanes = plan.kernels.cr_lanes;
    const index_t kk = std::max<index_t>(key.k, 1);
    ws += elems(2 * key.m);                                // cc, ccref
    ws += elems(2 * key.n);                                // cr, crref
    ws += elems(key.n * lanes) * std::size_t(plan.threads);  // crref partials
    ws += elems(kk) + elems(kk) * std::size_t(plan.threads);  // ar + partials
    ws += elems(plan.blocking.kc);                         // bc
  }
  plan.workspace_bytes = ws * sizeof(C);
  plan.self_check = plan_self_check(plan);
  return plan;
}

template GemmPlan<float> build_plan<float, float>(const PlanKey&);
template GemmPlan<double> build_plan<double, double>(const PlanKey&);
template GemmPlan<bf16_t, float> build_plan<bf16_t, float>(const PlanKey&);
template GemmPlan<fp16_t, float> build_plan<fp16_t, float>(const PlanKey&);
template GemmPlan<bf16_t, float> detail::build_plan_with_kernels<bf16_t, float>(
    const PlanKey&, const KernelSet<bf16_t, float>&);

// int8 planning (declared in plan.hpp).  Differences from the generic body:
//  * blocking is derived at elem_bytes = 1 — the packed panels stay 8-bit,
//    which is the entire bandwidth argument of the int8 path — then
//    re-shaped onto the int8 register tiles (MR/NR differ per ISA from the
//    float layer's) and the packed depth quad;
//  * tol_factor is exactly 0.0: integer checksums make verification an
//    equality test, not a rounding-bound test (DESIGN.md §11);
//  * workspace is accounted in bytes directly (mixed 1/4/8-byte buffers).
template <>
GemmPlan<std::int8_t, std::int32_t> build_plan<std::int8_t, std::int32_t>(
    const PlanKey& key) {
  GemmPlan<std::int8_t, std::int32_t> plan;
  plan.key = key;
  plan.isa = key.isa_override >= 0 ? Isa(key.isa_override) : select_isa();
  plan.kernels = get_kernel_set<std::int8_t, std::int32_t>(plan.isa);
  plan.blocking = make_plan(plan.isa, 1, key.m, key.n, key.k);
  const auto round_up = [](index_t v, index_t q) {
    return ((std::max<index_t>(v, q) + q - 1) / q) * q;
  };
  plan.blocking.mr = plan.kernels.mr;
  plan.blocking.nr = plan.kernels.nr;
  plan.blocking.mc = round_up(plan.blocking.mc, plan.kernels.mr);
  plan.blocking.nc = round_up(plan.blocking.nc, plan.kernels.nr);
  plan.blocking.kc = round_up(plan.blocking.kc, kI8KQuad);
  plan.k_zero = key.k <= 0;
  plan.num_panels =
      plan.k_zero ? 0 : (key.k + plan.blocking.kc - 1) / plan.blocking.kc;
  plan.tol_factor = 0.0;

  const double flops =
      2.0 * double(key.m) * double(key.n) * double(key.k);
  plan.fast_path = key.fast_path_allowed && key.m > 0 && key.n > 0 &&
                   key.k > 0 && key.m <= plan.blocking.mc &&
                   key.n <= plan.blocking.nc && key.k <= plan.blocking.kc &&
                   flops <= env_double("FTGEMM_FAST_PATH_FLOPS",
                                       kFastPathFlopCutoff);
  plan.threads = plan.fast_path ? 1 : key.threads;
  plan.runtime = RuntimeBackend(key.runtime);

  // Byte-accurate workspace accounting (diagnostics; the GemmContext
  // specialization in core/context.hpp is the allocation authority).
  const auto elems = [](index_t v) {
    return std::size_t(std::max<index_t>(v, 0));
  };
  const std::size_t threads = std::size_t(plan.threads);
  std::size_t ws =
      elems(i8_tile_bytes(plan.blocking.kc, plan.blocking.mc)) * threads +
      elems(i8_tile_bytes(plan.blocking.kc, plan.blocking.nc));
  ws += elems(key.m * key.n) * sizeof(std::int32_t);  // biased accumulator
  ws += elems(key.m) * sizeof(std::int32_t);          // arow
  ws += elems(key.n) * sizeof(std::int32_t);          // bcol
  if (key.ft) {
    ws += elems(2 * key.m) * sizeof(std::int64_t);    // cc, ccref
    ws += elems(2 * key.n) * sizeof(std::int64_t);    // cr, crref
    ws += elems(key.n) * sizeof(std::int64_t) * threads;  // crref partials
    ws += elems(std::max<index_t>(key.k, 1)) * sizeof(std::int32_t);  // ar
    ws += elems(plan.blocking.kc) * sizeof(std::int32_t);             // bc
  }
  plan.workspace_bytes = ws;
  plan.self_check = plan_self_check(plan);
  return plan;
}

}  // namespace ftgemm
