// The plan layer (core/plan.hpp): plan determinism, PlanCache hit/miss
// accounting and LRU eviction, shape-aware blocking, and — the property the
// whole fast path rests on — bit-identical results between the
// single-macro-tile direct path and the general blocked path, Ori and FT,
// across a sweep of small shapes.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/context.hpp"
#include "core/plan.hpp"
#include "inject/injectors.hpp"
#include "test_common.hpp"

namespace ftgemm {
namespace {

using testing::GemmCase;
using testing::Problem;
using testing::gemm_tolerance;
using testing::reference_result;

TEST(PlanKey, EqualityAndHashCoverEveryField) {
  Options opts;
  opts.threads = 2;
  const PlanKey base =
      make_plan_key(Trans::kNoTrans, Trans::kTrans, 32, 48, 64, opts, true);
  EXPECT_EQ(base, make_plan_key(Trans::kNoTrans, Trans::kTrans, 32, 48, 64,
                                opts, true));
  EXPECT_EQ(PlanKeyHash{}(base),
            PlanKeyHash{}(make_plan_key(Trans::kNoTrans, Trans::kTrans, 32,
                                        48, 64, opts, true)));

  // Each varied input must produce a distinct key.
  EXPECT_FALSE(base == make_plan_key(Trans::kNoTrans, Trans::kTrans, 33, 48,
                                     64, opts, true));
  EXPECT_FALSE(base == make_plan_key(Trans::kTrans, Trans::kTrans, 32, 48,
                                     64, opts, true));
  EXPECT_FALSE(base == make_plan_key(Trans::kNoTrans, Trans::kNoTrans, 32,
                                     48, 64, opts, true));
  EXPECT_FALSE(base == make_plan_key(Trans::kNoTrans, Trans::kTrans, 32, 48,
                                     64, opts, false));
  Options other = opts;
  other.threads = 3;
  EXPECT_FALSE(base == make_plan_key(Trans::kNoTrans, Trans::kTrans, 32, 48,
                                     64, other, true));
  other = opts;
  other.tolerance_factor = 99.0;
  EXPECT_FALSE(base == make_plan_key(Trans::kNoTrans, Trans::kTrans, 32, 48,
                                     64, other, true));
  other = opts;
  other.small_fast_path = false;
  EXPECT_FALSE(base == make_plan_key(Trans::kNoTrans, Trans::kTrans, 32, 48,
                                     64, other, true));
  other = opts;
  other.isa = Isa::kScalar;
  EXPECT_FALSE(base == make_plan_key(Trans::kNoTrans, Trans::kTrans, 32, 48,
                                     64, other, true));
  // The resolved team runtime is part of the fingerprint (compare two
  // explicit backends so the ambient FTGEMM_RUNTIME default cannot mask
  // the field).
  Options omp_rt = opts;
  omp_rt.runtime = RuntimeBackend::kOpenMP;
  Options pool_rt = opts;
  pool_rt.runtime = RuntimeBackend::kPool;
  EXPECT_FALSE(make_plan_key(Trans::kNoTrans, Trans::kTrans, 32, 48, 64,
                             omp_rt, true) ==
               make_plan_key(Trans::kNoTrans, Trans::kTrans, 32, 48, 64,
                             pool_rt, true));
}

TEST(GemmPlan, SameInputsSamePlan) {
  Options opts;
  opts.threads = 2;
  for (const bool ft : {false, true}) {
    const GemmPlan<double> p1 = build_plan<double>(
        Trans::kNoTrans, Trans::kNoTrans, 96, 80, 300, opts, ft);
    const GemmPlan<double> p2 = build_plan<double>(
        Trans::kNoTrans, Trans::kNoTrans, 96, 80, 300, opts, ft);
    EXPECT_EQ(p1.key, p2.key);
    EXPECT_EQ(p1.isa, p2.isa);
    EXPECT_EQ(p1.blocking.mc, p2.blocking.mc);
    EXPECT_EQ(p1.blocking.nc, p2.blocking.nc);
    EXPECT_EQ(p1.blocking.kc, p2.blocking.kc);
    EXPECT_EQ(p1.blocking.mr, p2.blocking.mr);
    EXPECT_EQ(p1.blocking.nr, p2.blocking.nr);
    EXPECT_EQ(p1.threads, p2.threads);
    EXPECT_EQ(p1.num_panels, p2.num_panels);
    EXPECT_EQ(p1.fast_path, p2.fast_path);
    EXPECT_EQ(p1.tol_factor, p2.tol_factor);
    EXPECT_EQ(p1.workspace_bytes, p2.workspace_bytes);
  }
}

TEST(GemmPlan, ResolvesEveryDecision) {
  Options opts;
  opts.threads = 3;
  opts.isa = Isa::kScalar;
  const GemmPlan<double> plan = build_plan<double>(
      Trans::kNoTrans, Trans::kNoTrans, 512, 512, 900, opts, true);
  EXPECT_EQ(plan.isa, Isa::kScalar);
  EXPECT_EQ(plan.kernels.isa, Isa::kScalar);
  EXPECT_EQ(plan.threads, 3);
  EXPECT_GT(plan.tol_factor, 0.0);
  EXPECT_GT(plan.workspace_bytes, 0u);
  EXPECT_EQ(plan.num_panels,
            (900 + plan.blocking.kc - 1) / plan.blocking.kc);
  EXPECT_FALSE(plan.k_zero);

  const GemmPlan<double> ori = build_plan<double>(
      Trans::kNoTrans, Trans::kNoTrans, 512, 512, 900, opts, false);
  EXPECT_EQ(ori.tol_factor, 0.0) << "Ori plans carry no tolerance";
}

TEST(GemmPlan, FastPathOnlyForSingleMacroTileShapes) {
  Options opts;
  opts.threads = 4;
  // Comfortably inside one macro-tile: fast path, topology pinned to 1.
  const GemmPlan<double> small = build_plan<double>(
      Trans::kNoTrans, Trans::kNoTrans, 64, 48, 100, opts, true);
  ASSERT_TRUE(small.fast_path);
  EXPECT_EQ(small.threads, 1);
  EXPECT_EQ(small.num_panels, 1);

  // The shape-aware clamp only ever shrinks blocks toward the problem,
  // never past the cache-derived base — so exceeding a *base* block size in
  // any dimension rules the fast path out.
  const BlockingPlan base = make_plan(small.isa, 8);

  // Depth beyond the base KC: multiple verification panels, general path.
  const GemmPlan<double> deep = build_plan<double>(
      Trans::kNoTrans, Trans::kNoTrans, 64, 48, base.kc + 8, opts, true);
  EXPECT_FALSE(deep.fast_path);
  EXPECT_EQ(deep.threads, 4);
  EXPECT_GT(deep.num_panels, 1);

  // Wider than the base NC cannot be a single tile.
  const GemmPlan<double> wide = build_plan<double>(
      Trans::kNoTrans, Trans::kNoTrans, 64, base.nc + base.nr, 100, opts,
      true);
  EXPECT_FALSE(wide.fast_path);

  // Fitting one macro-tile is necessary but not sufficient: NC can span
  // thousands of columns, so a full-tile-sized problem can carry far more
  // work than one thread should own — the flop bound keeps it on the
  // threaded general path.
  const double tile_flops =
      2.0 * double(base.mc) * double(base.nc) * double(base.kc);
  if (tile_flops > kFastPathFlopCutoff) {
    const GemmPlan<double> heavy = build_plan<double>(
        Trans::kNoTrans, Trans::kNoTrans, base.mc, base.nc, base.kc, opts,
        true);
    EXPECT_FALSE(heavy.fast_path);
    EXPECT_EQ(heavy.threads, 4) << "a heavy single-tile shape keeps the "
                                   "caller's thread request";
  }

  // Degenerate and empty shapes never take it.
  EXPECT_FALSE(build_plan<double>(Trans::kNoTrans, Trans::kNoTrans, 64, 48,
                                  0, opts, true)
                   .fast_path);
  EXPECT_FALSE(build_plan<double>(Trans::kNoTrans, Trans::kNoTrans, 0, 48,
                                  100, opts, true)
                   .fast_path);

  // The opt-out knob forces the general path.
  Options no_fast = opts;
  no_fast.small_fast_path = false;
  const GemmPlan<double> general = build_plan<double>(
      Trans::kNoTrans, Trans::kNoTrans, 64, 48, 100, no_fast, true);
  EXPECT_FALSE(general.fast_path);
  EXPECT_EQ(general.threads, 4);
}

TEST(BlockingShapeAware, ClampsToProblemAndChangesNoLoopCounts) {
  const Isa isa = select_isa();
  const BlockingPlan base = make_plan(isa, 8);
  const BlockingPlan clamped = make_plan(isa, 8, 40, 24, 60);
  // Clamped blocks cover the problem in exactly one step per dimension,
  // like the base plan would.
  EXPECT_GE(clamped.mc, 40);
  EXPECT_GE(clamped.nc, 24);
  EXPECT_GE(clamped.kc, 60);
  EXPECT_LE(clamped.mc, base.mc);
  EXPECT_LE(clamped.nc, base.nc);
  EXPECT_LE(clamped.kc, base.kc);
  EXPECT_EQ(clamped.mc % clamped.mr, 0);
  EXPECT_EQ(clamped.nc % clamped.nr, 0);

  // A big problem is not clamped at all.
  const BlockingPlan big = make_plan(isa, 8, 100000, 100000, 100000);
  EXPECT_EQ(big.mc, base.mc);
  EXPECT_EQ(big.nc, base.nc);
  EXPECT_EQ(big.kc, base.kc);

  // Degenerate k keeps a positive verification interval.
  EXPECT_GE(make_plan(isa, 8, 8, 8, 0).kc, 1);
}

TEST(PlanCacheTest, HitMissAccountingAndReuse) {
  PlanCache<double> cache;
  Options opts;
  opts.threads = 1;
  const auto p1 = cache.get_or_build(Trans::kNoTrans, Trans::kNoTrans, 64,
                                     64, 64, opts, true);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 1u);

  const auto p2 = cache.get_or_build(Trans::kNoTrans, Trans::kNoTrans, 64,
                                     64, 64, opts, true);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(p1.get(), p2.get()) << "a hit returns the same immutable plan";

  // Different fingerprint dimensions each miss once.
  cache.get_or_build(Trans::kNoTrans, Trans::kNoTrans, 64, 64, 65, opts,
                     true);
  cache.get_or_build(Trans::kNoTrans, Trans::kNoTrans, 64, 64, 64, opts,
                     false);
  cache.get_or_build(Trans::kTrans, Trans::kNoTrans, 64, 64, 64, opts, true);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.size(), 4u);

  // All four recur as hits.
  cache.get_or_build(Trans::kNoTrans, Trans::kNoTrans, 64, 64, 65, opts,
                     true);
  cache.get_or_build(Trans::kNoTrans, Trans::kNoTrans, 64, 64, 64, opts,
                     false);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 4u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  cache.get_or_build(Trans::kNoTrans, Trans::kNoTrans, 64, 64, 64, opts,
                     true);
  EXPECT_EQ(cache.misses(), 5u) << "clear() drops plans, not counters";
}

TEST(PlanCacheTest, LruEvictsLeastRecentlyUsed) {
  PlanCache<float> cache(2);
  Options opts;
  opts.threads = 1;
  const auto shape = [&](index_t k) {
    return cache.get_or_build(Trans::kNoTrans, Trans::kNoTrans, 16, 16, k,
                              opts, false);
  };
  shape(1);  // miss
  shape(2);  // miss
  shape(1);  // hit (1 becomes most recent)
  shape(3);  // miss, evicts 2
  EXPECT_EQ(cache.size(), 2u);
  shape(1);  // still cached
  EXPECT_EQ(cache.hits(), 2u);
  shape(2);  // evicted above -> miss again
  EXPECT_EQ(cache.misses(), 4u);
}

// ---------------------------------------------------------------------------
// Fast-path vs general-path equivalence: the acceptance bar is bit-identical
// C for both Ori and FT, plus identical FT cleanliness, across shapes with
// edge tiles, transposes, and non-trivial alpha/beta.
// ---------------------------------------------------------------------------

template <typename T>
class PlanEquivalenceTyped : public ::testing::Test {};
using Precisions = ::testing::Types<float, double>;
TYPED_TEST_SUITE(PlanEquivalenceTyped, Precisions);

template <typename T>
void expect_bit_identical(const GemmCase& cs) {
  Problem<T> p(cs, 101);
  Matrix<T> c_fast = p.c.clone();
  Matrix<T> c_general = p.c.clone();

  Options fast_opts;     // default: planner may take the fast path
  Options general_opts;
  general_opts.small_fast_path = false;

  // Confirm the sweep actually exercises the branch under test.
  ASSERT_TRUE(build_plan<T>(cs.ta, cs.tb, cs.m, cs.n, cs.k, fast_opts, true)
                  .fast_path)
      << cs;
  ASSERT_FALSE(
      build_plan<T>(cs.ta, cs.tb, cs.m, cs.n, cs.k, general_opts, true)
          .fast_path)
      << cs;

  FtReport rep_fast, rep_general;
  if constexpr (sizeof(T) == 8) {
    rep_fast = ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                        cs.alpha, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
                        cs.beta, c_fast.data(), c_fast.ld(), fast_opts);
    rep_general = ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                           cs.alpha, p.a.data(), p.a.ld(), p.b.data(),
                           p.b.ld(), cs.beta, c_general.data(),
                           c_general.ld(), general_opts);
  } else {
    rep_fast = ft_sgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                        T(cs.alpha), p.a.data(), p.a.ld(), p.b.data(),
                        p.b.ld(), T(cs.beta), c_fast.data(), c_fast.ld(),
                        fast_opts);
    rep_general = ft_sgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                           T(cs.alpha), p.a.data(), p.a.ld(), p.b.data(),
                           p.b.ld(), T(cs.beta), c_general.data(),
                           c_general.ld(), general_opts);
  }
  EXPECT_TRUE(rep_fast.clean()) << cs;
  EXPECT_TRUE(rep_general.clean()) << cs;
  EXPECT_EQ(rep_fast.errors_detected, 0) << cs;
  EXPECT_EQ(rep_general.errors_detected, 0) << cs;
  ASSERT_EQ(0, std::memcmp(c_fast.data(), c_general.data(),
                           sizeof(T) * std::size_t(c_fast.ld()) *
                               std::size_t(cs.n)))
      << "FT fast path diverged from general path for " << cs;

  // Ori: same sweep, same bar.
  Matrix<T> o_fast = p.c.clone();
  Matrix<T> o_general = p.c.clone();
  if constexpr (sizeof(T) == 8) {
    dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha,
          p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), cs.beta, o_fast.data(),
          o_fast.ld(), fast_opts);
    dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha,
          p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), cs.beta,
          o_general.data(), o_general.ld(), general_opts);
  } else {
    sgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, T(cs.alpha),
          p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), T(cs.beta),
          o_fast.data(), o_fast.ld(), fast_opts);
    sgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, T(cs.alpha),
          p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), T(cs.beta),
          o_general.data(), o_general.ld(), general_opts);
  }
  ASSERT_EQ(0, std::memcmp(o_fast.data(), o_general.data(),
                           sizeof(T) * std::size_t(o_fast.ld()) *
                               std::size_t(cs.n)))
      << "Ori fast path diverged from general path for " << cs;

  // And both agree with the naive oracle to rounding.
  const Matrix<T> ref = reference_result(cs, p);
  const double tol = gemm_tolerance<T>(cs.k);
  EXPECT_LE(max_abs_diff(c_fast, ref), tol) << cs;
}

TYPED_TEST(PlanEquivalenceTyped, FastPathBitIdenticalToGeneralPath) {
  using T = TypeParam;
  std::vector<GemmCase> cases;
  // Small-shape sweep: register-tile multiples, edge tiles, tiny and
  // rectangular shapes, both transposes, assorted scalars.
  for (const index_t m : {1, 5, 16, 33}) {
    for (const index_t n : {1, 7, 24}) {
      for (const index_t k : {1, 13, 64}) {
        cases.push_back({m, n, k, Trans::kNoTrans, Trans::kNoTrans, 1.25,
                         -0.5});
      }
    }
  }
  cases.push_back({48, 48, 96, Trans::kTrans, Trans::kNoTrans, 2.0, 0.0});
  cases.push_back({48, 48, 96, Trans::kNoTrans, Trans::kTrans, -1.0, 1.0});
  cases.push_back({31, 29, 100, Trans::kTrans, Trans::kTrans, 0.75, 0.25});
  for (const GemmCase& cs : cases) expect_bit_identical<T>(cs);
}

TEST(PlanCacheTest, ClearProcessCachesRereadsEnvironment) {
  // The free functions' shared plan cache freezes env knobs at plan-build
  // time; clear_process_caches() is the documented way to re-read them.
  const index_t n = 32;
  Matrix<double> a(n, n), b(n, n), c(n, n);
  a.fill_random(1);
  b.fill_random(2);
  c.fill(0.0);
  const auto call = [&] {
    dgemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n, n, n, 1.0,
          a.data(), n, b.data(), n, 0.0, c.data(), n);
  };
  call();  // warm the shared cache for this shape

  // With the fast path switched off via env, a *stale* plan would still run
  // it; after the clear, the rebuilt plan must observe the override.
  ::setenv("FTGEMM_FAST_PATH_FLOPS", "1", 1);
  const GemmPlan<double> stale_view =
      build_plan<double>(Trans::kNoTrans, Trans::kNoTrans, n, n, n, {},
                         false);
  EXPECT_FALSE(stale_view.fast_path)
      << "a freshly built plan sees the env override";
  clear_process_caches();
  call();  // must not crash and must re-plan under the new env
  ::unsetenv("FTGEMM_FAST_PATH_FLOPS");
  clear_process_caches();
}

TEST(PlanCacheTest, ClearProcessCachesAlsoDropsResidentOperands) {
  // One clear covers both shared caches: the plans and the resident
  // operand payloads encoded against them.
  clear_process_caches();
  const index_t n = 48;
  Matrix<double> a(n, n), b(n, n), c(n, n);
  a.fill_random(11);
  b.fill_random(12);
  c.fill(0.0);
  Options opts;
  opts.resident_a = true;
  const auto call = [&] {
    return ft_dgemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n,
                    n, n, 1.0, a.data(), n, b.data(), n, 0.0, c.data(), n,
                    opts);
  };
  EXPECT_FALSE(call().resident_hit);
  EXPECT_TRUE(call().resident_hit);
  EXPECT_GE(process_context_cache<double>().operands().stats().entries, 1u);

  clear_process_caches();
  EXPECT_EQ(process_context_cache<double>().operands().stats().entries, 0u);
  const std::uint64_t misses_before =
      process_context_cache<double>().plan_misses();
  EXPECT_FALSE(call().resident_hit) << "cleared entry must re-encode";
  EXPECT_GT(process_context_cache<double>().plan_misses(), misses_before)
      << "cleared plan must rebuild too";
}

TEST(PlanFastPath, InjectedFaultsStillDetectedAndCorrected) {
  // The fast path keeps the fused checksums: a burst aimed at a
  // single-macro-tile problem must be corrected exactly as on the general
  // path.
  const GemmCase cs{48, 40, 96, Trans::kNoTrans, Trans::kNoTrans, 1.0, 0.5};
  Problem<double> p(cs, 404);
  const Matrix<double> ref = reference_result(cs, p);

  Options opts;
  ASSERT_TRUE(
      build_plan<double>(cs.ta, cs.tb, cs.m, cs.n, cs.k, opts, true).fast_path);
  CountInjector injector(3, 2026, 8.0);
  opts.injector = &injector;
  std::vector<CorrectionRecord> log;
  opts.correction_log = &log;

  Matrix<double> c = p.c.clone();
  const FtReport rep = ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n,
                                cs.k, cs.alpha, p.a.data(), p.a.ld(),
                                p.b.data(), p.b.ld(), cs.beta, c.data(),
                                c.ld(), opts);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(injector.injected_count(), 3u);
  EXPECT_EQ(rep.errors_corrected, 3);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_LE(max_abs_diff(c, ref), gemm_tolerance<double>(cs.k));
}

}  // namespace
}  // namespace ftgemm
