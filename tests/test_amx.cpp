// AMX-BF16 tier tests (DESIGN.md §10, "AMX tier").  On hosts without the
// tier — no AMX in CPUID, tile state off in XCR0, the XTILEDATA permission
// refused, or FTGEMM_FORCE_ISA below avx512 — every test here skips with a
// reason, so a CI log shows the tier was not exercised.
//
//   1. Dispatch: get_kernel_set<bf16_t, float>(kAvx512) is the tile set,
//      every other level (and the internal accessor) the widening one.
//   2. Differential: the tile set against the widening AVX-512 set on the
//      same inputs (ta/tb, ragged m/n/k including k % 32 != 0, alpha != 1,
//      beta != 0, fast and general paths, one and two threads), within the
//      fp32 rounding budget, with clean FT reports and Ori == FT.
//   3. Residency: a resident hit is bit-identical to the cold call, and
//      payload flips are caught by the tier's integrity sums and healed.
//   4. Injection: faults are corrected to the oracle or flagged.
//   5. Tile state: no live tile data on the calling thread after a GEMM.
#include <gtest/gtest.h>

#include <cpuid.h>

#include <cstdint>
#include <string>
#include <vector>

#include "arch/cpu_features.hpp"
#include "core/context.hpp"
#include "core/driver.hpp"
#include "core/gemm.hpp"
#include "core/plan.hpp"
#include "inject/injectors.hpp"
#include "test_common.hpp"

namespace ftgemm {
namespace {

using testing::expect_matrix_near;
using testing::GemmCase;
using testing::gemm_tolerance;
using testing::seed_note;
using testing::test_seed;

/// Why the tier cannot run here, or empty when it can.
std::string amx_skip_reason() {
  if (!cpu_features().amx_bf16) {
    return "AMX-BF16 tier unavailable on this host (needs CPUID amx-tile + "
           "amx-bf16, XCR0 tile state and the XTILEDATA permission); the "
           "widening bf16 path runs instead";
  }
  if (select_isa() != Isa::kAvx512) {
    return "FTGEMM_FORCE_ISA selects a level below avx512, where bf16 runs "
           "the widening path";
  }
  return {};
}

#define REQUIRE_AMX_TIER()                                   \
  do {                                                       \
    const std::string reason = amx_skip_reason();            \
    if (!reason.empty()) GTEST_SKIP() << reason;             \
  } while (0)

Matrix<float> widened(const Matrix<bf16_t>& src) {
  Matrix<float> out(src.rows(), src.cols(), src.ld());
  for (index_t j = 0; j < src.cols(); ++j)
    for (index_t i = 0; i < src.ld(); ++i) out(i, j) = float(src(i, j));
  return out;
}

struct Bf16Problem {
  Matrix<bf16_t> a, b;
  Matrix<float> c;

  Bf16Problem(const GemmCase& cs, std::uint64_t seed) {
    const auto [am, an] = testing::a_dims(cs);
    const auto [bm, bn] = testing::b_dims(cs);
    a = Matrix<bf16_t>(am, an);
    b = Matrix<bf16_t>(bm, bn);
    c = Matrix<float>(cs.m, cs.n);
    a.fill_random(seed);
    b.fill_random(seed + 1);
    c.fill_random(seed + 2);
  }

  /// fp32 oracle on the bf16 operands (exact as fp32 values).
  [[nodiscard]] Matrix<float> reference(const GemmCase& cs) const {
    Matrix<float> ref = c.clone();
    const Matrix<float> wa = widened(a), wb = widened(b);
    testing::naive_ref_gemm<float>(cs.ta, cs.tb, cs.m, cs.n, cs.k,
                                   float(cs.alpha), wa.data(), wa.ld(),
                                   wb.data(), wb.ld(), float(cs.beta),
                                   ref.data(), ref.ld());
    return ref;
  }
};

/// Run one (FT-)GEMM through the executor with a given plan.
template <bool FT>
FtReport run_plan(const GemmPlan<bf16_t, float>& plan, const GemmCase& cs,
                  const Bf16Problem& p, Matrix<float>& c) {
  GemmContext<bf16_t, float> ctx;
  return detail::execute<bf16_t, FT, float>(
      plan, float(cs.alpha), p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
      float(cs.beta), c.data(), c.ld(), nullptr, nullptr, ctx);
}

PlanKey bf16_key(const GemmCase& cs, int threads, bool ft) {
  Options opts;
  opts.threads = threads;
  PlanKey key = make_plan_key(cs.ta, cs.tb, cs.m, cs.n, cs.k, opts, ft);
  key.sdtype = kStorageDtypeTag<bf16_t>;
  return key;
}

TEST(AmxTier, DispatchPicksTileKernelsOnlyAtAvx512) {
  REQUIRE_AMX_TIER();
  const KernelSet<bf16_t, float> amx = get_kernel_set<bf16_t, float>(Isa::kAvx512);
  EXPECT_TRUE(amx.pack.narrow_panels);
  EXPECT_NE(amx.macro_ft, nullptr);
  EXPECT_EQ(amx.pack.panel_elem_bytes, 2);
  const KernelSet<bf16_t, float> wide = avx512_widening_kernels_bf16();
  EXPECT_FALSE(wide.pack.narrow_panels);
  EXPECT_EQ(wide.macro_ft, nullptr);
  EXPECT_EQ(wide.ft, get_kernel_set<float>(Isa::kAvx512).ft);
  using Bf16Set = KernelSet<bf16_t, float>;
  const Bf16Set avx2 = get_kernel_set<bf16_t, float>(Isa::kAvx2);
  const Bf16Set scalar = get_kernel_set<bf16_t, float>(Isa::kScalar);
  EXPECT_FALSE(avx2.pack.narrow_panels);
  EXPECT_FALSE(scalar.pack.narrow_panels);
  // fp16 has no tile tier.
  const KernelSet<fp16_t, float> f16 =
      get_kernel_set<fp16_t, float>(Isa::kAvx512);
  EXPECT_FALSE(f16.pack.narrow_panels);
}

TEST(AmxTier, MatchesWideningSetWithinFp32Budget) {
  REQUIRE_AMX_TIER();
  const std::uint64_t seed = test_seed(2601);
  struct Case {
    GemmCase cs;
    int threads;
  };
  const std::vector<Case> cases = {
      {{7, 5, 3, Trans::kNoTrans, Trans::kNoTrans, 1.25, 0.25}, 1},
      {{33, 47, 61, Trans::kNoTrans, Trans::kNoTrans, 1.5, 0.5}, 1},
      {{64, 64, 32, Trans::kNoTrans, Trans::kTrans, 1.0, 0.0}, 1},
      {{50, 31, 17, Trans::kTrans, Trans::kTrans, -0.5, 2.0}, 1},
      {{100, 70, 300, Trans::kTrans, Trans::kNoTrans, -0.75, 1.0}, 1},
      {{129, 33, 545, Trans::kTrans, Trans::kTrans, 2.0, -1.0}, 2},
      {{161, 97, 290, Trans::kNoTrans, Trans::kTrans, 0.5, 0.75}, 2},
      {{256, 64, 512, Trans::kNoTrans, Trans::kNoTrans, 1.0, 0.0}, 2},
  };
  std::uint64_t ci = 0;
  for (const Case& c : cases) {
    const GemmCase& cs = c.cs;
    SCOPED_TRACE(cs.name() + " nt=" + std::to_string(c.threads) +
                 seed_note(seed));
    const Bf16Problem p(cs, seed + 10 * ci++);
    const Matrix<float> ref = p.reference(cs);
    const double tol = gemm_tolerance<float>(cs.k);
    const PlanKey key = bf16_key(cs, c.threads, true);
    const GemmPlan<bf16_t, float> amx = build_plan<bf16_t, float>(key);
    ASSERT_TRUE(amx.kernels.pack.narrow_panels);
    const GemmPlan<bf16_t, float> wide =
        detail::build_plan_with_kernels<bf16_t, float>(
            key, avx512_widening_kernels_bf16());
    ASSERT_FALSE(wide.kernels.pack.narrow_panels);

    Matrix<float> c_amx = p.c.clone(), c_wide = p.c.clone();
    const FtReport r_amx = run_plan<true>(amx, cs, p, c_amx);
    const FtReport r_wide = run_plan<true>(wide, cs, p, c_wide);
    EXPECT_TRUE(r_amx.clean());
    EXPECT_EQ(r_amx.errors_detected, 0);
    EXPECT_TRUE(r_wide.clean());
    expect_matrix_near(c_amx, c_wide, tol, "amx_vs_widening");
    expect_matrix_near(c_amx, ref, tol, "amx_vs_oracle");

    // Ori shares the tile epilogue and its summation order.
    Matrix<float> c_ori = p.c.clone();
    const GemmPlan<bf16_t, float> amx_ori =
        build_plan<bf16_t, float>(bf16_key(cs, c.threads, false));
    (void)run_plan<false>(amx_ori, cs, p, c_ori);
    expect_matrix_near(c_ori, c_amx, 0.0, "amx_ori_vs_ft");
  }
}

TEST(AmxTier, ResidentHitIsBitIdenticalToColdCall) {
  REQUIRE_AMX_TIER();
  const std::uint64_t seed = test_seed(2602);
  const std::vector<std::pair<GemmCase, int>> cases = {
      {{24, 16, 20, Trans::kNoTrans, Trans::kTrans, 1.25, 0.5}, 1},
      {{80, 48, 330, Trans::kTrans, Trans::kNoTrans, -1.0, 1.0}, 1},
      {{150, 70, 545, Trans::kNoTrans, Trans::kNoTrans, 0.75, 0.0}, 2},
      {{96, 33, 261, Trans::kTrans, Trans::kTrans, 2.0, -0.5}, 2},
  };
  std::uint64_t ci = 0;
  for (const auto& [cs, threads] : cases) {
    SCOPED_TRACE(cs.name() + " nt=" + std::to_string(threads) +
                 seed_note(seed));
    clear_process_caches();
    const Bf16Problem p(cs, seed + 10 * ci++);
    Options opts;
    opts.threads = threads;
    const auto call = [&](Matrix<float>& c, const Options& o) {
      return ft_gemm_bf16(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                          float(cs.alpha), p.a.data(), p.a.ld(), p.b.data(),
                          p.b.ld(), float(cs.beta), c.data(), c.ld(), o);
    };
    Matrix<float> c_cold = p.c.clone();
    EXPECT_TRUE(call(c_cold, opts).clean());
    Options ropts = opts;
    ropts.resident_a = true;
    Matrix<float> c_miss = p.c.clone(), c_hit = p.c.clone();
    const FtReport miss = call(c_miss, ropts);
    const FtReport hit = call(c_hit, ropts);
    EXPECT_FALSE(miss.resident_hit);
    EXPECT_TRUE(hit.resident_hit);
    EXPECT_EQ(hit.resident_heals, 0);
    EXPECT_TRUE(hit.clean());
    expect_matrix_near(c_miss, c_cold, 0.0, "resident_miss");
    expect_matrix_near(c_hit, c_cold, 0.0, "resident_hit");
  }
  clear_process_caches();
}

TEST(AmxTier, InjectedFaultsCorrectedOrFlagged) {
  REQUIRE_AMX_TIER();
  const std::uint64_t seed = test_seed(2603);
  for (const GemmCase& cs :
       {GemmCase{64, 48, 160, Trans::kNoTrans, Trans::kNoTrans, 1.0, 0.0},
        GemmCase{160, 96, 600, Trans::kTrans, Trans::kNoTrans, 1.5, 0.5}}) {
    SCOPED_TRACE(cs.name() + seed_note(seed));
    const Bf16Problem p(cs, seed);
    const Matrix<float> ref = p.reference(cs);
    const auto call = [&](Matrix<float>& c, const Options& o) {
      return ft_gemm_bf16(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                          float(cs.alpha), p.a.data(), p.a.ld(), p.b.data(),
                          p.b.ld(), float(cs.beta), c.data(), c.ld(), o);
    };
    {
      DeterministicInjector inj(
          {{InjectionKind::kAddDelta, 0, 10, 20, 2.5, 0}});
      Options opts;
      opts.injector = &inj;
      Matrix<float> c = p.c.clone();
      const FtReport rep = call(c, opts);
      EXPECT_TRUE(rep.clean());
      EXPECT_GE(rep.errors_corrected, 1);
      expect_matrix_near(c, ref, gemm_tolerance<float>(cs.k), "corrected");
    }
    Xoshiro256 rng(seed ^ 0xA3Bu);
    for (int iter = 0; iter < 4; ++iter) {
      CountInjector inj(int(1 + rng.bounded(4)), rng.next(), 5.0);
      Options opts;
      opts.injector = &inj;
      Matrix<float> c = p.c.clone();
      const FtReport rep = call(c, opts);
      if (rep.clean()) {
        EXPECT_LE(max_rel_diff(c, ref),
                  std::max(gemm_tolerance<float>(cs.k), 1e-5))
            << "iter=" << iter;
      }
    }
  }
}

TEST(AmxTier, ResidentPayloadFlipsAreHealed) {
  REQUIRE_AMX_TIER();
  // The tier's integrity sums run over its pair-layout panels: a high
  // exponent-bit flip anywhere in the payload (live element or depth
  // padding) must be caught on the next hit and healed by re-encoding.
  const std::uint64_t seed = test_seed(2605);
  for (const GemmCase& cs :
       {GemmCase{48, 32, 40, Trans::kNoTrans, Trans::kNoTrans, 1.0, 0.0},
        GemmCase{96, 56, 330, Trans::kTrans, Trans::kNoTrans, 1.5, 0.5}}) {
    SCOPED_TRACE(cs.name() + seed_note(seed));
    clear_process_caches();
    const Bf16Problem p(cs, seed);
    Options opts;
    opts.resident_a = true;
    const auto call = [&](Matrix<float>& c, const Options& o) {
      return ft_gemm_bf16(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                          float(cs.alpha), p.a.data(), p.a.ld(), p.b.data(),
                          p.b.ld(), float(cs.beta), c.data(), c.ld(), o);
    };
    Matrix<float> c_cold = p.c.clone();
    EXPECT_FALSE(call(c_cold, opts).resident_hit);
    PanelBitFlipInjector injector(/*flips=*/1, seed, /*bit=*/14);
    Options strike = opts;
    strike.memory_injector = &injector;
    for (int round = 0; round < 4; ++round) {
      Matrix<float> c = p.c.clone();
      const FtReport rep = call(c, strike);
      EXPECT_TRUE(rep.resident_hit);
      EXPECT_EQ(rep.resident_heals + rep.resident_ecc_corrected, 1)
          << "round " << round;
      EXPECT_TRUE(rep.clean());
      expect_matrix_near(c, c_cold, 0.0, "healed hit " + std::to_string(round));
    }
    EXPECT_EQ(injector.applied_count(), 4u);
  }
  clear_process_caches();
}

/// XINUSE (XGETBV with ECX = 1), or nothing when the CPU lacks it.
bool tile_data_in_use(bool& known) {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  known = __get_cpuid_count(0xD, 1, &eax, &ebx, &ecx, &edx) &&
          (eax & (1u << 2)) != 0;
  if (!known) return false;
  std::uint32_t lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(1));
  return (lo & (1u << 18)) != 0;  // XTILEDATA
}

TEST(AmxTier, NoLiveTileStateAfterGemmReturns) {
  REQUIRE_AMX_TIER();
  bool known = false;
  (void)tile_data_in_use(known);
  if (!known) GTEST_SKIP() << "CPU lacks XGETBV(ECX=1) (XINUSE)";
  const std::uint64_t seed = test_seed(2604);
  for (const int threads : {1, 2}) {
    for (const GemmCase& cs :
         {GemmCase{32, 32, 64, Trans::kNoTrans, Trans::kNoTrans, 1.0, 0.0},
          GemmCase{200, 120, 700, Trans::kNoTrans, Trans::kTrans, 1.0, 1.0}}) {
      SCOPED_TRACE(cs.name() + " nt=" + std::to_string(threads));
      const Bf16Problem p(cs, seed);
      Options opts;
      opts.threads = threads;
      Matrix<float> c = p.c.clone();
      EXPECT_TRUE(ft_gemm_bf16(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n,
                               cs.k, float(cs.alpha), p.a.data(), p.a.ld(),
                               p.b.data(), p.b.ld(), float(cs.beta), c.data(),
                               c.ld(), opts)
                      .clean());
      EXPECT_FALSE(tile_data_in_use(known)) << "TILERELEASE missing";
      gemm_bf16(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                float(cs.alpha), p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
                float(cs.beta), c.data(), c.ld(), opts);
      EXPECT_FALSE(tile_data_in_use(known)) << "TILERELEASE missing (Ori)";
    }
  }
}

}  // namespace
}  // namespace ftgemm
