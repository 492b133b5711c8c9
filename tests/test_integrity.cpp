// Resident-operand integrity sweeps (PackSet::panel_sums), for every
// precision and every ISA this host runs:
//   - unit level: each MR-tile SIMD sweep agrees with the portable loop of
//     the scalar set (to rounding — the two sum in different orders), is
//     deterministic, and accumulates (+=) like the contract says;
//   - end to end: a resident weight of ragged shape (m not a multiple of
//     the tile height, k not a multiple of the vector width) heals a single
//     sign or exponent flip at its last live row, its last depth and a
//     zero-padding element — exactly one heal each, C bit-identical to a
//     cold call — and never heals across 50 clean hits.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "arch/cpu_features.hpp"
#include "core/context.hpp"
#include "core/gemm.hpp"
#include "core/gemm_i8.hpp"
#include "kernels/microkernel.hpp"
#include "test_common.hpp"
#include "util/rng.hpp"

namespace ftgemm {
namespace {

std::vector<Isa> executable_isas() {
  std::vector<Isa> v{Isa::kScalar};
  if (cpu_features().has_avx2_kernel_support()) v.push_back(Isa::kAvx2);
  if (cpu_features().has_avx512_kernel_support()) v.push_back(Isa::kAvx512);
  return v;
}

// ---------------------------------------------------------------------------
// Unit level: the MR-tile sweeps against the portable loop.
// ---------------------------------------------------------------------------

template <typename S, typename C>
void expect_sweep_matches_portable(const PackSet<S, C>& simd,
                                   const PackSet<S, C>& ref, index_t mr,
                                   const std::string& what) {
  ASSERT_NE(simd.panel_sums, nullptr) << what;
  ASSERT_NE(ref.panel_sums, nullptr) << what;
  Xoshiro256 rng(77);
  // Depths around the sweep's 8/16-column blocks and odd tails; tile
  // counts from one up.
  for (const index_t klen : {1, 3, 7, 8, 9, 15, 16, 17, 33, 75}) {
    for (const index_t tiles : {1, 2, 5}) {
      std::vector<S> panel(std::size_t(tiles * mr * klen));
      for (S& v : panel) v = S(float(rng.uniform(-1.0, 1.0)));
      // Start from nonzero sums: panel_sums accumulates.
      std::vector<C> rs_want(std::size_t(tiles * mr));
      std::vector<C> cs_want(static_cast<std::size_t>(klen));
      for (C& v : rs_want) v = C(rng.uniform(-4.0, 4.0));
      for (C& v : cs_want) v = C(rng.uniform(-4.0, 4.0));
      std::vector<C> rs_got = rs_want, cs_got = cs_want;
      ref.panel_sums(panel.data(), tiles, klen, mr, rs_want.data(),
                     cs_want.data());
      simd.panel_sums(panel.data(), tiles, klen, mr, rs_got.data(),
                      cs_got.data());
      const double tol = sizeof(C) == 8 ? 1e-12 : 1e-4;
      const std::string at = what + " klen=" + std::to_string(klen) +
                             " tiles=" + std::to_string(tiles);
      for (std::size_t i = 0; i < rs_want.size(); ++i) {
        EXPECT_NEAR(double(rs_got[i]), double(rs_want[i]),
                    tol * (1.0 + double(klen)))
            << at << " row " << i;
      }
      for (std::size_t i = 0; i < cs_want.size(); ++i) {
        EXPECT_NEAR(double(cs_got[i]), double(cs_want[i]),
                    tol * (1.0 + double(tiles * mr)))
            << at << " depth " << i;
      }
      // Deterministic: a second sweep from the same start is bit-equal.
      std::vector<C> rs_once(rs_got.size(), C(0)), rs_again = rs_once;
      std::vector<C> cs_once(cs_got.size(), C(0)), cs_again = cs_once;
      simd.panel_sums(panel.data(), tiles, klen, mr, rs_once.data(),
                      cs_once.data());
      simd.panel_sums(panel.data(), tiles, klen, mr, rs_again.data(),
                      cs_again.data());
      EXPECT_EQ(rs_once, rs_again) << at;
      EXPECT_EQ(cs_once, cs_again) << at;
    }
  }
}

TEST(IntegritySweep, MrTileSweepsMatchThePortableLoop) {
  for (const Isa isa : executable_isas()) {
    SCOPED_TRACE("isa=" + std::string(isa_name(isa)));
    const index_t mr64 = get_kernel_set<double>(isa).mr;
    const index_t mr32 = get_kernel_set<float>(isa).mr;
    expect_sweep_matches_portable(get_pack_set<double>(isa),
                                  get_pack_set<double>(Isa::kScalar), mr64,
                                  "f64");
    expect_sweep_matches_portable(get_pack_set<float>(isa),
                                  get_pack_set<float>(Isa::kScalar), mr32,
                                  "f32");
    expect_sweep_matches_portable((get_pack_set<fp16_t, float>(isa)),
                                  (get_pack_set<fp16_t, float>(Isa::kScalar)),
                                  mr32, "fp16");
    // bf16 at AVX-512 may be the AMX tier (pair layout, covered end to end
    // below); its widening MR-tile set is checked here either way.
    const PackSet<bf16_t, float> bf16 =
        isa == Isa::kAvx512 ? avx512_widening_kernels_bf16().pack
                            : get_pack_set<bf16_t, float>(isa);
    expect_sweep_matches_portable(bf16,
                                  (get_pack_set<bf16_t, float>(Isa::kScalar)),
                                  mr32, "bf16");
    // Tile heights off the shipped ones take the portable loop.
    expect_sweep_matches_portable(get_pack_set<double>(isa),
                                  get_pack_set<double>(Isa::kScalar), 6,
                                  "f64 mr=6");
  }
}

// ---------------------------------------------------------------------------
// End to end: aimed flips on resident payloads.
// ---------------------------------------------------------------------------

/// Flips one chosen bit of one chosen resident-payload element on the next
/// cache hit, then disarms.
class AimedFlip final : public MemoryFaultInjector {
 public:
  void aim(std::size_t elem, int bit) {
    const std::lock_guard<std::mutex> lock(mutex_);
    elem_ = elem;
    bit_ = bit;
    armed_ = true;
  }

  void plan_flips(const MemoryStrikeContext& ctx,
                  std::vector<PanelFlip>& out) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (ctx.surface != MemorySurface::kResidentPanel || !armed_) return;
    armed_ = false;
    out.push_back({elem_, bit_});
    canonicalize_flips(ctx, out);
  }

 private:
  std::mutex mutex_;
  std::size_t elem_ = 0;
  int bit_ = 0;
  bool armed_ = false;
};

/// One precision's FT call (column-major, NoTrans) on the given operands.
template <typename S, typename Out>
FtReport run_ft(index_t m, index_t n, index_t k, const S* a, const S* b,
                Out* c, const Options& opts) {
  constexpr Layout kCol = Layout::kColMajor;
  constexpr Trans kN = Trans::kNoTrans;
  if constexpr (std::is_same_v<S, double>) {
    return ft_dgemm(kCol, kN, kN, m, n, k, 0.5, a, m, b, k, 0.25, c, m, opts);
  } else if constexpr (std::is_same_v<S, float>) {
    return ft_sgemm(kCol, kN, kN, m, n, k, 0.5f, a, m, b, k, 0.25f, c, m,
                    opts);
  } else if constexpr (std::is_same_v<S, bf16_t>) {
    return ft_gemm_bf16(kCol, kN, kN, m, n, k, 0.5f, a, m, b, k, 0.25f, c, m,
                        opts);
  } else if constexpr (std::is_same_v<S, fp16_t>) {
    return ft_gemm_f16(kCol, kN, kN, m, n, k, 0.5f, a, m, b, k, 0.25f, c, m,
                       opts);
  } else {
    QuantParams qp;
    qp.scale_a = 0.02f;
    qp.scale_b = 0.03f;
    qp.zero_a = 3;
    qp.zero_b = -5;
    return ft_gemm_i8(kCol, kN, kN, m, n, k, 0.5f, a, m, b, k, 0.25f, c, m,
                      qp, opts);
  }
}

template <typename S>
S random_element(Xoshiro256& rng) {
  if constexpr (std::is_same_v<S, std::int8_t>) {
    return std::int8_t(int(rng.bounded(256)) - 128);
  } else {
    return S(float(rng.uniform(-1.0, 1.0)));
  }
}

/// A value whose sign and top exponent bit both move any float sum it is
/// part of by far more than a rounding step.
template <typename S>
S struck_value() {
  if constexpr (std::is_same_v<S, std::int8_t>) {
    return std::int8_t(77);
  } else {
    return S(0.75f);
  }
}

template <typename S, typename C>
void run_aimed_flips(Isa isa, index_t m, index_t k) {
  using Out = std::conditional_t<std::is_same_v<S, double>, double, float>;
  const index_t n = 24;
  const std::string where = "isa=" + std::string(isa_name(isa)) +
                            " m=" + std::to_string(m) +
                            " k=" + std::to_string(k);
  SCOPED_TRACE(where);
  clear_process_caches();
  Xoshiro256 rng(testing::test_seed(4242) + std::uint64_t(m * 131 + k));
  std::vector<S> a(std::size_t(m * k)), b(std::size_t(k * n));
  for (S& v : a) v = random_element<S>(rng);
  for (S& v : b) v = random_element<S>(rng);
  // The struck live elements hold a known value (see struck_value).
  a[std::size_t(m - 1)] = struck_value<S>();              // last row, depth 0
  a[std::size_t((k - 1) * m)] = struck_value<S>();        // row 0, last depth
  std::vector<Out> c0(std::size_t(m * n));
  for (Out& v : c0) v = Out(rng.uniform(-1.0, 1.0));

  Options opts;
  opts.threads = 1;
  opts.isa = isa;
  std::vector<Out> cold = c0;
  ASSERT_TRUE((run_ft<S>(m, n, k, a.data(), b.data(), cold.data(), opts)
                   .clean()));

  Options res = opts;
  res.resident_a = true;
  std::vector<Out> c = c0;
  FtReport rep = run_ft<S>(m, n, k, a.data(), b.data(), c.data(), res);
  ASSERT_FALSE(rep.resident_hit) << "the first resident call encodes";
  EXPECT_EQ(c, cold) << "encoding call";

  // 50 clean hits: never a heal, always the cold bits.
  for (int r = 0; r < 50; ++r) {
    c = c0;
    rep = run_ft<S>(m, n, k, a.data(), b.data(), c.data(), res);
    ASSERT_TRUE(rep.resident_hit) << "clean hit " << r;
    ASSERT_EQ(rep.resident_heals, 0) << "clean hit " << r;
    ASSERT_EQ(c, cold) << "clean hit " << r;
  }

  // Payload geometry of the plan the calls run (what the cache packed).
  const auto plan =
      process_context_cache<S, C>().plan(Trans::kNoTrans, Trans::kNoTrans, m,
                                         n, k, res, true);
  const index_t mr = plan->blocking.mr, kc = plan->blocking.kc;
  const index_t tiles = (m + mr - 1) / mr;
  ASSERT_NE(m % mr, 0) << "the shape must leave padding rows (mr=" << mr
                       << ")";
  const auto elem_of = [&](index_t i, index_t kk) {
    const index_t p = kk / kc * kc;
    const index_t pinc = std::min(kc, k - p);
    return std::size_t(tiles * mr * p +
                       plan->kernels.pack.a_index(i, kk - p, pinc, mr));
  };
  constexpr int kBits = int(8 * sizeof(S));
  struct Strike {
    const char* what;
    index_t row, depth;
    int bit;
  };
  const Strike strikes[] = {
      {"last live row, sign", m - 1, 0, kBits - 1},
      {"last live row, exponent", m - 1, 0, kBits - 2},
      {"last depth, sign", 0, k - 1, kBits - 1},
      {"last depth, exponent", 0, k - 1, kBits - 2},
      // A zero's sign flip moves no float sum and no product (-0 adds like
      // +0); its exponent flip makes it a power of two.
      {"padding row, exponent", tiles * mr - 1, 0, kBits - 2},
  };
  AimedFlip flip;
  res.memory_injector = &flip;
  for (const Strike& s : strikes) {
    SCOPED_TRACE(s.what);
    const std::size_t elem = elem_of(s.row, s.depth);
    ASSERT_LT(elem, std::size_t(tiles * mr * k)) << "inside the payload";
    flip.aim(elem, s.bit);
    c = c0;
    rep = run_ft<S>(m, n, k, a.data(), b.data(), c.data(), res);
    EXPECT_TRUE(rep.resident_hit);
    EXPECT_EQ(rep.resident_heals, 1) << "elem " << elem << " bit " << s.bit;
    EXPECT_EQ(c, cold) << "C after the heal";
  }
  EXPECT_EQ(flip.applied_count(), std::size(strikes));
}

template <typename S, typename C>
void run_all_isas() {
  for (const Isa isa : executable_isas()) {
    // 101 rows leave padding under every tile height (4..32); 75 and 517
    // depths are odd, so no vector width or depth quad divides them, and
    // 517 spans two rank-KC panels wherever kc < 517.
    run_aimed_flips<S, C>(isa, 101, 75);
    run_aimed_flips<S, C>(isa, 101, 517);
  }
}

TEST(IntegritySweep, F64FlipsHealCleanHitsNever) {
  run_all_isas<double, double>();
}
TEST(IntegritySweep, F32FlipsHealCleanHitsNever) {
  run_all_isas<float, float>();
}
TEST(IntegritySweep, Bf16FlipsHealCleanHitsNever) {
  run_all_isas<bf16_t, float>();
}
TEST(IntegritySweep, Fp16FlipsHealCleanHitsNever) {
  run_all_isas<fp16_t, float>();
}
TEST(IntegritySweep, I8FlipsHealCleanHitsNever) {
  run_all_isas<std::int8_t, std::int32_t>();
}

}  // namespace
}  // namespace ftgemm
