// Memory-fault model unit tests (DESIGN.md §12): the SEC-DED (72,64) code,
// the memory-injector canonicalization contract (net-bit ground truth), the
// ECC-coded resident-operand path, the transient packed-panel strike
// surfaces on the exact int8 path and on the bf16 AMX tier's tile-layout
// panels, and the plan-cache self-check heal.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "arch/cpu_features.hpp"
#include "core/context.hpp"
#include "core/gemm.hpp"
#include "core/gemm_i8.hpp"
#include "core/secded.hpp"
#include "inject/injectors.hpp"
#include "inject/memory_campaign.hpp"
#include "test_common.hpp"
#include "util/env.hpp"

namespace ftgemm {
namespace {

using testing::seed_note;
using testing::test_seed;

// ---------------------------------------------------------------------------
// SEC-DED codec
// ---------------------------------------------------------------------------

TEST(SecDed, CleanWordsRoundTrip) {
  const std::uint64_t words[] = {0ull, ~0ull, 0x0123456789abcdefull,
                                 0x8000000000000001ull, 42ull};
  for (std::uint64_t orig : words) {
    std::uint64_t w = orig;
    std::uint8_t par = secded::encode(w);
    EXPECT_EQ(secded::check_correct(w, par), secded::Outcome::kClean);
    EXPECT_EQ(w, orig);
    EXPECT_EQ(par, secded::encode(orig));
  }
}

TEST(SecDed, EverySingleDataBitIsCorrected) {
  const std::uint64_t orig = 0xfeedfacecafe1234ull;
  for (int bit = 0; bit < 64; ++bit) {
    std::uint64_t w = orig ^ (std::uint64_t(1) << bit);
    std::uint8_t par = secded::encode(orig);
    EXPECT_EQ(secded::check_correct(w, par), secded::Outcome::kCorrectedData)
        << "bit " << bit;
    EXPECT_EQ(w, orig) << "bit " << bit;
    EXPECT_EQ(par, secded::encode(orig)) << "bit " << bit;
  }
}

TEST(SecDed, EveryParityByteBitIsCorrectedWithoutTouchingData) {
  const std::uint64_t orig = 0x0123456789abcdefull;
  for (int bit = 0; bit < 8; ++bit) {
    std::uint64_t w = orig;
    std::uint8_t par = std::uint8_t(secded::encode(orig) ^ (1u << bit));
    EXPECT_EQ(secded::check_correct(w, par),
              secded::Outcome::kCorrectedParity)
        << "parity bit " << bit;
    EXPECT_EQ(w, orig) << "parity bit " << bit;
    EXPECT_EQ(par, secded::encode(orig)) << "parity bit " << bit;
  }
}

TEST(SecDed, DoubleBitFlipsAreDetectedNotMiscorrected) {
  const std::uint64_t orig = 0xdeadbeefdeadbeefull;
  const std::uint8_t good_par = secded::encode(orig);
  // Data-data doubles across a spread of bit pairs.
  for (int lo = 0; lo < 64; lo += 7) {
    for (int hi = lo + 1; hi < 64; hi += 13) {
      std::uint64_t w =
          orig ^ (std::uint64_t(1) << lo) ^ (std::uint64_t(1) << hi);
      std::uint8_t par = good_par;
      EXPECT_EQ(secded::check_correct(w, par),
                secded::Outcome::kDetectedDouble)
          << "bits " << lo << "," << hi;
      // The word is left for the caller's re-encode heal, untouched.
      EXPECT_EQ(w, orig ^ (std::uint64_t(1) << lo) ^ (std::uint64_t(1) << hi));
    }
  }
  // Data + parity double.
  std::uint64_t w = orig ^ (std::uint64_t(1) << 17);
  std::uint8_t par = std::uint8_t(good_par ^ 0x04u);
  EXPECT_EQ(secded::check_correct(w, par), secded::Outcome::kDetectedDouble);
}

TEST(SecDed, BufferScrubCorrectsSinglesCountsDoublesAndCoversTail) {
  // 37 bytes = 4 full words + a 5-byte zero-padded tail word.
  constexpr std::size_t kBytes = 37;
  std::vector<unsigned char> buf(kBytes);
  for (std::size_t i = 0; i < kBytes; ++i)
    buf[i] = (unsigned char)(i * 37 + 11);
  const std::vector<unsigned char> orig = buf;
  std::vector<std::uint8_t> par(secded::parity_bytes(kBytes));
  ASSERT_EQ(par.size(), 5u);
  secded::encode_buffer(buf.data(), kBytes, par.data());

  buf[3] ^= 0x10;   // single in word 0
  buf[17] ^= 0x01;  // single in word 2
  buf[36] ^= 0x80;  // single in the partial tail word
  buf[8] ^= 0x03;   // double inside word 1

  const secded::ScrubResult res =
      secded::scrub_buffer(buf.data(), kBytes, par.data());
  EXPECT_EQ(res.corrected, 3u);
  EXPECT_EQ(res.uncorrectable, 1u);
  // The three single-struck words were restored bit-exactly.
  EXPECT_EQ(buf[3], orig[3]);
  EXPECT_EQ(buf[17], orig[17]);
  EXPECT_EQ(buf[36], orig[36]);
  // The double-struck word is exactly as corrupted (heal is the caller's).
  EXPECT_EQ(buf[8], (unsigned char)(orig[8] ^ 0x03));
}

TEST(SecDed, FlipValueBitXorsExactlyOneBit) {
  double d = 1.0;
  std::uint64_t before, after;
  std::memcpy(&before, &d, sizeof(d));
  flip_value_bit(d, 52);
  std::memcpy(&after, &d, sizeof(d));
  EXPECT_EQ(before ^ after, std::uint64_t(1) << 52);
  flip_value_bit(d, 52);
  EXPECT_EQ(d, 1.0);  // an XOR flip is its own inverse

  std::int8_t b = 5;
  flip_value_bit(b, 7);
  EXPECT_EQ(std::uint8_t(b), std::uint8_t(5u ^ 0x80u));
}

// ---------------------------------------------------------------------------
// Injector canonicalization contract (the ground-truth bugfixes)
// ---------------------------------------------------------------------------

/// Regression: drawing far more flips than the surface holds distinct
/// (elem, bit) slots used to emit duplicate pairs whose XORs self-cancel,
/// so applied_count() overstated the net corruption.  The canonicalized
/// plan must equal the set of bits that actually change.
TEST(MemInjectorContract, DuplicateDrawsNeverSelfCancel) {
  const std::uint64_t seed = test_seed(404);
  PanelBitFlipInjector injector(/*flips=*/64, seed, /*bit=*/61);
  const MemoryStrikeContext ctx{MemorySurface::kResidentPanel, /*elems=*/4,
                                /*elem_bits=*/64};
  std::vector<PanelFlip> flips;
  injector.plan_flips(ctx, flips);

  // All 64 draws target bit 61 of one of 4 elements: at most 4 unique pairs
  // can survive, and with 64 draws all 4 almost surely do.
  ASSERT_FALSE(flips.empty()) << seed_note(seed);
  EXPECT_LE(flips.size(), 4u) << seed_note(seed);
  for (std::size_t i = 0; i < flips.size(); ++i) {
    EXPECT_LT(flips[i].elem, 4u) << seed_note(seed);
    EXPECT_EQ(flips[i].bit, 61) << seed_note(seed);
    if (i > 0) {
      EXPECT_TRUE(flips[i - 1].elem < flips[i].elem ||
                  (flips[i - 1].elem == flips[i].elem &&
                   flips[i - 1].bit < flips[i].bit))
          << "not sorted/unique" << seed_note(seed);
    }
  }

  // Ground truth check: applying the plan changes exactly plan-size bits.
  std::uint64_t buf[4] = {1, 2, 3, 4};
  const std::uint64_t orig[4] = {1, 2, 3, 4};
  for (const PanelFlip& f : flips) flip_value_bit(buf[f.elem], f.bit);
  int changed = 0;
  for (int e = 0; e < 4; ++e)
    changed += __builtin_popcountll(buf[e] ^ orig[e]);
  EXPECT_EQ(std::size_t(changed), flips.size()) << seed_note(seed);
}

/// Regression: the historical default of bit 52 (fp64 exponent LSB) was
/// never validated against the element width, so an 8-bit surface was asked
/// to flip bit 52 of a byte.  The contract clamps into [0, elem_bits).
TEST(MemInjectorContract, RequestedBitIsClampedToElementWidth) {
  const std::uint64_t seed = test_seed(405);
  PanelBitFlipInjector injector(/*flips=*/8, seed, /*bit=*/52);
  const MemoryStrikeContext ctx{MemorySurface::kResidentPanel, /*elems=*/16,
                                /*elem_bits=*/8};
  std::vector<PanelFlip> flips;
  injector.plan_flips(ctx, flips);
  ASSERT_FALSE(flips.empty()) << seed_note(seed);
  for (const PanelFlip& f : flips) {
    EXPECT_LT(f.elem, 16u) << seed_note(seed);
    EXPECT_GE(f.bit, 0) << seed_note(seed);
    EXPECT_LT(f.bit, 8) << seed_note(seed);
  }
}

TEST(MemInjectorContract, BurstRunsAreContiguousAcrossElementBoundaries) {
  const std::uint64_t seed = test_seed(406);
  PanelBitFlipInjector injector(/*flips=*/1, seed, /*bit=*/0, /*every=*/1,
                                /*burst=*/16);
  const MemoryStrikeContext ctx{MemorySurface::kResidentPanel, /*elems=*/8,
                                /*elem_bits=*/8};
  std::vector<PanelFlip> flips;
  injector.plan_flips(ctx, flips);
  ASSERT_EQ(flips.size(), 16u) << seed_note(seed);
  // Canonicalized output is sorted, so global bit indices are consecutive —
  // a 16-bit run over 8-bit elements necessarily spans >= 2 elements.
  for (std::size_t i = 1; i < flips.size(); ++i) {
    const std::size_t prev = flips[i - 1].elem * 8 + std::size_t(flips[i - 1].bit);
    const std::size_t cur = flips[i].elem * 8 + std::size_t(flips[i].bit);
    EXPECT_EQ(cur, prev + 1) << seed_note(seed);
  }
  EXPECT_GT(flips.back().elem, flips.front().elem) << seed_note(seed);
}

TEST(MemInjectorContract, SurfaceInjectorIsOneShotAndSurfaceFiltered) {
  const std::uint64_t seed = test_seed(407);
  SurfaceBitFlipInjector injector(MemorySurface::kPanelB, /*faults=*/2,
                                  /*burst=*/3, seed);
  const MemoryStrikeContext wrong{MemorySurface::kPanelA, 256, 8};
  const MemoryStrikeContext right{MemorySurface::kPanelB, 256, 8};
  std::vector<PanelFlip> flips;

  // Non-matching surfaces neither fire nor count as opportunities.
  injector.arm();
  injector.plan_flips(wrong, flips);
  EXPECT_TRUE(flips.empty());
  EXPECT_EQ(injector.opportunities(), 0u);

  // First matching opportunity fires the armed strike...
  injector.plan_flips(right, flips);
  EXPECT_FALSE(flips.empty()) << seed_note(seed);
  EXPECT_LE(flips.size(), 6u) << seed_note(seed);  // 2 runs x 3 bits, deduped
  EXPECT_EQ(injector.opportunities(), 1u);

  // ...and the next one is disarmed (but still counted).
  flips.clear();
  injector.plan_flips(right, flips);
  EXPECT_TRUE(flips.empty());
  EXPECT_EQ(injector.opportunities(), 2u);
}

// ---------------------------------------------------------------------------
// ECC-coded resident operands
// ---------------------------------------------------------------------------

struct ResidentFixture {
  testing::GemmCase cs{96, 64, 160};
  std::uint64_t seed;
  testing::Problem<double> p;
  Matrix<double> c_cold;

  explicit ResidentFixture(std::uint64_t s) : seed(s), p(cs, s) {
    clear_process_caches();
    c_cold = p.c.clone();
    Options cold;
    cold.threads = 2;
    ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha,
             p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), cs.beta,
             c_cold.data(), c_cold.ld(), cold);
  }

  FtReport run(Matrix<double>& c, const Options& opts) const {
    return ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                    cs.alpha, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
                    cs.beta, c.data(), c.ld(), opts);
  }
};

/// With FTGEMM_OPERAND_ECC on, a single flipped payload bit per hit is
/// corrected in place by the syndrome sweep: no re-encode heal, exact
/// ground-truth match between injected and corrected bits, bit-exact
/// results.
TEST(ResidentEcc, SingleBitStrikesCorrectedInPlaceWithoutHeal) {
  const std::uint64_t seed = test_seed(2027);
  ResidentFixture fx(seed);
  auto& cache = process_context_cache<double>();
  cache.operands().set_ecc(true);

  Options opts;
  opts.threads = 2;
  opts.resident_a = true;
  Matrix<double> c = fx.p.c.clone();
  FtReport rep = fx.run(c, opts);  // warm miss: encodes panels + parity
  ASSERT_FALSE(rep.resident_hit) << seed_note(seed);

  constexpr int kRounds = 10;
  PanelBitFlipInjector injector(/*flips=*/1, seed, /*bit=*/61);
  opts.memory_injector = &injector;
  std::int64_t ecc_total = 0;
  for (int round = 0; round < kRounds; ++round) {
    c = fx.p.c.clone();
    rep = fx.run(c, opts);
    ASSERT_TRUE(rep.resident_hit) << "round " << round << seed_note(seed);
    EXPECT_EQ(rep.resident_ecc_corrected, 1)
        << "round " << round << seed_note(seed);
    EXPECT_EQ(rep.resident_heals, 0) << "round " << round << seed_note(seed);
    EXPECT_TRUE(rep.clean()) << "round " << round << seed_note(seed);
    ecc_total += rep.resident_ecc_corrected;
    testing::expect_matrix_near(c, fx.c_cold, 0.0,
                                "ecc round " + std::to_string(round));
  }
  // Injector ground truth matches the observed corrections exactly.
  EXPECT_EQ(injector.applied_count(), std::size_t(kRounds)) << seed_note(seed);
  EXPECT_EQ(ecc_total, kRounds) << seed_note(seed);

  cache.operands().set_ecc(env_long("FTGEMM_OPERAND_ECC", 0) != 0);
  clear_process_caches();
}

/// Burst strikes exceed the code's single-bit correction capability inside a
/// word: a 2-bit burst in one 64-bit word is double-detected and must fall
/// through to the re-encode heal; a burst straddling a word boundary splits
/// into two correctable singles.  Either way the result stays bit-exact.
TEST(ResidentEcc, BurstStrikesDetectedAndHealedNeverSilent) {
  const std::uint64_t seed = test_seed(2028);
  ResidentFixture fx(seed);
  auto& cache = process_context_cache<double>();
  cache.operands().set_ecc(true);

  Options opts;
  opts.threads = 2;
  opts.resident_a = true;
  Matrix<double> c = fx.p.c.clone();
  FtReport rep = fx.run(c, opts);
  ASSERT_FALSE(rep.resident_hit) << seed_note(seed);

  constexpr int kRounds = 12;
  PanelBitFlipInjector injector(/*flips=*/1, seed, /*bit=*/61, /*every=*/1,
                                /*burst=*/2);
  opts.memory_injector = &injector;
  std::int64_t heals = 0;
  for (int round = 0; round < kRounds; ++round) {
    c = fx.p.c.clone();
    rep = fx.run(c, opts);
    ASSERT_TRUE(rep.resident_hit) << "round " << round << seed_note(seed);
    // Same-word burst: double-detect, zero sweeps, one heal.  Boundary
    // burst: two independent singles, both swept, no heal.  Never neither.
    EXPECT_TRUE(rep.resident_heals > 0 || rep.resident_ecc_corrected == 2)
        << "round " << round << seed_note(seed);
    EXPECT_TRUE(rep.clean()) << "round " << round << seed_note(seed);
    heals += rep.resident_heals;
    testing::expect_matrix_near(c, fx.c_cold, 0.0,
                                "burst round " + std::to_string(round));
  }
  // A 2-bit run lands inside one word for 63 of every 64 start positions;
  // over 12 rounds at least one double-detect heal is certain in practice.
  EXPECT_GE(heals, 1) << seed_note(seed);
  EXPECT_EQ(injector.applied_count(), std::size_t(kRounds) * 2)
      << seed_note(seed);

  cache.operands().set_ecc(env_long("FTGEMM_OPERAND_ECC", 0) != 0);
  clear_process_caches();
}

// ---------------------------------------------------------------------------
// Plan-cache strike surface
// ---------------------------------------------------------------------------

TEST(PlanSurface, CachedPlanStrikeIsHealedAndResultUnchanged) {
  const std::uint64_t seed = test_seed(2029);
  ResidentFixture fx(seed);
  auto& cache = process_context_cache<double>();

  Options opts;
  opts.threads = 2;
  Matrix<double> c = fx.p.c.clone();
  (void)fx.run(c, opts);  // plan-cache miss: builds + stamps self_check

  SurfaceBitFlipInjector injector(MemorySurface::kPlan, /*faults=*/1,
                                  /*burst=*/1, seed);
  opts.memory_injector = &injector;
  const std::uint64_t heals_before = cache.plan_heals();
  for (int round = 0; round < 4; ++round) {
    injector.arm();
    c = fx.p.c.clone();
    const FtReport rep = fx.run(c, opts);
    EXPECT_TRUE(rep.clean()) << "round " << round << seed_note(seed);
    testing::expect_matrix_near(c, fx.c_cold, 0.0,
                                "plan round " + std::to_string(round));
  }
  // Every struck lookup self-check-mismatched and rebuilt from the key:
  // plan_self_check covers every byte of the struck BlockingPlan surface.
  EXPECT_EQ(cache.plan_heals() - heals_before, 4u) << seed_note(seed);
  EXPECT_EQ(injector.applied_count(), 4u) << seed_note(seed);
  EXPECT_GE(injector.opportunities(), 4u) << seed_note(seed);
  clear_process_caches();
}

// ---------------------------------------------------------------------------
// Transient packed panels (exact int8 path: every live-byte flip detected)
// ---------------------------------------------------------------------------

struct I8Case {
  index_t m, n, k;
  int threads;
};

void run_i8_transient_case(const I8Case& cs, MemorySurface surface,
                           std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::int8_t> a(std::size_t(cs.m * cs.k));
  std::vector<std::int8_t> b(std::size_t(cs.k * cs.n));
  // Nonzero positive operands: every packed byte feeds products with
  // nonzero multipliers, so any live-byte flip perturbs the exact checksums.
  for (auto& x : a) x = std::int8_t(1 + rng.bounded(7));
  for (auto& x : b) x = std::int8_t(1 + rng.bounded(7));
  std::vector<float> ref(std::size_t(cs.m * cs.n), 0.0f);
  std::vector<float> c(std::size_t(cs.m * cs.n), 0.0f);

  Options opts;
  opts.threads = cs.threads;
  const QuantParams qp;  // unit scales, zero offsets: exact dequantize
  const auto run = [&](std::vector<float>& out, const Options& o) {
    return ft_gemm_i8(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans,
                      cs.m, cs.n, cs.k, 1.0f, a.data(), cs.m, b.data(), cs.k,
                      0.0f, out.data(), cs.m, qp, o);
  };
  (void)run(ref, opts);

  SurfaceBitFlipInjector injector(surface, /*faults=*/1, /*burst=*/1, seed);
  Options strike = opts;
  strike.memory_injector = &injector;
  constexpr int kRounds = 6;
  for (int round = 0; round < kRounds; ++round) {
    injector.arm();
    std::fill(c.begin(), c.end(), 0.0f);
    const FtReport rep = run(c, strike);
    // Single live-byte bit flip between pack and consume: the exact integer
    // panel checksums must attribute it — detected, and if the report is
    // clean the delivered result is the clean result, bit for bit.
    EXPECT_GT(rep.errors_detected, 0)
        << memory_surface_name(surface) << " round " << round
        << seed_note(seed);
    if (rep.clean()) {
      EXPECT_EQ(std::memcmp(c.data(), ref.data(), c.size() * sizeof(float)),
                0)
          << memory_surface_name(surface) << " round " << round
          << seed_note(seed);
    }
  }
  EXPECT_EQ(injector.applied_count(), std::size_t(kRounds)) << seed_note(seed);
  EXPECT_GE(injector.opportunities(), std::size_t(kRounds)) << seed_note(seed);
}

TEST(TransientPanels, I8PanelBStrikesAlwaysDetectedGeneralPath) {
  run_i8_transient_case({128, 96, 384, 2}, MemorySurface::kPanelB,
                        test_seed(3001));
}

TEST(TransientPanels, I8PanelAStrikesAlwaysDetectedGeneralPath) {
  run_i8_transient_case({128, 96, 384, 2}, MemorySurface::kPanelA,
                        test_seed(3002));
}

TEST(TransientPanels, I8PanelBStrikesAlwaysDetectedFastPath) {
  run_i8_transient_case({64, 48, 64, 1}, MemorySurface::kPanelB,
                        test_seed(3003));
}

TEST(TransientPanels, I8PanelAStrikesAlwaysDetectedFastPath) {
  run_i8_transient_case({64, 48, 64, 1}, MemorySurface::kPanelA,
                        test_seed(3004));
}

// ---------------------------------------------------------------------------
// Transient packed panels on the bf16 AMX tier: the strike lands through
// the tier's own layout maps on bf16 tile-layout panels.  A panel element
// feeds a whole row (A~) or column (B~) of C, which the single-checksum
// locator flags rather than repairs; ft_gemm_bf16_reliable then re-runs
// from its snapshot.  Contract: significant flips are detected and the
// delivered result is the clean one — never silent.  (A low mantissa bit
// of a small element can perturb C below the verification threshold; such
// a flip stays inside the rounding budget and is not an error.)
// ---------------------------------------------------------------------------

void run_bf16_amx_transient_case(const I8Case& cs, MemorySurface surface,
                                 std::uint64_t seed) {
  if (!cpu_features().amx_bf16 || select_isa() != Isa::kAvx512) {
    GTEST_SKIP() << "AMX-BF16 tier not selected on this host; bf16 panels "
                    "are the widened fp32 ones";
  }
  Xoshiro256 rng(seed);
  Matrix<bf16_t> a(cs.m, cs.k), b(cs.k, cs.n);
  // Small positive integers: exact in bf16, every element feeds products
  // with nonzero multipliers.
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i)
      a(i, j) = bf16_t(float(1 + rng.bounded(7)));
  for (index_t j = 0; j < b.cols(); ++j)
    for (index_t i = 0; i < b.rows(); ++i)
      b(i, j) = bf16_t(float(1 + rng.bounded(7)));
  Matrix<float> ref(cs.m, cs.n), c(cs.m, cs.n);
  ref.fill(0.0f);

  Options opts;
  opts.threads = cs.threads;
  const auto run = [&](Matrix<float>& out, const Options& o) {
    return ft_gemm_bf16_reliable(Layout::kColMajor, Trans::kNoTrans,
                                 Trans::kNoTrans, cs.m, cs.n, cs.k, 1.0f,
                                 a.data(), a.ld(), b.data(), b.ld(), 0.0f,
                                 out.data(), out.ld(), o);
  };
  ASSERT_TRUE(run(ref, opts).clean());

  SurfaceBitFlipInjector injector(surface, /*faults=*/1, /*burst=*/1, seed);
  Options strike = opts;
  strike.memory_injector = &injector;
  const double tol = testing::gemm_tolerance<float>(cs.k);
  constexpr int kRounds = 12;
  int detected_rounds = 0;
  for (int round = 0; round < kRounds; ++round) {
    injector.arm();
    c.fill(0.0f);
    const FtReport rep = run(c, strike);
    EXPECT_TRUE(rep.clean()) << memory_surface_name(surface) << " round "
                             << round << seed_note(seed);
    EXPECT_LE(max_rel_diff(c, ref), tol)
        << memory_surface_name(surface) << " round " << round
        << seed_note(seed);
    if (rep.errors_detected > 0) ++detected_rounds;
  }
  EXPECT_GT(detected_rounds, kRounds / 2)
      << memory_surface_name(surface) << seed_note(seed);
  EXPECT_EQ(injector.applied_count(), std::size_t(kRounds)) << seed_note(seed);
  EXPECT_GE(injector.opportunities(), std::size_t(kRounds)) << seed_note(seed);
}

TEST(TransientPanels, Bf16AmxPanelBStrikesNeverSilentGeneralPath) {
  run_bf16_amx_transient_case({128, 96, 384, 2}, MemorySurface::kPanelB,
                              test_seed(3011));
}

TEST(TransientPanels, Bf16AmxPanelAStrikesNeverSilentGeneralPath) {
  run_bf16_amx_transient_case({128, 96, 384, 2}, MemorySurface::kPanelA,
                              test_seed(3012));
}

TEST(TransientPanels, Bf16AmxPanelBStrikesNeverSilentFastPath) {
  run_bf16_amx_transient_case({64, 48, 40, 1}, MemorySurface::kPanelB,
                              test_seed(3013));
}

TEST(TransientPanels, Bf16AmxPanelAStrikesNeverSilentFastPath) {
  run_bf16_amx_transient_case({64, 48, 40, 1}, MemorySurface::kPanelA,
                              test_seed(3014));
}

}  // namespace
}  // namespace ftgemm
