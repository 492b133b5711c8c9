// AVX2 int8 micro-kernels: u8 x s8 dot emulation via widen-to-i16 +
// `vpmaddwd` (4 x 8 register tile).
//
// Why not `vpmaddubsw`: it is the obvious u8 x s8 instruction, but its
// adjacent-pair sum SATURATES at i16 (two products can reach 2 * 255 * 128 =
// 65280 > 32767).  A saturated lane would silently corrupt both the result
// and the fused reference checksums — the exactness contract of DESIGN.md
// §11 forbids it.  Zero-extending A (u8 -> i16) and sign-extending B
// (s8 -> i16) keeps every product exact in i32, and `vpmaddwd`'s pair sum
// is a full i32 add: |p0 + p1| <= 65280 never wraps.
//
// Operands arrive in the shared quad-grouped layout of kernel_int8.hpp
// (packed by the AVX2 sweeps of pack_int8_avx2.cpp); this TU only contains
// kernels.  Compiled with -mavx2 -mfma like the other AVX2 TUs;
// reached only through runtime dispatch (select_isa).
#include <immintrin.h>

#include <cstring>

#include "kernels/microkernel.hpp"

namespace ftgemm {

namespace {

constexpr index_t kMrAvx2I8 = 4;
constexpr index_t kNrAvx2I8 = 8;

// Per k-quad: one 32-byte load covers B's 8 columns (8 x 4 s8); each row of
// A contributes a 4 x u8 quad broadcast as an i16 quadruple.  madd yields,
// per column, two i32 pair-partials that are combined at store time — an
// exact reassociation (integer adds), unlike the float kernels where the
// FT epilogue must mirror the kernel's exact summation order.
template <bool FT>
__attribute__((target("avx2,fma"))) void kernel_i8_avx2(
    index_t kc, const std::uint8_t* a, const std::int8_t* b, std::int32_t* c,
    index_t ldc, std::int64_t* cr_ref, std::int64_t* cc_ref) {
  const index_t kq = i8_kq(kc);
  // acc_lo[i]: columns 0..3 of row i (2 pair-partials each);
  // acc_hi[i]: columns 4..7.
  __m256i acc_lo[kMrAvx2I8], acc_hi[kMrAvx2I8];
#pragma GCC unroll 4
  for (index_t i = 0; i < kMrAvx2I8; ++i) {
    acc_lo[i] = _mm256_setzero_si256();
    acc_hi[i] = _mm256_setzero_si256();
  }
  for (index_t q = 0; q < kq; ++q) {
    const __m256i braw = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b + q * (kNrAvx2I8 * kI8KQuad)));
    const __m256i b_lo =
        _mm256_cvtepi8_epi16(_mm256_castsi256_si128(braw));  // cols 0..3
    const __m256i b_hi =
        _mm256_cvtepi8_epi16(_mm256_extracti128_si256(braw, 1));  // cols 4..7
    const std::uint8_t* aq = a + q * (kMrAvx2I8 * kI8KQuad);
#pragma GCC unroll 4
    for (index_t i = 0; i < kMrAvx2I8; ++i) {
      std::uint32_t aw;
      std::memcpy(&aw, aq + i * kI8KQuad, sizeof(aw));
      const __m128i a16 =
          _mm_cvtepu8_epi16(_mm_cvtsi32_si128(int(aw)));  // 4 x i16
      const __m256i abc = _mm256_broadcastq_epi64(a16);
      acc_lo[i] =
          _mm256_add_epi32(acc_lo[i], _mm256_madd_epi16(abc, b_lo));
      acc_hi[i] =
          _mm256_add_epi32(acc_hi[i], _mm256_madd_epi16(abc, b_hi));
    }
  }
  // Merge: combine each column's two pair-partials, update C, and (FT)
  // reduce the *updated* C values into the int64 references — every element
  // is updated once per rank-KC panel, so the per-panel references total to
  // exact row/column sums of the current accumulator.
  alignas(32) std::int32_t lo[8], hi[8];
  std::int64_t colsum[kNrAvx2I8];
  if constexpr (FT) {
    for (index_t j = 0; j < kNrAvx2I8; ++j) colsum[j] = 0;
  }
  for (index_t i = 0; i < kMrAvx2I8; ++i) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(lo), acc_lo[i]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(hi), acc_hi[i]);
    std::int64_t rowsum = 0;
    for (index_t j = 0; j < 4; ++j) {
      c[i + j * ldc] += lo[2 * j] + lo[2 * j + 1];
      c[i + (j + 4) * ldc] += hi[2 * j] + hi[2 * j + 1];
      if constexpr (FT) {
        const std::int32_t vl = c[i + j * ldc];
        const std::int32_t vh = c[i + (j + 4) * ldc];
        rowsum += std::int64_t(vl) + std::int64_t(vh);
        colsum[j] += vl;
        colsum[j + 4] += vh;
      }
    }
    if constexpr (FT) cc_ref[i] += rowsum;
  }
  if constexpr (FT) {
    for (index_t j = 0; j < kNrAvx2I8; ++j) cr_ref[j] += colsum[j];
  }
}

void kernel_i8_avx2_base(index_t kc, const std::uint8_t* a,
                         const std::int8_t* b, std::int32_t* c, index_t ldc) {
  kernel_i8_avx2<false>(kc, a, b, c, ldc, nullptr, nullptr);
}

void kernel_i8_avx2_ft(index_t kc, const std::uint8_t* a, const std::int8_t* b,
                       std::int32_t* c, index_t ldc, std::int64_t* cr_ref,
                       std::int64_t* cc_ref) {
  kernel_i8_avx2<true>(kc, a, b, c, ldc, cr_ref, cc_ref);
}

}  // namespace

KernelSet<std::int8_t, std::int32_t> avx2_kernels_i8() {
  KernelSet<std::int8_t, std::int32_t> ks;
  ks.base = &kernel_i8_avx2_base;
  ks.ft = &kernel_i8_avx2_ft;
  ks.mr = kMrAvx2I8;
  ks.nr = kNrAvx2I8;
  ks.cr_lanes = 1;
  ks.isa = Isa::kAvx2;
  ks.pack = avx2_pack_i8();
  return ks;
}

}  // namespace ftgemm
