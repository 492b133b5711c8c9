// AVX-512 int8 micro-kernels: native VNNI `vpdpbusd` dot product
// (16 x 16 register tile, one zmm accumulator per C column).
//
// `vpdpbusd acc, a, b` multiplies 64 unsigned bytes of `a` by 64 signed
// bytes of `b` and adds each adjacent quad's four products into the
// corresponding i32 lane of `acc` — WITHOUT intermediate saturation, unlike
// the AVX2 `vpmaddubsw` route.  The packed quad layout of kernel_int8.hpp
// maps directly onto it: one 64-byte load of A covers all 16 rows of a
// k-quad, one 4-byte broadcast of B covers a column's quad, so each quad
// costs 16 dpbusd + 1 load + 16 broadcasts for 1024 multiply-accumulates.
//
// AVX-512 VNNI is a separate CPUID feature from the AVX-512 F/DQ/BW/VL
// baseline this ISA tier requires (Cascade Lake has it, Skylake-SP does
// not), so the VNNI kernels are compiled with a *function-level* target
// attribute rather than TU-wide flags, and avx512_kernels_i8() falls back
// to the AVX2 emulation at runtime when cpu_features().avx512vnni is false
// — an Isa::kAvx512 plan is therefore valid on every AVX-512 machine, and
// results are identical either way (exact integer arithmetic).
#include <immintrin.h>

#include <cstring>

#include "arch/cpu_features.hpp"
#include "kernels/microkernel.hpp"

namespace ftgemm {

namespace {

constexpr index_t kMrAvx512I8 = 16;
constexpr index_t kNrAvx512I8 = 16;

#define FTGEMM_TARGET_VNNI \
  __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl,avx512vnni")))

template <bool FT>
FTGEMM_TARGET_VNNI void kernel_i8_vnni(index_t kc, const std::uint8_t* a,
                                       const std::int8_t* b, std::int32_t* c,
                                       index_t ldc, std::int64_t* cr_ref,
                                       std::int64_t* cc_ref) {
  const index_t kq = i8_kq(kc);
  __m512i acc[kNrAvx512I8];
#pragma GCC unroll 16
  for (index_t j = 0; j < kNrAvx512I8; ++j) acc[j] = _mm512_setzero_si512();
  for (index_t q = 0; q < kq; ++q) {
    const __m512i av = _mm512_loadu_si512(a + q * (kMrAvx512I8 * kI8KQuad));
    const std::int8_t* bq = b + q * (kNrAvx512I8 * kI8KQuad);
#pragma GCC unroll 16
    for (index_t j = 0; j < kNrAvx512I8; ++j) {
      std::int32_t bw;
      std::memcpy(&bw, bq + j * kI8KQuad, sizeof(bw));
      acc[j] = _mm512_dpbusd_epi32(acc[j], av, _mm512_set1_epi32(bw));
    }
  }
  if constexpr (FT) {
    // Exact int64 reduction of the *updated* C values (integer adds are
    // freely reassociable, so the references reduce from the finished
    // column vectors instead of mirroring the k-loop; cr_lanes = 1) —
    // every element is updated once per rank-KC panel, so the per-panel
    // references total to exact row/column sums of the current accumulator.
    __m512i cc_lo =
        _mm512_loadu_si512(reinterpret_cast<const void*>(cc_ref));
    __m512i cc_hi =
        _mm512_loadu_si512(reinterpret_cast<const void*>(cc_ref + 8));
    for (index_t j = 0; j < kNrAvx512I8; ++j) {
      const __m512i cv = _mm512_loadu_si512(c + j * ldc);
      const __m512i nv = _mm512_add_epi32(cv, acc[j]);
      _mm512_storeu_si512(c + j * ldc, nv);
      const __m512i w_lo = _mm512_cvtepi32_epi64(_mm512_castsi512_si256(nv));
      const __m512i w_hi =
          _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(nv, 1));
      cc_lo = _mm512_add_epi64(cc_lo, w_lo);
      cc_hi = _mm512_add_epi64(cc_hi, w_hi);
      cr_ref[j] += _mm512_reduce_add_epi64(_mm512_add_epi64(w_lo, w_hi));
    }
    _mm512_storeu_si512(reinterpret_cast<void*>(cc_ref), cc_lo);
    _mm512_storeu_si512(reinterpret_cast<void*>(cc_ref + 8), cc_hi);
  } else {
    for (index_t j = 0; j < kNrAvx512I8; ++j) {
      __m512i cv = _mm512_loadu_si512(c + j * ldc);
      _mm512_storeu_si512(c + j * ldc, _mm512_add_epi32(cv, acc[j]));
    }
  }
}

FTGEMM_TARGET_VNNI void kernel_i8_vnni_base(index_t kc, const std::uint8_t* a,
                                            const std::int8_t* b,
                                            std::int32_t* c, index_t ldc) {
  kernel_i8_vnni<false>(kc, a, b, c, ldc, nullptr, nullptr);
}

FTGEMM_TARGET_VNNI void kernel_i8_vnni_ft(index_t kc, const std::uint8_t* a,
                                          const std::int8_t* b,
                                          std::int32_t* c, index_t ldc,
                                          std::int64_t* cr_ref,
                                          std::int64_t* cc_ref) {
  kernel_i8_vnni<true>(kc, a, b, c, ldc, cr_ref, cc_ref);
}

/// Sixteen i32 vectors -> one vector whose lane i is the sum of v[i]'s
/// lanes (one shuffle tree instead of sixteen horizontal sums).
FTGEMM_TARGET_VNNI inline __m512i lane_sums16(const __m512i v[16]) {
  __m512i x[8];
  for (int r = 0; r < 8; ++r) {
    x[r] = _mm512_add_epi32(_mm512_unpacklo_epi32(v[2 * r], v[2 * r + 1]),
                            _mm512_unpackhi_epi32(v[2 * r], v[2 * r + 1]));
  }
  __m512i y[4];
  for (int r = 0; r < 4; ++r) {
    y[r] = _mm512_add_epi32(_mm512_unpacklo_epi64(x[2 * r], x[2 * r + 1]),
                            _mm512_unpackhi_epi64(x[2 * r], x[2 * r + 1]));
  }
  const __m512i z0 =
      _mm512_add_epi32(_mm512_shuffle_i32x4(y[0], y[1], 0x88),
                       _mm512_shuffle_i32x4(y[0], y[1], 0xDD));
  const __m512i z1 =
      _mm512_add_epi32(_mm512_shuffle_i32x4(y[2], y[3], 0x88),
                       _mm512_shuffle_i32x4(y[2], y[3], 0xDD));
  return _mm512_add_epi32(_mm512_shuffle_i32x4(z0, z1, 0x88),
                          _mm512_shuffle_i32x4(z0, z1, 0xDD));
}

/// Integrity sums of a resident A~ panel of 16-row tiles (PanelSumsFn; one
/// zmm per tile quad).  Blocks of eight quads stream every tile past
/// register-resident column sums.  Rows: one vpdpbusd of the quad against
/// ones (exact u8 sums in the row's i32 lane).  Columns: the quad's bytes
/// accumulate as u16 lanes (low byte + 256 * high byte, wrapping) beside
/// the high bytes alone, so the low-byte totals come back exactly as
/// all - (high << 8) while every u16 total stays below 2^16 — the block
/// folds at least every 256 tiles, through two shuffle trees that leave the
/// block's 32 depth sums in depth order.  Exact integers: bit-identical to
/// scalar_pack_i8.  Other tile heights take the AVX2 sweep.
FTGEMM_TARGET_VNNI void panel_sums_i8_vnni(const std::uint8_t* packed,
                                           index_t tiles, index_t klen,
                                           index_t mr, std::int32_t* rowsum,
                                           std::int32_t* colsum) {
  if (mr != kMrAvx512I8) {
    static const auto quad_sweep = avx2_pack_i8().panel_sums;
    quad_sweep(packed, tiles, klen, mr, rowsum, colsum);
    return;
  }
  constexpr index_t kQuads = 8;
  constexpr index_t kQuadBytes = kMrAvx512I8 * kI8KQuad;
  constexpr index_t kFoldTiles = 256;  // 256 * 255 < 2^16
  const index_t kq = i8_kq(klen);
  const index_t tile_bytes = kq * kQuadBytes;
  const __m512i ones8 = _mm512_set1_epi8(1);
  const __m512i low16 = _mm512_set1_epi32(0xFFFF);
  for (index_t q0 = 0; q0 < kq; q0 += kQuads) {
    const index_t nq = std::min(kQuads, kq - q0);
    for (index_t t0 = 0; t0 < tiles; t0 += kFoldTiles) {
      __m512i all[kQuads], high[kQuads];
      for (index_t u = 0; u < kQuads; ++u)
        all[u] = high[u] = _mm512_setzero_si512();
      for (index_t tl = t0; tl < std::min(tiles, t0 + kFoldTiles); ++tl) {
        const std::uint8_t* blk = packed + tl * tile_bytes + q0 * kQuadBytes;
        __m512i r0 = _mm512_setzero_si512(), r1 = r0;
        for (index_t u = 0; u < kQuads; ++u) {
          if (u == nq) break;
          const __m512i v = _mm512_loadu_si512(blk + u * kQuadBytes);
          if (u % 2 == 0) {
            r0 = _mm512_dpbusd_epi32(r0, v, ones8);
          } else {
            r1 = _mm512_dpbusd_epi32(r1, v, ones8);
          }
          all[u] = _mm512_add_epi16(all[u], v);
          high[u] = _mm512_add_epi16(high[u], _mm512_srli_epi16(v, 8));
        }
        std::int32_t* rs = rowsum + tl * kMrAvx512I8;
        _mm512_storeu_si512(rs, _mm512_add_epi32(_mm512_loadu_si512(rs),
                                                 _mm512_add_epi32(r0, r1)));
      }
      // Per quad, the i32 lane of row i holds depths (0, 2) in `low` and
      // (1, 3) in `high` as u16 halves; split them into depth order.
      for (index_t h = 0; h < kQuads; h += 4) {
        __m512i d[16];
        for (index_t u = 0; u < 4; ++u) {
          const __m512i lo = _mm512_sub_epi16(
              all[h + u], _mm512_slli_epi16(high[h + u], 8));
          d[4 * u + 0] = _mm512_and_si512(lo, low16);
          d[4 * u + 1] = _mm512_and_si512(high[h + u], low16);
          d[4 * u + 2] = _mm512_srli_epi32(lo, 16);
          d[4 * u + 3] = _mm512_srli_epi32(high[h + u], 16);
        }
        const index_t kk0 = (q0 + h) * kI8KQuad;
        const index_t live = std::min<index_t>(16, klen - kk0);
        if (live <= 0) break;
        const __mmask16 m = __mmask16((1u << live) - 1u);
        std::int32_t* cs = colsum + kk0;
        _mm512_mask_storeu_epi32(
            cs, m,
            _mm512_add_epi32(_mm512_maskz_loadu_epi32(m, cs), lane_sums16(d)));
      }
    }
  }
}

#undef FTGEMM_TARGET_VNNI

}  // namespace

KernelSet<std::int8_t, std::int32_t> avx512_kernels_i8() {
  if (!cpu_features().avx512vnni) {
    // AVX-512 baseline without VNNI: the exact AVX2 emulation is the best
    // non-saturating integer dot available (see the TU header).
    KernelSet<std::int8_t, std::int32_t> ks = avx2_kernels_i8();
    ks.isa = Isa::kAvx512;
    ks.pack.isa = Isa::kAvx512;
    return ks;
  }
  KernelSet<std::int8_t, std::int32_t> ks;
  ks.base = &kernel_i8_vnni_base;
  ks.ft = &kernel_i8_vnni_ft;
  ks.mr = kMrAvx512I8;
  ks.nr = kNrAvx512I8;
  ks.cr_lanes = 1;
  ks.isa = Isa::kAvx512;
  // Every AVX-512 machine has AVX2, so the accelerated FT checksum passes
  // are always usable here (identical packed bytes, bit-identical sums).
  ks.pack = avx2_pack_i8();
  ks.pack.panel_sums = &panel_sums_i8_vnni;
  ks.pack.isa = Isa::kAvx512;
  return ks;
}

}  // namespace ftgemm
