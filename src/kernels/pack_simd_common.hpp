// Shared implementation of the SIMD packing & checksum engine.
//
// Included ONLY by the ISA-specific translation units (pack_avx2.cpp,
// pack_avx512.cpp), each compiled with its own -m flags.  Everything here
// lives in an anonymous namespace ON PURPOSE: every TU must carry its own
// codegen for these routines (the same source compiled under -mavx512*
// may contain AVX-512 encodings), so nothing in this header may have
// external linkage — a COMDAT-merged copy could silently hand AVX-512 code
// to the AVX2 dispatch path and fault on narrower machines.  For the same
// reason the SIMD TUs never instantiate the scalar pack templates
// themselves; ragged edges reach the portable code through the
// scalar_pack_*() function pointers (compiled flag-free in pack_scalar.cpp).
//
// Layout of the engine (per element type):
//   - NoTrans operands stream with full-width unit-stride vectors
//     (traits-parameterized: 256-bit in pack_avx2.cpp, 512-bit in
//     pack_avx512.cpp), with software prefetch of the upcoming columns of
//     the next panel.
//   - Trans operands go through 4x4 (f64) / 8x8 or 4x4 (f32) register-tile
//     transposes — 256-bit ops shared by both TUs; transposes are
//     shuffle-port bound, so wider vectors buy little there.
//   - The fused checksum updates (Cc += alpha*A·Bc, Cr += Ar·B~, Bc = B~·e)
//     run as multi-accumulator FMA lanes carried across the k-loop and
//     reduced once per panel; amax tracking folds into the same sweeps as
//     abs-masked vector max.
//
// Contract: packed panels are BIT-IDENTICAL to the scalar templates in
// kernels/packing.hpp (same per-element arithmetic).  Checksum sums are
// reassociated into vector lanes, so they differ from the scalar order by
// rounding only — within the ToleranceModel bound (see docs/DESIGN.md,
// "SIMD packing & checksum engine"; asserted over a shape/trans sweep in
// tests/test_packing.cpp).
#pragma once

#include <immintrin.h>

#include <algorithm>
#include <type_traits>

#include "kernels/packing.hpp"

namespace ftgemm {
namespace {

/// Most vectors a single MR/NR stripe may span; wider tiles fall back to
/// the scalar path (no shipped kernel tile comes close).
constexpr index_t kMaxGroups = 8;

/// Prefetch distance (in panel columns/rows) for the streaming paths.
constexpr index_t kPfDist = 8;

inline void prefetch_t0(const void* p) {
  _mm_prefetch(static_cast<const char*>(p), _MM_HINT_T0);
}

/// Scalar fallback set, reached through function pointers so this TU never
/// instantiates the portable templates under SIMD flags.
template <typename T>
const PackSet<T>& scalar_pack() {
  static const PackSet<T> set = [] {
    if constexpr (sizeof(T) == 8) return scalar_pack_f64();
    else return scalar_pack_f32();
  }();
  return set;
}

/// Mixed scalar fallback set, by storage type (fp32 compute; see
/// "Mixed-precision paths" below).  Reached through the flag-free
/// accessors, never by instantiating the scalar templates in this TU.
template <typename S>
const PackSet<S, float>& scalar_pack_mixed() {
  static const PackSet<S, float> set = [] {
    if constexpr (kStorageDtypeTag<S> == kStorageDtypeTag<bf16_t>)
      return scalar_pack_bf16();
    else
      return scalar_pack_f16();
  }();
  return set;
}

// ---------------------------------------------------------------------------
// Register-tile transposes (256-bit, shared by both TUs).
// ---------------------------------------------------------------------------

/// In-place 4x4 f64 transpose: r[k] becomes lane-vector k of the tile.
inline void transpose4x4_pd(__m256d r[4]) {
  const __m256d t0 = _mm256_unpacklo_pd(r[0], r[1]);
  const __m256d t1 = _mm256_unpackhi_pd(r[0], r[1]);
  const __m256d t2 = _mm256_unpacklo_pd(r[2], r[3]);
  const __m256d t3 = _mm256_unpackhi_pd(r[2], r[3]);
  r[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  r[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  r[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  r[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/// In-place 8x8 f32 transpose.
inline void transpose8x8_ps(__m256 r[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  r[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  r[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  r[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  r[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  r[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  r[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  r[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

// ---------------------------------------------------------------------------
// Trans-specialized pack_a panel (register-tile transpose, full panel:
// rows == mr).  `base` addresses effective element (row0, k0); storage rows
// are contiguous along kk with stride `ld` between rows.  With FT, cc
// (length mr, panel-local) accumulates alpha*A·bc.
// ---------------------------------------------------------------------------

// The k-blocks are OUTER and the row-blocks inner so every MR-tall packed
// column is written completely while its cache lines are L1-hot (row-block
// outer would revisit each line a full panel-sweep later, paying the RFO
// twice).  The per-row-block Cc accumulators persist across the k loop.

template <bool FT>
void pack_a_panel_trans(const double* base, index_t ld, index_t klen,
                        index_t mr, double alpha, double* __restrict__ dst,
                        const double* __restrict__ bc,
                        double* __restrict__ cc) {
  const __m256d av = _mm256_set1_pd(alpha);
  const index_t groups = mr / 4;
  __m256d acc[kMaxGroups];
  if constexpr (FT) {
    for (index_t g = 0; g < groups; ++g) acc[g] = _mm256_setzero_pd();
  }
  index_t kk = 0;
  for (; kk + 4 <= klen; kk += 4) {
    for (index_t g = 0; g < groups; ++g) {
      const double* row = base + 4 * g * ld + kk;
      __m256d t[4] = {_mm256_loadu_pd(row), _mm256_loadu_pd(row + ld),
                      _mm256_loadu_pd(row + 2 * ld),
                      _mm256_loadu_pd(row + 3 * ld)};
      transpose4x4_pd(t);
      for (int q = 0; q < 4; ++q) {
        const __m256d v = _mm256_mul_pd(av, t[q]);
        _mm256_storeu_pd(dst + (kk + q) * mr + 4 * g, v);
        if constexpr (FT)
          acc[g] = _mm256_fmadd_pd(v, _mm256_set1_pd(bc[kk + q]), acc[g]);
      }
    }
  }
  for (; kk < klen; ++kk) {
    double* col = dst + kk * mr;
    if constexpr (FT) {
      const double bcv = bc[kk];
      for (index_t ii = 0; ii < mr; ++ii) {
        const double v = alpha * base[ii * ld + kk];
        col[ii] = v;
        cc[ii] += v * bcv;
      }
    } else {
      for (index_t ii = 0; ii < mr; ++ii) col[ii] = alpha * base[ii * ld + kk];
    }
  }
  if constexpr (FT) {
    for (index_t g = 0; g < groups; ++g) {
      _mm256_storeu_pd(cc + 4 * g,
                       _mm256_add_pd(_mm256_loadu_pd(cc + 4 * g), acc[g]));
    }
  }
}

template <bool FT>
void pack_a_panel_trans(const float* base, index_t ld, index_t klen,
                        index_t mr, float alpha, float* __restrict__ dst,
                        const float* __restrict__ bc, float* __restrict__ cc) {
  const __m256 av = _mm256_set1_ps(alpha);
  const index_t groups = mr / 8;
  __m256 acc[kMaxGroups];
  if constexpr (FT) {
    for (index_t g = 0; g < groups; ++g) acc[g] = _mm256_setzero_ps();
  }
  index_t kk = 0;
  for (; kk + 8 <= klen; kk += 8) {
    for (index_t g = 0; g < groups; ++g) {
      const float* row = base + 8 * g * ld + kk;
      __m256 t[8];
      for (int q = 0; q < 8; ++q) t[q] = _mm256_loadu_ps(row + q * ld);
      transpose8x8_ps(t);
      for (int q = 0; q < 8; ++q) {
        const __m256 v = _mm256_mul_ps(av, t[q]);
        _mm256_storeu_ps(dst + (kk + q) * mr + 8 * g, v);
        if constexpr (FT)
          acc[g] = _mm256_fmadd_ps(v, _mm256_set1_ps(bc[kk + q]), acc[g]);
      }
    }
  }
  for (; kk < klen; ++kk) {
    float* col = dst + kk * mr;
    if constexpr (FT) {
      const float bcv = bc[kk];
      for (index_t ii = 0; ii < mr; ++ii) {
        const float v = alpha * base[ii * ld + kk];
        col[ii] = v;
        cc[ii] += v * bcv;
      }
    } else {
      for (index_t ii = 0; ii < mr; ++ii) col[ii] = alpha * base[ii * ld + kk];
    }
  }
  if constexpr (FT) {
    for (index_t g = 0; g < groups; ++g) {
      _mm256_storeu_ps(cc + 8 * g,
                       _mm256_add_ps(_mm256_loadu_ps(cc + 8 * g), acc[g]));
    }
  }
}

// ---------------------------------------------------------------------------
// NoTrans pack_b panel (register-tile transpose; the effective column is
// unit-stride along k, the packed row wants NR consecutive columns).
// `base` addresses effective element (k0, col0); storage columns are
// contiguous along kk with stride `ld` between columns.  Full panel:
// cols == nr.
// ---------------------------------------------------------------------------

// Like the Trans pack_a path: k-blocks OUTER, column-blocks inner, so every
// NR-wide packed row is completed while L1-hot.  With FT the predicted-Cr
// FMA (cr[jj] += sum_kk ar[kk] * B~(kk, jj)) fuses directly into the pack
// loop — the SIMD engine does not re-sweep the packed panel in a second
// stage (the scalar oracle does; the sums are reassociated either way, and
// tests hold both within the tolerance contract).  Full panel: cols == nr.

template <bool FT>
void pack_b_panel_notrans(const double* base, index_t ld, index_t klen,
                          index_t nr, double* __restrict__ dst,
                          const double* __restrict__ ar,
                          double* __restrict__ cr) {
  const index_t jblocks = nr / 4;
  const index_t jtail = jblocks * 4;
  __m256d acc[kMaxGroups];
  if constexpr (FT) {
    for (index_t g = 0; g < jblocks; ++g) acc[g] = _mm256_setzero_pd();
  }
  index_t kk = 0;
  for (; kk + 4 <= klen; kk += 4) {
    for (index_t g = 0; g < jblocks; ++g) {
      const double* col = base + 4 * g * ld + kk;
      if (kk % 8 == 0) {
        prefetch_t0(col + 4 * kPfDist);
        prefetch_t0(col + ld + 4 * kPfDist);
        prefetch_t0(col + 2 * ld + 4 * kPfDist);
        prefetch_t0(col + 3 * ld + 4 * kPfDist);
      }
      __m256d t[4] = {_mm256_loadu_pd(col), _mm256_loadu_pd(col + ld),
                      _mm256_loadu_pd(col + 2 * ld),
                      _mm256_loadu_pd(col + 3 * ld)};
      transpose4x4_pd(t);
      for (int q = 0; q < 4; ++q) {
        _mm256_storeu_pd(dst + (kk + q) * nr + 4 * g, t[q]);
        if constexpr (FT)
          acc[g] = _mm256_fmadd_pd(t[q], _mm256_set1_pd(ar[kk + q]), acc[g]);
      }
    }
    for (index_t jj = jtail; jj < nr; ++jj) {  // narrow tail columns
      const double* cj = base + jj * ld;
      for (int q = 0; q < 4; ++q) {
        const double v = cj[kk + q];
        dst[(kk + q) * nr + jj] = v;
        if constexpr (FT) cr[jj] += ar[kk + q] * v;
      }
    }
  }
  for (; kk < klen; ++kk) {
    double* row = dst + kk * nr;
    if constexpr (FT) {
      const double arv = ar[kk];
      for (index_t jj = 0; jj < nr; ++jj) {
        const double v = base[jj * ld + kk];
        row[jj] = v;
        cr[jj] += arv * v;
      }
    } else {
      for (index_t jj = 0; jj < nr; ++jj) row[jj] = base[jj * ld + kk];
    }
  }
  if constexpr (FT) {
    for (index_t g = 0; g < jblocks; ++g) {
      alignas(32) double lanes[4];
      _mm256_store_pd(lanes, acc[g]);
      for (int q = 0; q < 4; ++q) cr[4 * g + q] += lanes[q];
    }
  }
}

template <bool FT>
void pack_b_panel_notrans(const float* base, index_t ld, index_t klen,
                          index_t nr, float* __restrict__ dst,
                          const float* __restrict__ ar,
                          float* __restrict__ cr) {
  const index_t jblocks = nr / 4;  // 4x4 SSE tiles: NR=6/8 leave < 8 cols
  const index_t jtail = jblocks * 4;
  __m128 acc[kMaxGroups];
  if constexpr (FT) {
    for (index_t g = 0; g < jblocks; ++g) acc[g] = _mm_setzero_ps();
  }
  index_t kk = 0;
  for (; kk + 4 <= klen; kk += 4) {
    for (index_t g = 0; g < jblocks; ++g) {
      const float* col = base + 4 * g * ld + kk;
      if (kk % 16 == 0) {
        prefetch_t0(col + 4 * kPfDist);
        prefetch_t0(col + ld + 4 * kPfDist);
        prefetch_t0(col + 2 * ld + 4 * kPfDist);
        prefetch_t0(col + 3 * ld + 4 * kPfDist);
      }
      __m128 t0 = _mm_loadu_ps(col);
      __m128 t1 = _mm_loadu_ps(col + ld);
      __m128 t2 = _mm_loadu_ps(col + 2 * ld);
      __m128 t3 = _mm_loadu_ps(col + 3 * ld);
      _MM_TRANSPOSE4_PS(t0, t1, t2, t3);
      _mm_storeu_ps(dst + (kk + 0) * nr + 4 * g, t0);
      _mm_storeu_ps(dst + (kk + 1) * nr + 4 * g, t1);
      _mm_storeu_ps(dst + (kk + 2) * nr + 4 * g, t2);
      _mm_storeu_ps(dst + (kk + 3) * nr + 4 * g, t3);
      if constexpr (FT) {
        acc[g] = _mm_fmadd_ps(t0, _mm_set1_ps(ar[kk + 0]), acc[g]);
        acc[g] = _mm_fmadd_ps(t1, _mm_set1_ps(ar[kk + 1]), acc[g]);
        acc[g] = _mm_fmadd_ps(t2, _mm_set1_ps(ar[kk + 2]), acc[g]);
        acc[g] = _mm_fmadd_ps(t3, _mm_set1_ps(ar[kk + 3]), acc[g]);
      }
    }
    for (index_t jj = jtail; jj < nr; ++jj) {
      const float* cj = base + jj * ld;
      for (int q = 0; q < 4; ++q) {
        const float v = cj[kk + q];
        dst[(kk + q) * nr + jj] = v;
        if constexpr (FT) cr[jj] += ar[kk + q] * v;
      }
    }
  }
  for (; kk < klen; ++kk) {
    float* row = dst + kk * nr;
    if constexpr (FT) {
      const float arv = ar[kk];
      for (index_t jj = 0; jj < nr; ++jj) {
        const float v = base[jj * ld + kk];
        row[jj] = v;
        cr[jj] += arv * v;
      }
    } else {
      for (index_t jj = 0; jj < nr; ++jj) row[jj] = base[jj * ld + kk];
    }
  }
  if constexpr (FT) {
    for (index_t g = 0; g < jblocks; ++g) {
      alignas(16) float lanes[4];
      _mm_store_ps(lanes, acc[g]);
      for (int q = 0; q < 4; ++q) cr[4 * g + q] += lanes[q];
    }
  }
}

/// Transpose tile height of the Trans pack_a path per element type.
template <typename T>
constexpr index_t trans_tile() {
  return sizeof(T) == 8 ? 4 : 8;
}

// ---------------------------------------------------------------------------
// Cc replay from an already-packed panel (resident-operand cache hits).
// Each routine repeats EXACTLY the accumulator structure of its pack_a
// counterpart above — same fmadd operand order, same aligned-prefix /
// scalar-tail split, same deferred vector-accumulator add — with the packed
// value standing in for the just-scaled element, so the accumulated Cc is
// bit-identical to a cold pack_a_ft over the same slab.
// ---------------------------------------------------------------------------

/// Replay of pack_a_panel_trans<FT=true> (double).  Full tile: rows == mr.
inline void encode_cc_panel_trans(const double* __restrict__ packed,
                                  index_t klen, index_t mr,
                                  const double* __restrict__ bc,
                                  double* __restrict__ cc) {
  const index_t groups = mr / 4;
  __m256d acc[kMaxGroups];
  for (index_t g = 0; g < groups; ++g) acc[g] = _mm256_setzero_pd();
  index_t kk = 0;
  for (; kk + 4 <= klen; kk += 4) {
    for (index_t g = 0; g < groups; ++g) {
      for (int q = 0; q < 4; ++q) {
        const __m256d v = _mm256_loadu_pd(packed + (kk + q) * mr + 4 * g);
        acc[g] = _mm256_fmadd_pd(v, _mm256_set1_pd(bc[kk + q]), acc[g]);
      }
    }
  }
  for (; kk < klen; ++kk) {
    const double* col = packed + kk * mr;
    const double bcv = bc[kk];
    for (index_t ii = 0; ii < mr; ++ii) cc[ii] += col[ii] * bcv;
  }
  for (index_t g = 0; g < groups; ++g) {
    _mm256_storeu_pd(cc + 4 * g,
                     _mm256_add_pd(_mm256_loadu_pd(cc + 4 * g), acc[g]));
  }
}

/// Replay of pack_a_panel_trans<FT=true> (float).  Full tile: rows == mr.
inline void encode_cc_panel_trans(const float* __restrict__ packed,
                                  index_t klen, index_t mr,
                                  const float* __restrict__ bc,
                                  float* __restrict__ cc) {
  const index_t groups = mr / 8;
  __m256 acc[kMaxGroups];
  for (index_t g = 0; g < groups; ++g) acc[g] = _mm256_setzero_ps();
  index_t kk = 0;
  for (; kk + 8 <= klen; kk += 8) {
    for (index_t g = 0; g < groups; ++g) {
      for (int q = 0; q < 8; ++q) {
        const __m256 v = _mm256_loadu_ps(packed + (kk + q) * mr + 8 * g);
        acc[g] = _mm256_fmadd_ps(v, _mm256_set1_ps(bc[kk + q]), acc[g]);
      }
    }
  }
  for (; kk < klen; ++kk) {
    const float* col = packed + kk * mr;
    const float bcv = bc[kk];
    for (index_t ii = 0; ii < mr; ++ii) cc[ii] += col[ii] * bcv;
  }
  for (index_t g = 0; g < groups; ++g) {
    _mm256_storeu_ps(cc + 8 * g,
                     _mm256_add_ps(_mm256_loadu_ps(cc + 8 * g), acc[g]));
  }
}

/// Replay of pack_a_panel_notrans<TR, FT=true>.  Full tile: rows == mr.
template <class TR>
void encode_cc_panel_notrans(const typename TR::T* __restrict__ packed,
                             index_t klen, index_t mr,
                             const typename TR::T* __restrict__ bc,
                             typename TR::T* __restrict__ cc) {
  using Vec = typename TR::Vec;
  constexpr index_t W = TR::W;
  const index_t groups = mr / W;
  Vec acc[kMaxGroups];
  for (index_t g = 0; g < groups; ++g) acc[g] = TR::zero();
  for (index_t kk = 0; kk < klen; ++kk) {
    const typename TR::T* __restrict__ col = packed + kk * mr;
    const Vec bcv = TR::set1(bc[kk]);
    for (index_t g = 0; g < groups; ++g) {
      acc[g] = TR::fmadd(TR::loadu(col + g * W), bcv, acc[g]);
    }
  }
  for (index_t g = 0; g < groups; ++g)
    TR::storeu(cc + g * W, TR::add(TR::loadu(cc + g * W), acc[g]));
}

// ---------------------------------------------------------------------------
// Traits-parameterized full-width streaming paths.  A Traits class TR
// provides: T, Vec, W, zero/set1/loadu/storeu, maskload/maskstore (first n
// lanes; masked-out lanes read as zero), add/mul/fmadd/max/abs, hsum/hmax.
// ---------------------------------------------------------------------------

/// NoTrans pack_a panel: unit-stride copy-scale of mr-row columns, with the
/// fused Cc FMA carried in one accumulator per vector group (mr/W chains).
/// Full panel: rows == mr, mr % W == 0, mr/W <= kMaxGroups.
template <class TR, bool FT>
void pack_a_panel_notrans(const typename TR::T* base, index_t ld,
                          index_t klen, index_t mr,
                          typename TR::T alpha,
                          typename TR::T* __restrict__ dst,
                          const typename TR::T* __restrict__ bc,
                          typename TR::T* __restrict__ cc) {
  using Vec = typename TR::Vec;
  constexpr index_t W = TR::W;
  const index_t groups = mr / W;
  const Vec alphav = TR::set1(alpha);
  Vec acc[kMaxGroups];
  for (index_t g = 0; g < groups; ++g) acc[g] = TR::zero();
  for (index_t kk = 0; kk < klen; ++kk) {
    const typename TR::T* __restrict__ src = base + kk * ld;
    typename TR::T* __restrict__ col = dst + kk * mr;
    const typename TR::T* pf = src + kPfDist * ld;
    if constexpr (FT) {
      const Vec bcv = TR::set1(bc[kk]);
      for (index_t g = 0; g < groups; ++g) {
        if ((index_t(sizeof(typename TR::T)) * g * W) % 64 == 0)
          prefetch_t0(pf + g * W);
        const Vec v = TR::mul(alphav, TR::loadu(src + g * W));
        TR::storeu(col + g * W, v);
        acc[g] = TR::fmadd(v, bcv, acc[g]);
      }
    } else {
      for (index_t g = 0; g < groups; ++g) {
        if ((index_t(sizeof(typename TR::T)) * g * W) % 64 == 0)
          prefetch_t0(pf + g * W);
        TR::storeu(col + g * W, TR::mul(alphav, TR::loadu(src + g * W)));
      }
    }
  }
  if constexpr (FT) {
    for (index_t g = 0; g < groups; ++g)
      TR::storeu(cc + g * W, TR::add(TR::loadu(cc + g * W), acc[g]));
  }
}

/// Trans pack_b panel: the effective row is contiguous — full-width copy
/// streams with a masked tail group, and (with FT) the predicted-Cr FMA
/// fused into the same pass, one accumulator per vector group carried
/// across k.  Full panel: cols == nr.
template <class TR, bool FT>
void pack_b_panel_transcopy(const typename TR::T* base, index_t ld,
                            index_t klen, index_t nr,
                            typename TR::T* __restrict__ dst,
                            const typename TR::T* __restrict__ ar,
                            typename TR::T* __restrict__ cr) {
  using Vec = typename TR::Vec;
  constexpr index_t W = TR::W;
  const index_t full = nr - nr % W;
  const index_t rem = nr - full;
  const index_t ng = full / W + (rem ? 1 : 0);
  Vec acc[kMaxGroups + 1];
  if constexpr (FT) {
    for (index_t g = 0; g < ng; ++g) acc[g] = TR::zero();
  }
  for (index_t kk = 0; kk < klen; ++kk) {
    const typename TR::T* __restrict__ src = base + kk * ld;
    typename TR::T* __restrict__ out = dst + kk * nr;
    prefetch_t0(src + kPfDist * ld);
    if constexpr (FT) {
      const Vec arv = TR::set1(ar[kk]);
      index_t jj = 0;
      for (; jj < full; jj += W) {
        const Vec v = TR::loadu(src + jj);
        TR::storeu(out + jj, v);
        acc[jj / W] = TR::fmadd(arv, v, acc[jj / W]);
      }
      if (rem) {
        const Vec v = TR::maskload(src + jj, rem);
        TR::maskstore(out + jj, rem, v);
        acc[full / W] = TR::fmadd(arv, v, acc[full / W]);
      }
    } else {
      index_t jj = 0;
      for (; jj < full; jj += W) TR::storeu(out + jj, TR::loadu(src + jj));
      if (rem) TR::maskstore(out + jj, rem, TR::maskload(src + jj, rem));
    }
  }
  if constexpr (FT) {
    alignas(64) typename TR::T lanes[(kMaxGroups + 1) * W];
    for (index_t g = 0; g < ng; ++g) TR::storeu(lanes + g * W, acc[g]);
    for (index_t jj = 0; jj < nr; ++jj) cr[jj] += lanes[jj];
  }
}

/// Bc[kk] = sum_j panel(kk, j) over all sub-panels + fused amax of |B~|.
template <class TR>
double reduce_bc_simd(const typename TR::T* __restrict__ b_packed,
                      index_t klen, index_t nlen, index_t nr, index_t kk0,
                      index_t kklen, typename TR::T* __restrict__ bc,
                      double amax_in) {
  using Vec = typename TR::Vec;
  constexpr index_t W = TR::W;
  const index_t panels = (nlen + nr - 1) / nr;
  const index_t groups = nr / W;
  const index_t rem = nr - groups * W;
  Vec amaxv = TR::zero();
  for (index_t kk = kk0; kk < kk0 + kklen; ++kk) bc[kk] = typename TR::T(0);
  for (index_t q = 0; q < panels; ++q) {
    const typename TR::T* __restrict__ panel = b_packed + q * (nr * klen);
    for (index_t kk = kk0; kk < kk0 + kklen; ++kk) {
      const typename TR::T* __restrict__ row = panel + kk * nr;
      Vec s = TR::zero();
      for (index_t g = 0; g < groups; ++g) {
        const Vec v = TR::loadu(row + g * W);
        s = TR::add(s, v);
        amaxv = TR::max(amaxv, TR::abs(v));
      }
      if (rem) {
        const Vec v = TR::maskload(row + groups * W, rem);
        s = TR::add(s, v);
        amaxv = TR::max(amaxv, TR::abs(v));
      }
      bc[kk] += TR::hsum(s);
    }
  }
  return std::max(amax_in, double(TR::hmax(amaxv)));
}

/// Fused C-scaling + Cc/Cr encode + pre-scale amax (see scale_encode_c in
/// abft/checksum.hpp for the semantics being mirrored).
template <class TR>
double scale_encode_c_simd(typename TR::T* c, index_t ldc, index_t i0,
                           index_t ilen, index_t n, typename TR::T beta,
                           typename TR::T* __restrict__ cc,
                           typename TR::T* __restrict__ cr_part) {
  using T = typename TR::T;
  using Vec = typename TR::Vec;
  constexpr index_t W = TR::W;
  const index_t full = ilen - ilen % W;
  const index_t rem = ilen - full;
  const Vec betav = TR::set1(beta);
  Vec amaxv = TR::zero();
  for (index_t j = 0; j < n; ++j) {
    T* __restrict__ col = c + i0 + j * ldc;
    if (beta == T(0)) {
      // Assign zero rather than multiply: C may hold uninitialized data and
      // 0 * NaN would propagate.  Checksums of a zero slice stay zero.
      const Vec z = TR::zero();
      index_t i = 0;
      for (; i < full; i += W) TR::storeu(col + i, z);
      if (rem) TR::maskstore(col + i, rem, z);
      continue;
    }
    T* __restrict__ ccr = cc + i0;
    Vec s0 = TR::zero(), s1 = TR::zero();
    index_t i = 0;
    if (beta == T(1)) {
      for (; i + 2 * W <= ilen; i += 2 * W) {
        const Vec v0 = TR::loadu(col + i);
        const Vec v1 = TR::loadu(col + i + W);
        amaxv = TR::max(amaxv, TR::abs(v0));
        amaxv = TR::max(amaxv, TR::abs(v1));
        TR::storeu(ccr + i, TR::add(TR::loadu(ccr + i), v0));
        TR::storeu(ccr + i + W, TR::add(TR::loadu(ccr + i + W), v1));
        s0 = TR::add(s0, v0);
        s1 = TR::add(s1, v1);
      }
      for (; i < full; i += W) {
        const Vec v = TR::loadu(col + i);
        amaxv = TR::max(amaxv, TR::abs(v));
        TR::storeu(ccr + i, TR::add(TR::loadu(ccr + i), v));
        s0 = TR::add(s0, v);
      }
      if (rem) {
        const Vec v = TR::maskload(col + i, rem);
        amaxv = TR::max(amaxv, TR::abs(v));
        TR::maskstore(ccr + i, rem,
                      TR::add(TR::maskload(ccr + i, rem), v));
        s1 = TR::add(s1, v);
      }
    } else {
      for (; i + 2 * W <= ilen; i += 2 * W) {
        const Vec u0 = TR::loadu(col + i);
        const Vec u1 = TR::loadu(col + i + W);
        amaxv = TR::max(amaxv, TR::abs(u0));  // amax is of the PRE-scale C
        amaxv = TR::max(amaxv, TR::abs(u1));
        const Vec v0 = TR::mul(betav, u0);
        const Vec v1 = TR::mul(betav, u1);
        TR::storeu(col + i, v0);
        TR::storeu(col + i + W, v1);
        TR::storeu(ccr + i, TR::add(TR::loadu(ccr + i), v0));
        TR::storeu(ccr + i + W, TR::add(TR::loadu(ccr + i + W), v1));
        s0 = TR::add(s0, v0);
        s1 = TR::add(s1, v1);
      }
      for (; i < full; i += W) {
        const Vec u = TR::loadu(col + i);
        amaxv = TR::max(amaxv, TR::abs(u));
        const Vec v = TR::mul(betav, u);
        TR::storeu(col + i, v);
        TR::storeu(ccr + i, TR::add(TR::loadu(ccr + i), v));
        s0 = TR::add(s0, v);
      }
      if (rem) {
        const Vec u = TR::maskload(col + i, rem);
        amaxv = TR::max(amaxv, TR::abs(u));
        const Vec v = TR::mul(betav, u);
        TR::maskstore(col + i, rem, v);
        TR::maskstore(ccr + i, rem,
                      TR::add(TR::maskload(ccr + i, rem), v));
        s1 = TR::add(s1, v);
      }
    }
    cr_part[j] += TR::hsum(TR::add(s0, s1));
  }
  return double(TR::hmax(amaxv));
}

/// Ar partial encode + amax (mirrors encode_ar_partial in abft/checksum.hpp).
template <class TR>
double encode_ar_simd(const OperandView<typename TR::T>& a, index_t i0,
                      index_t ilen, index_t k, typename TR::T alpha,
                      typename TR::T* __restrict__ ar_part) {
  using T = typename TR::T;
  using Vec = typename TR::Vec;
  constexpr index_t W = TR::W;
  Vec amaxv = TR::zero();
  if (!a.trans) {
    // Column p of A is contiguous: full-width lane sums down it.
    const index_t full = ilen - ilen % W;
    const index_t rem = ilen - full;
    for (index_t p = 0; p < k; ++p) {
      const T* __restrict__ col = a.data + i0 + p * a.ld;
      prefetch_t0(col + a.ld);
      Vec s0 = TR::zero(), s1 = TR::zero();
      index_t i = 0;
      for (; i + 2 * W <= ilen; i += 2 * W) {
        const Vec v0 = TR::loadu(col + i);
        const Vec v1 = TR::loadu(col + i + W);
        amaxv = TR::max(amaxv, TR::abs(v0));
        amaxv = TR::max(amaxv, TR::abs(v1));
        s0 = TR::add(s0, v0);
        s1 = TR::add(s1, v1);
      }
      for (; i < full; i += W) {
        const Vec v = TR::loadu(col + i);
        amaxv = TR::max(amaxv, TR::abs(v));
        s0 = TR::add(s0, v);
      }
      if (rem) {
        const Vec v = TR::maskload(col + i, rem);
        amaxv = TR::max(amaxv, TR::abs(v));
        s1 = TR::add(s1, v);
      }
      ar_part[p] += alpha * TR::hsum(TR::add(s0, s1));
    }
  } else {
    // A^T: row i of the storage is contiguous along p — full-width FMA into
    // ar_part (contiguous read-modify-write).
    const index_t full = k - k % W;
    const index_t rem = k - full;
    const Vec alphav = TR::set1(alpha);
    for (index_t i = 0; i < ilen; ++i) {
      const T* __restrict__ row = a.data + (i0 + i) * a.ld;
      prefetch_t0(row + a.ld);
      index_t p = 0;
      for (; p < full; p += W) {
        const Vec v = TR::loadu(row + p);
        amaxv = TR::max(amaxv, TR::abs(v));
        TR::storeu(ar_part + p,
                   TR::fmadd(alphav, v, TR::loadu(ar_part + p)));
      }
      if (rem) {
        const Vec v = TR::maskload(row + p, rem);
        amaxv = TR::max(amaxv, TR::abs(v));
        TR::maskstore(ar_part + p, rem,
                      TR::fmadd(alphav, v, TR::maskload(ar_part + p, rem)));
      }
    }
  }
  return double(TR::hmax(amaxv));
}

// ---------------------------------------------------------------------------
// Top-level dispatch entries: full panels go to the SIMD paths above, the
// ragged tail panel (and any off-spec tile geometry) to the scalar set.
// Signatures match the PackSet function-pointer types exactly.
// ---------------------------------------------------------------------------

template <class TR, bool FT>
void pack_a_generic(const OperandView<typename TR::T>& a, index_t m0,
                    index_t k0, index_t mlen, index_t klen, index_t mr,
                    typename TR::T alpha, typename TR::T* dst,
                    const typename TR::T* bc, typename TR::T* cc) {
  using T = typename TR::T;
  const bool simd_ok =
      a.trans ? (mr % trans_tile<T>() == 0 &&
                 mr / trans_tile<T>() <= kMaxGroups)
              : (mr % TR::W == 0 && mr / TR::W <= kMaxGroups);
  index_t ip = 0;
  if (simd_ok) {
    for (; ip + mr <= mlen; ip += mr) {
      const T* base = a.ptr(m0 + ip, k0);
      if (a.trans) {
        pack_a_panel_trans<FT>(base, a.ld, klen, mr, alpha, dst, bc,
                               FT ? cc + ip : nullptr);
      } else {
        pack_a_panel_notrans<TR, FT>(base, a.ld, klen, mr, alpha, dst, bc,
                                     FT ? cc + ip : nullptr);
      }
      dst += mr * klen;
    }
  }
  if (ip < mlen) {  // ragged tail panel (or whole call): scalar oracle path
    if constexpr (FT) {
      scalar_pack<T>().pack_a_ft(a, m0 + ip, k0, mlen - ip, klen, mr, alpha,
                                 dst, bc, cc + ip);
    } else {
      scalar_pack<T>().pack_a(a, m0 + ip, k0, mlen - ip, klen, mr, alpha,
                              dst);
    }
  }
}

template <class TR>
void pack_a_disp(const OperandView<typename TR::T>& a, index_t m0, index_t k0,
                 index_t mlen, index_t klen, index_t mr, typename TR::T alpha,
                 typename TR::T* dst) {
  pack_a_generic<TR, false>(a, m0, k0, mlen, klen, mr, alpha, dst, nullptr,
                            nullptr);
}

template <class TR>
void pack_a_ft_disp(const OperandView<typename TR::T>& a, index_t m0,
                    index_t k0, index_t mlen, index_t klen, index_t mr,
                    typename TR::T alpha, typename TR::T* dst,
                    const typename TR::T* bc, typename TR::T* cc) {
  pack_a_generic<TR, true>(a, m0, k0, mlen, klen, mr, alpha, dst, bc, cc);
}

template <class TR, bool FT>
void pack_b_generic(const OperandView<typename TR::T>& b, index_t k0,
                    index_t j0, index_t klen, index_t nlen, index_t nr,
                    typename TR::T* dst, const typename TR::T* ar,
                    typename TR::T* cr) {
  using T = typename TR::T;
  const bool simd_ok = nr <= kMaxGroups * TR::W && nr / 4 <= kMaxGroups;
  index_t jp = 0;
  if (simd_ok) {
    for (; jp + nr <= nlen; jp += nr) {
      const T* base = b.ptr(k0, j0 + jp);
      if (b.trans) {
        pack_b_panel_transcopy<TR, FT>(base, b.ld, klen, nr, dst, ar,
                                       FT ? cr + jp : nullptr);
      } else {
        pack_b_panel_notrans<FT>(base, b.ld, klen, nr, dst, ar,
                                 FT ? cr + jp : nullptr);
      }
      dst += nr * klen;
    }
  }
  if (jp < nlen) {  // ragged tail panel (cols < nr): scalar oracle path
    if constexpr (FT) {
      scalar_pack<T>().pack_b_ft(b, k0, j0 + jp, klen, nlen - jp, nr, dst,
                                 ar, cr + jp);
    } else {
      scalar_pack<T>().pack_b(b, k0, j0 + jp, klen, nlen - jp, nr, dst);
    }
  }
}

template <class TR>
void pack_b_disp(const OperandView<typename TR::T>& b, index_t k0, index_t j0,
                 index_t klen, index_t nlen, index_t nr,
                 typename TR::T* dst) {
  pack_b_generic<TR, false>(b, k0, j0, klen, nlen, nr, dst, nullptr, nullptr);
}

template <class TR>
void pack_b_ft_disp(const OperandView<typename TR::T>& b, index_t k0,
                    index_t j0, index_t klen, index_t nlen, index_t nr,
                    typename TR::T* dst, const typename TR::T* ar,
                    typename TR::T* cr) {
  pack_b_generic<TR, true>(b, k0, j0, klen, nlen, nr, dst, ar, cr);
}

/// Dispatch for the Cc replay: the SAME full-tile/ragged-tail split and
/// tile-geometry gate as pack_a_generic, so every tile's Cc contribution is
/// accumulated by the replay twin of the packer that produced it.
template <class TR>
void encode_cc_disp(const typename TR::T* packed, bool trans, index_t mlen,
                    index_t klen, index_t mr, const typename TR::T* bc,
                    typename TR::T* cc, typename TR::T alpha) {
  using T = typename TR::T;
  const bool simd_ok =
      trans ? (mr % trans_tile<T>() == 0 &&
               mr / trans_tile<T>() <= kMaxGroups)
            : (mr % TR::W == 0 && mr / TR::W <= kMaxGroups);
  index_t ip = 0;
  if (simd_ok) {
    for (; ip + mr <= mlen; ip += mr) {
      if (trans) {
        encode_cc_panel_trans(packed, klen, mr, bc, cc + ip);
      } else {
        encode_cc_panel_notrans<TR>(packed, klen, mr, bc, cc + ip);
      }
      packed += mr * klen;
    }
  }
  if (ip < mlen) {  // ragged tail tile (or whole call): scalar oracle path
    scalar_pack<T>().encode_cc(packed, trans, mlen - ip, klen, mr, bc,
                               cc + ip, alpha);
  }
}

template <class TR>
double reduce_bc_disp(const typename TR::T* b_packed, index_t klen,
                      index_t nlen, index_t nr, index_t kk0, index_t kklen,
                      typename TR::T* bc, double amax_in) {
  if (nr > kMaxGroups * TR::W) {
    return scalar_pack<typename TR::T>().reduce_bc(b_packed, klen, nlen, nr,
                                                   kk0, kklen, bc, amax_in);
  }
  return reduce_bc_simd<TR>(b_packed, klen, nlen, nr, kk0, kklen, bc,
                            amax_in);
}

// ---------------------------------------------------------------------------
// Resident integrity sums (PanelSumsFn) over the MR-tile layout, shared by
// the uniform sets (loads through TR itself) and the mixed sets (narrow raw
// payloads widened through their LD loader).  A tile's depth column is mr
// contiguous elements, so every load lands whole in one of G = mr / W row
// lane groups: no masks at any ragged m or k, and the zero padding rows of
// the edge tile are summed like live ones.
// ---------------------------------------------------------------------------

/// The identity loader: uniform panels already hold ComputeT elements.
template <class TR>
struct SameLoad {
  using S = typename TR::T;
  static typename TR::Vec loadu(const S* p) { return TR::loadu(p); }
};

/// One block of KB depth columns across every tile.  The KB column sums
/// stay in registers for the whole block (the tiles stream past them), the
/// row sums in two phases per tile (a column pair per step); one horizontal
/// sum per column at the end.  The tile-inner order reads each tile's block
/// as one contiguous run and stores no partial inside the loop: a
/// tile-outer order carrying the column partials in memory ran ~1.4x
/// slower.
template <class TR, class LD, index_t G, index_t KB>
void panel_sums_block(const typename LD::S* packed, index_t tiles,
                      index_t klen, index_t kk0, typename TR::T* rowsum,
                      typename TR::T* colsum) {
  using Vec = typename TR::Vec;
  constexpr index_t W = TR::W;
  constexpr index_t mr = G * W;
  constexpr index_t P = KB > 1 ? 2 : 1;  // columns per step = row phases
  static_assert(KB % P == 0, "column pairs must tile the block");
  Vec cols[KB];
  for (index_t u = 0; u < KB; ++u) cols[u] = TR::zero();
  for (index_t q = 0; q < tiles; ++q) {
    const typename LD::S* blk = packed + q * (mr * klen) + kk0 * mr;
    Vec rows[P][G];
    for (index_t p = 0; p < P; ++p) {
      for (index_t g = 0; g < G; ++g) rows[p][g] = TR::zero();
    }
    for (index_t u = 0; u < KB; u += P) {
      Vec v[P][G];
      for (index_t p = 0; p < P; ++p) {
        for (index_t g = 0; g < G; ++g)
          v[p][g] = LD::loadu(blk + (u + p) * mr + g * W);
      }
      for (index_t p = 0; p < P; ++p) {
        Vec c = v[p][0];
        for (index_t g = 0; g < G; ++g) {
          rows[p][g] = TR::add(rows[p][g], v[p][g]);
          if (g > 0) c = TR::add(c, v[p][g]);
        }
        cols[u + p] = TR::add(cols[u + p], c);
      }
    }
    typename TR::T* rs = rowsum + q * mr;
    for (index_t g = 0; g < G; ++g) {
      Vec r = rows[0][g];
      for (index_t p = 1; p < P; ++p) r = TR::add(r, rows[p][g]);
      TR::storeu(rs + g * W, TR::add(TR::loadu(rs + g * W), r));
    }
  }
  for (index_t u = 0; u < KB; ++u) colsum[kk0 + u] += TR::hsum(cols[u]);
}

/// One read of the panel in blocks of KB columns (16 with the 32 AVX-512
/// registers, 8 with AVX2's 16), the ragged depth tail one column at a
/// time.  Every order is fixed: fill and verify agree bit for bit.
template <class TR, class LD, index_t G>
void panel_sums_tiles(const typename LD::S* packed, index_t tiles,
                      index_t klen, typename TR::T* rowsum,
                      typename TR::T* colsum) {
  constexpr index_t KB = sizeof(typename TR::Vec) == 64 ? 16 : 8;
  index_t kk0 = 0;
  for (; kk0 + KB <= klen; kk0 += KB) {
    panel_sums_block<TR, LD, G, KB>(packed, tiles, klen, kk0, rowsum, colsum);
  }
  for (; kk0 < klen; ++kk0) {
    panel_sums_block<TR, LD, G, 1>(packed, tiles, klen, kk0, rowsum, colsum);
  }
}

/// PanelSumsFn of every MR-tile SIMD set: tiles of one to four vectors
/// sweep at vector width, any other tile height takes the portable loop
/// (fixed per plan, so fill and verify always pick the same one).
template <class TR, class LD>
void panel_sums_disp(const typename LD::S* packed, index_t tiles,
                     index_t klen, index_t mr, typename TR::T* rowsum,
                     typename TR::T* colsum) {
  constexpr index_t W = TR::W;
  switch (mr % W == 0 ? mr / W : 0) {
    case 1:
      panel_sums_tiles<TR, LD, 1>(packed, tiles, klen, rowsum, colsum);
      break;
    case 2:
      panel_sums_tiles<TR, LD, 2>(packed, tiles, klen, rowsum, colsum);
      break;
    case 3:
      panel_sums_tiles<TR, LD, 3>(packed, tiles, klen, rowsum, colsum);
      break;
    case 4:
      panel_sums_tiles<TR, LD, 4>(packed, tiles, klen, rowsum, colsum);
      break;
    default:
      if constexpr (std::is_same_v<typename LD::S, typename TR::T>) {
        scalar_pack<typename TR::T>().panel_sums(packed, tiles, klen, mr,
                                                 rowsum, colsum);
      } else {
        scalar_pack_mixed<typename LD::S>().panel_sums(packed, tiles, klen,
                                                       mr, rowsum, colsum);
      }
      break;
  }
}

/// Assemble the PackSet for one traits class.  The encode sweeps need no
/// dispatch wrapper (no tile-geometry gate), so their _simd implementations
/// are bound directly.
template <class TR>
PackSet<typename TR::T> make_simd_pack(Isa isa) {
  PackSet<typename TR::T> p;
  p.pack_a = &pack_a_disp<TR>;
  p.pack_a_ft = &pack_a_ft_disp<TR>;
  p.pack_b = &pack_b_disp<TR>;
  p.pack_b_ft = &pack_b_ft_disp<TR>;
  p.reduce_bc = &reduce_bc_disp<TR>;
  p.scale_encode_c = &scale_encode_c_simd<TR>;
  p.encode_ar = &encode_ar_simd<TR>;
  p.encode_cc = &encode_cc_disp<TR>;
  p.pack_a_raw = scalar_pack<typename TR::T>().pack_a_raw;
  p.widen_a = scalar_pack<typename TR::T>().widen_a;
  p.panel_sums = &panel_sums_disp<TR, SameLoad<TR>>;
  p.isa = isa;
  p.a_index = &mr_tile_index;
  p.b_index = &mr_tile_index;
  return p;
}

// ===========================================================================
// Mixed-precision paths: narrow storage (bf16/fp16), fp32 compute.
//
// A widening loader LD supplies the storage side: `LD::S` is the narrow
// scalar, and each load returns elements ALREADY widened to fp32 vectors
// (bf16: cvtepu16 + 16-bit shift into the f32 layout; fp16: VCVTPH2PS).
// Everything downstream of the load — alpha multiply, checksum FMA lanes,
// accumulator shapes, tile/gate geometry — is byte-for-byte the fp32
// structure above, with trans_tile pinned at the fp32 value (8).  Two
// consequences the engine depends on:
//
//   1. Panels are bit-identical to convert-then-scalar-pack (the widen is
//      exact, and each element still sees exactly one multiply by alpha).
//   2. The fp32 replay/reduce/scale members (encode_cc_disp, reduce_bc_disp,
//      scale_encode_c_simd) serve the mixed sets UNCHANGED: they only ever
//      touch fp32 panels, and the mixed packers' accumulator structure is
//      the fp32 one, so the resident-hit Cc replay stays bit-exact.
//
// Ragged edges reach the flag-free scalar templates through the
// scalar_pack_bf16()/scalar_pack_f16() function pointers, same rule as the
// uniform-type engine.
// ===========================================================================

/// Trans pack_a, mixed: widen-load 8 storage rows, fp32 8x8 transpose tiles
/// — the exact structure of pack_a_panel_trans(float).  Full tile:
/// rows == mr, mr % 8 == 0.
template <class LD, bool FT>
void pack_a_panel_trans_mixed(const typename LD::S* base, index_t ld,
                              index_t klen, index_t mr, float alpha,
                              float* __restrict__ dst,
                              const float* __restrict__ bc,
                              float* __restrict__ cc) {
  const __m256 av = _mm256_set1_ps(alpha);
  const index_t groups = mr / 8;
  __m256 acc[kMaxGroups];
  if constexpr (FT) {
    for (index_t g = 0; g < groups; ++g) acc[g] = _mm256_setzero_ps();
  }
  index_t kk = 0;
  for (; kk + 8 <= klen; kk += 8) {
    for (index_t g = 0; g < groups; ++g) {
      const typename LD::S* row = base + 8 * g * ld + kk;
      __m256 t[8];
      for (int q = 0; q < 8; ++q) t[q] = LD::load8(row + q * ld);
      transpose8x8_ps(t);
      for (int q = 0; q < 8; ++q) {
        const __m256 v = _mm256_mul_ps(av, t[q]);
        _mm256_storeu_ps(dst + (kk + q) * mr + 8 * g, v);
        if constexpr (FT)
          acc[g] = _mm256_fmadd_ps(v, _mm256_set1_ps(bc[kk + q]), acc[g]);
      }
    }
  }
  for (; kk < klen; ++kk) {
    float* col = dst + kk * mr;
    if constexpr (FT) {
      const float bcv = bc[kk];
      for (index_t ii = 0; ii < mr; ++ii) {
        const float v = alpha * float(base[ii * ld + kk]);
        col[ii] = v;
        cc[ii] += v * bcv;
      }
    } else {
      for (index_t ii = 0; ii < mr; ++ii)
        col[ii] = alpha * float(base[ii * ld + kk]);
    }
  }
  if constexpr (FT) {
    for (index_t g = 0; g < groups; ++g) {
      _mm256_storeu_ps(cc + 8 * g,
                       _mm256_add_ps(_mm256_loadu_ps(cc + 8 * g), acc[g]));
    }
  }
}

/// NoTrans pack_a, mixed: full-width widen-load streaming, fp32 accumulator
/// chains — the exact structure of pack_a_panel_notrans<TR>.  Full panel:
/// rows == mr, mr % TR::W == 0.
template <class TR, class LD, bool FT>
void pack_a_panel_notrans_mixed(const typename LD::S* base, index_t ld,
                                index_t klen, index_t mr, float alpha,
                                float* __restrict__ dst,
                                const float* __restrict__ bc,
                                float* __restrict__ cc) {
  using Vec = typename TR::Vec;
  constexpr index_t W = TR::W;
  const index_t groups = mr / W;
  const Vec alphav = TR::set1(alpha);
  Vec acc[kMaxGroups];
  for (index_t g = 0; g < groups; ++g) acc[g] = TR::zero();
  for (index_t kk = 0; kk < klen; ++kk) {
    const typename LD::S* __restrict__ src = base + kk * ld;
    float* __restrict__ col = dst + kk * mr;
    const typename LD::S* pf = src + kPfDist * ld;
    if constexpr (FT) {
      const Vec bcv = TR::set1(bc[kk]);
      for (index_t g = 0; g < groups; ++g) {
        if ((index_t(sizeof(typename LD::S)) * g * W) % 64 == 0)
          prefetch_t0(pf + g * W);
        const Vec v = TR::mul(alphav, LD::loadu(src + g * W));
        TR::storeu(col + g * W, v);
        acc[g] = TR::fmadd(v, bcv, acc[g]);
      }
    } else {
      for (index_t g = 0; g < groups; ++g) {
        if ((index_t(sizeof(typename LD::S)) * g * W) % 64 == 0)
          prefetch_t0(pf + g * W);
        TR::storeu(col + g * W, TR::mul(alphav, LD::loadu(src + g * W)));
      }
    }
  }
  if constexpr (FT) {
    for (index_t g = 0; g < groups; ++g)
      TR::storeu(cc + g * W, TR::add(TR::loadu(cc + g * W), acc[g]));
  }
}

/// NoTrans pack_b, mixed: 4-wide widen loads into the fp32 4x4 SSE
/// transpose tiles of pack_b_panel_notrans(float).  Full panel: cols == nr.
template <class LD, bool FT>
void pack_b_panel_notrans_mixed(const typename LD::S* base, index_t ld,
                                index_t klen, index_t nr,
                                float* __restrict__ dst,
                                const float* __restrict__ ar,
                                float* __restrict__ cr) {
  const index_t jblocks = nr / 4;
  const index_t jtail = jblocks * 4;
  __m128 acc[kMaxGroups];
  if constexpr (FT) {
    for (index_t g = 0; g < jblocks; ++g) acc[g] = _mm_setzero_ps();
  }
  index_t kk = 0;
  for (; kk + 4 <= klen; kk += 4) {
    for (index_t g = 0; g < jblocks; ++g) {
      const typename LD::S* col = base + 4 * g * ld + kk;
      if (kk % 16 == 0) {
        prefetch_t0(col + 4 * kPfDist);
        prefetch_t0(col + ld + 4 * kPfDist);
        prefetch_t0(col + 2 * ld + 4 * kPfDist);
        prefetch_t0(col + 3 * ld + 4 * kPfDist);
      }
      __m128 t0 = LD::load4(col);
      __m128 t1 = LD::load4(col + ld);
      __m128 t2 = LD::load4(col + 2 * ld);
      __m128 t3 = LD::load4(col + 3 * ld);
      _MM_TRANSPOSE4_PS(t0, t1, t2, t3);
      _mm_storeu_ps(dst + (kk + 0) * nr + 4 * g, t0);
      _mm_storeu_ps(dst + (kk + 1) * nr + 4 * g, t1);
      _mm_storeu_ps(dst + (kk + 2) * nr + 4 * g, t2);
      _mm_storeu_ps(dst + (kk + 3) * nr + 4 * g, t3);
      if constexpr (FT) {
        acc[g] = _mm_fmadd_ps(t0, _mm_set1_ps(ar[kk + 0]), acc[g]);
        acc[g] = _mm_fmadd_ps(t1, _mm_set1_ps(ar[kk + 1]), acc[g]);
        acc[g] = _mm_fmadd_ps(t2, _mm_set1_ps(ar[kk + 2]), acc[g]);
        acc[g] = _mm_fmadd_ps(t3, _mm_set1_ps(ar[kk + 3]), acc[g]);
      }
    }
    for (index_t jj = jtail; jj < nr; ++jj) {
      const typename LD::S* cj = base + jj * ld;
      for (int q = 0; q < 4; ++q) {
        const float v = float(cj[kk + q]);
        dst[(kk + q) * nr + jj] = v;
        if constexpr (FT) cr[jj] += ar[kk + q] * v;
      }
    }
  }
  for (; kk < klen; ++kk) {
    float* row = dst + kk * nr;
    if constexpr (FT) {
      const float arv = ar[kk];
      for (index_t jj = 0; jj < nr; ++jj) {
        const float v = float(base[jj * ld + kk]);
        row[jj] = v;
        cr[jj] += arv * v;
      }
    } else {
      for (index_t jj = 0; jj < nr; ++jj) row[jj] = float(base[jj * ld + kk]);
    }
  }
  if constexpr (FT) {
    for (index_t g = 0; g < jblocks; ++g) {
      alignas(16) float lanes[4];
      _mm_store_ps(lanes, acc[g]);
      for (int q = 0; q < 4; ++q) cr[4 * g + q] += lanes[q];
    }
  }
}

/// Trans pack_b, mixed: full-width widen-load copy streams (the effective
/// row is contiguous in storage), structure of pack_b_panel_transcopy<TR>.
template <class TR, class LD, bool FT>
void pack_b_panel_transcopy_mixed(const typename LD::S* base, index_t ld,
                                  index_t klen, index_t nr,
                                  float* __restrict__ dst,
                                  const float* __restrict__ ar,
                                  float* __restrict__ cr) {
  using Vec = typename TR::Vec;
  constexpr index_t W = TR::W;
  const index_t full = nr - nr % W;
  const index_t rem = nr - full;
  const index_t ng = full / W + (rem ? 1 : 0);
  Vec acc[kMaxGroups + 1];
  if constexpr (FT) {
    for (index_t g = 0; g < ng; ++g) acc[g] = TR::zero();
  }
  for (index_t kk = 0; kk < klen; ++kk) {
    const typename LD::S* __restrict__ src = base + kk * ld;
    float* __restrict__ out = dst + kk * nr;
    prefetch_t0(src + kPfDist * ld);
    if constexpr (FT) {
      const Vec arv = TR::set1(ar[kk]);
      index_t jj = 0;
      for (; jj < full; jj += W) {
        const Vec v = LD::loadu(src + jj);
        TR::storeu(out + jj, v);
        acc[jj / W] = TR::fmadd(arv, v, acc[jj / W]);
      }
      if (rem) {
        const Vec v = LD::maskload(src + jj, rem);
        TR::maskstore(out + jj, rem, v);
        acc[full / W] = TR::fmadd(arv, v, acc[full / W]);
      }
    } else {
      index_t jj = 0;
      for (; jj < full; jj += W) TR::storeu(out + jj, LD::loadu(src + jj));
      if (rem) TR::maskstore(out + jj, rem, LD::maskload(src + jj, rem));
    }
  }
  if constexpr (FT) {
    alignas(64) float lanes[(kMaxGroups + 1) * W];
    for (index_t g = 0; g < ng; ++g) TR::storeu(lanes + g * W, acc[g]);
    for (index_t jj = 0; jj < nr; ++jj) cr[jj] += lanes[jj];
  }
}

/// Ar partial encode + amax over a narrow-storage operand (mirrors
/// encode_ar_partial<S, float>): widen loads, fp32 lane sums.
template <class TR, class LD>
double encode_ar_simd_mixed(const OperandView<typename LD::S>& a, index_t i0,
                            index_t ilen, index_t k, float alpha,
                            float* __restrict__ ar_part) {
  using Vec = typename TR::Vec;
  constexpr index_t W = TR::W;
  Vec amaxv = TR::zero();
  if (!a.trans) {
    const index_t full = ilen - ilen % W;
    const index_t rem = ilen - full;
    for (index_t p = 0; p < k; ++p) {
      const typename LD::S* __restrict__ col = a.data + i0 + p * a.ld;
      prefetch_t0(col + a.ld);
      Vec s0 = TR::zero(), s1 = TR::zero();
      index_t i = 0;
      for (; i + 2 * W <= ilen; i += 2 * W) {
        const Vec v0 = LD::loadu(col + i);
        const Vec v1 = LD::loadu(col + i + W);
        amaxv = TR::max(amaxv, TR::abs(v0));
        amaxv = TR::max(amaxv, TR::abs(v1));
        s0 = TR::add(s0, v0);
        s1 = TR::add(s1, v1);
      }
      for (; i < full; i += W) {
        const Vec v = LD::loadu(col + i);
        amaxv = TR::max(amaxv, TR::abs(v));
        s0 = TR::add(s0, v);
      }
      if (rem) {
        const Vec v = LD::maskload(col + i, rem);
        amaxv = TR::max(amaxv, TR::abs(v));
        s1 = TR::add(s1, v);
      }
      ar_part[p] += alpha * TR::hsum(TR::add(s0, s1));
    }
  } else {
    const index_t full = k - k % W;
    const index_t rem = k - full;
    const Vec alphav = TR::set1(alpha);
    for (index_t i = 0; i < ilen; ++i) {
      const typename LD::S* __restrict__ row = a.data + (i0 + i) * a.ld;
      prefetch_t0(row + a.ld);
      index_t p = 0;
      for (; p < full; p += W) {
        const Vec v = LD::loadu(row + p);
        amaxv = TR::max(amaxv, TR::abs(v));
        TR::storeu(ar_part + p, TR::fmadd(alphav, v, TR::loadu(ar_part + p)));
      }
      if (rem) {
        const Vec v = LD::maskload(row + p, rem);
        amaxv = TR::max(amaxv, TR::abs(v));
        TR::maskstore(ar_part + p, rem,
                      TR::fmadd(alphav, v, TR::maskload(ar_part + p, rem)));
      }
    }
  }
  return double(TR::hmax(amaxv));
}

/// Widen + alpha-scale a raw storage panel into the fp32 panel (resident
/// cache hit).  Full tiles have no padding rows, so they widen as one flat
/// stream — each element sees the identical single widen + single multiply
/// the cold pack applied, hence bit-identity.  The ragged tail tile (with
/// its explicit zero padding) goes through the scalar template.
template <class TR, class LD>
void widen_a_mixed(const typename LD::S* raw, index_t mlen, index_t klen,
                   index_t mr, float alpha, float* dst) {
  using Vec = typename TR::Vec;
  constexpr index_t W = TR::W;
  const index_t tiles = mlen / mr;
  const index_t n = tiles * mr * klen;
  const Vec alphav = TR::set1(alpha);
  const index_t full = n - n % W;
  index_t i = 0;
  for (; i < full; i += W)
    TR::storeu(dst + i, TR::mul(alphav, LD::loadu(raw + i)));
  if (n - full)
    TR::maskstore(dst + i, n - full,
                  TR::mul(alphav, LD::maskload(raw + i, n - full)));
  if (mlen % mr) {
    scalar_pack_mixed<typename LD::S>().widen_a(raw + n, mlen - tiles * mr,
                                                klen, mr, alpha, dst + n);
  }
}

// Mixed dispatch wrappers: IDENTICAL tile-geometry gates to the fp32
// wrappers (trans_tile<float>() == 8, TR::W group widths), because the fp32
// encode_cc_disp replay serves the mixed sets and its gate must agree with
// the packer that filled the panel.

template <class TR, class LD, bool FT>
void pack_a_generic_mixed(const OperandView<typename LD::S>& a, index_t m0,
                          index_t k0, index_t mlen, index_t klen, index_t mr,
                          float alpha, float* dst, const float* bc,
                          float* cc) {
  using S = typename LD::S;
  const bool simd_ok =
      a.trans ? (mr % trans_tile<float>() == 0 &&
                 mr / trans_tile<float>() <= kMaxGroups)
              : (mr % TR::W == 0 && mr / TR::W <= kMaxGroups);
  index_t ip = 0;
  if (simd_ok) {
    for (; ip + mr <= mlen; ip += mr) {
      const S* base = a.ptr(m0 + ip, k0);
      if (a.trans) {
        pack_a_panel_trans_mixed<LD, FT>(base, a.ld, klen, mr, alpha, dst, bc,
                                         FT ? cc + ip : nullptr);
      } else {
        pack_a_panel_notrans_mixed<TR, LD, FT>(base, a.ld, klen, mr, alpha,
                                               dst, bc,
                                               FT ? cc + ip : nullptr);
      }
      dst += mr * klen;
    }
  }
  if (ip < mlen) {  // ragged tail panel (or whole call): scalar oracle path
    if constexpr (FT) {
      scalar_pack_mixed<S>().pack_a_ft(a, m0 + ip, k0, mlen - ip, klen, mr,
                                       alpha, dst, bc, cc + ip);
    } else {
      scalar_pack_mixed<S>().pack_a(a, m0 + ip, k0, mlen - ip, klen, mr,
                                    alpha, dst);
    }
  }
}

template <class TR, class LD>
void pack_a_disp_mixed(const OperandView<typename LD::S>& a, index_t m0,
                       index_t k0, index_t mlen, index_t klen, index_t mr,
                       float alpha, float* dst) {
  pack_a_generic_mixed<TR, LD, false>(a, m0, k0, mlen, klen, mr, alpha, dst,
                                      nullptr, nullptr);
}

template <class TR, class LD>
void pack_a_ft_disp_mixed(const OperandView<typename LD::S>& a, index_t m0,
                          index_t k0, index_t mlen, index_t klen, index_t mr,
                          float alpha, float* dst, const float* bc,
                          float* cc) {
  pack_a_generic_mixed<TR, LD, true>(a, m0, k0, mlen, klen, mr, alpha, dst,
                                     bc, cc);
}

template <class TR, class LD, bool FT>
void pack_b_generic_mixed(const OperandView<typename LD::S>& b, index_t k0,
                          index_t j0, index_t klen, index_t nlen, index_t nr,
                          float* dst, const float* ar, float* cr) {
  using S = typename LD::S;
  const bool simd_ok = nr <= kMaxGroups * TR::W && nr / 4 <= kMaxGroups;
  index_t jp = 0;
  if (simd_ok) {
    for (; jp + nr <= nlen; jp += nr) {
      const S* base = b.ptr(k0, j0 + jp);
      if (b.trans) {
        pack_b_panel_transcopy_mixed<TR, LD, FT>(base, b.ld, klen, nr, dst,
                                                 ar, FT ? cr + jp : nullptr);
      } else {
        pack_b_panel_notrans_mixed<LD, FT>(base, b.ld, klen, nr, dst, ar,
                                           FT ? cr + jp : nullptr);
      }
      dst += nr * klen;
    }
  }
  if (jp < nlen) {  // ragged tail panel (cols < nr): scalar oracle path
    if constexpr (FT) {
      scalar_pack_mixed<S>().pack_b_ft(b, k0, j0 + jp, klen, nlen - jp, nr,
                                       dst, ar, cr + jp);
    } else {
      scalar_pack_mixed<S>().pack_b(b, k0, j0 + jp, klen, nlen - jp, nr, dst);
    }
  }
}

template <class TR, class LD>
void pack_b_disp_mixed(const OperandView<typename LD::S>& b, index_t k0,
                       index_t j0, index_t klen, index_t nlen, index_t nr,
                       float* dst) {
  pack_b_generic_mixed<TR, LD, false>(b, k0, j0, klen, nlen, nr, dst, nullptr,
                                      nullptr);
}

template <class TR, class LD>
void pack_b_ft_disp_mixed(const OperandView<typename LD::S>& b, index_t k0,
                          index_t j0, index_t klen, index_t nlen, index_t nr,
                          float* dst, const float* ar, float* cr) {
  pack_b_generic_mixed<TR, LD, true>(b, k0, j0, klen, nlen, nr, dst, ar, cr);
}

/// Assemble a mixed PackSet: widening packers on the storage side, the
/// plain fp32 engine on the panel side (reduce/scale/replay never see
/// storage bits), raw-pack via the flag-free scalar TU, SIMD widen-on-hit.
template <class TR, class LD>
PackSet<typename LD::S, float> make_mixed_pack(Isa isa) {
  PackSet<typename LD::S, float> p;
  p.pack_a = &pack_a_disp_mixed<TR, LD>;
  p.pack_a_ft = &pack_a_ft_disp_mixed<TR, LD>;
  p.pack_b = &pack_b_disp_mixed<TR, LD>;
  p.pack_b_ft = &pack_b_ft_disp_mixed<TR, LD>;
  p.reduce_bc = &reduce_bc_disp<TR>;
  p.scale_encode_c = &scale_encode_c_simd<TR>;
  p.encode_ar = &encode_ar_simd_mixed<TR, LD>;
  p.encode_cc = &encode_cc_disp<TR>;
  p.pack_a_raw = scalar_pack_mixed<typename LD::S>().pack_a_raw;
  p.widen_a = &widen_a_mixed<TR, LD>;
  p.panel_sums = &panel_sums_disp<TR, LD>;
  p.isa = isa;
  p.a_index = &mr_tile_index;
  p.b_index = &mr_tile_index;
  return p;
}

}  // namespace
}  // namespace ftgemm
