// AMX-BF16 tier of the bf16 FT-GEMM: TDPBF16PS tile kernels over bf16
// tile-layout panels, with alpha and the fused checksums in the tile
// epilogue (DESIGN.md §10, "AMX tier").
//
// Panel layouts (mr = nr = 32; depth D = amx_depth(klen): klen rounded up
// to an even count when klen <= 32, else to a multiple of 32, so a panel
// never outgrows the fp32 buffers the workspace sizes for klen elements):
//   A~  k-pair (VNNI) layout: panel q holds rows 32q..32q+31 as D/2 pair
//       rows of 64 bf16, pair row p = (A(i, 2p), A(i, 2p+1)) for i = 0..31.
//       A tile-step of depth 32 is two 16 x 64-byte tiles at stride 128.
//   B~  rows with k contiguous: panel q holds columns 32q..32q+31, column j
//       as D consecutive bf16.
// The tile product is computed transposed — dst[j][i] += sum_k B(k, j) *
// A(i, k) — so each fp32 tile row is 16 consecutive rows of one C column
// and the epilogue streams it into column-major C with one zmm per row:
// C += alpha * tile, store, and (FT) sum the stored values into the Cr
// and Cc references.
// Ori and FT share that epilogue, hence their summation order.
//
// The packers write bf16 bits only (no alpha), so pack_a_raw is pack_a and
// a resident payload is consumed zero-copy.  Checksums stay fp32: pack_a_ft
// is pack_a followed by encode_cc over the fresh panel — the same function
// that replays Cc on a resident hit, so hit and cold call are bit-identical
// — and pack_b_ft folds Cr += Ar·B over each panel while it is L1-hot.
//
// Tile state: each macro block loads the tile configuration once and
// releases the tiles (TILERELEASE) before returning, so no thread carries
// live AMX state out of a GEMM.  No TU-wide ISA flags: every function here
// carries its own target attribute, and amx_kernels_bf16() hands them out
// only when cpu_features().amx_bf16 holds.
#include <immintrin.h>

#include <algorithm>
#include <cstdint>

#include "arch/cpu_features.hpp"
#include "kernels/microkernel.hpp"

#define FTGEMM_TARGET_AVX512 \
  __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl,fma")))
#define FTGEMM_TARGET_AMX                                        \
  __attribute__((target("amx-tile,amx-bf16,avx512f,avx512bw," \
                        "avx512dq,avx512vl,fma")))

namespace ftgemm {

namespace {

constexpr index_t kAmxR = 32;  ///< panel width: mr = nr = two 16-row tiles
constexpr index_t kAmxK = 32;  ///< bf16 depth of one tile step

index_t amx_depth(index_t klen) {
  return klen <= kAmxK ? (klen + 1) / 2 * 2
                       : (klen + kAmxK - 1) / kAmxK * kAmxK;
}

/// PanelIndexFn of the A~ pair layout (see the file comment).
index_t amx_a_index(index_t i, index_t kk, index_t klen, index_t mr) {
  return (i / mr) * (mr * amx_depth(klen)) + (kk / 2) * (2 * mr) +
         (i % mr) * 2 + kk % 2;
}

/// PanelIndexFn of the B~ k-contiguous row layout.
index_t amx_b_index(index_t j, index_t kk, index_t klen, index_t nr) {
  const index_t d = amx_depth(klen);
  return (j / nr) * (nr * d) + (j % nr) * d + kk;
}

std::uint16_t* bits(float* p) { return reinterpret_cast<std::uint16_t*>(p); }
const std::uint16_t* bits(const float* p) {
  return reinterpret_cast<const std::uint16_t*>(p);
}

/// First n lanes (none for n <= 0).
__mmask16 mask16(index_t n) {
  return n >= 16 ? __mmask16(0xFFFF)
                 : __mmask16((1u << std::max<index_t>(n, 0)) - 1u);
}
__mmask32 mask32(index_t n) {
  return n >= 32 ? __mmask32(0xFFFFFFFFu)
                 : __mmask32((1u << std::max<index_t>(n, 0)) - 1u);
}
index_t clamp16(index_t n) { return std::clamp<index_t>(n, 0, 16); }

/// (x0, x1) 16-bit lanes -> 16 dwords (x0[t], x1[t]): one k-pair of 16
/// rows (or columns).
FTGEMM_TARGET_AVX512 inline __m512i interleave_pairs(__m256i x0, __m256i x1) {
  const __m512i idx = _mm512_set_epi16(
      31, 15, 30, 14, 29, 13, 28, 12, 27, 11, 26, 10, 25, 9, 24, 8, 23, 7, 22,
      6, 21, 5, 20, 4, 19, 3, 18, 2, 17, 1, 16, 0);
  return _mm512_permutexvar_epi16(
      idx, _mm512_inserti64x4(_mm512_castsi256_si512(x0), x1, 1));
}

/// In-register transpose of a 16 x 16 dword block.
FTGEMM_TARGET_AVX512 inline void transpose16x16(__m512i r[16]) {
  __m512i t[16];
  for (int i = 0; i < 16; i += 2) {
    t[i] = _mm512_unpacklo_epi32(r[i], r[i + 1]);
    t[i + 1] = _mm512_unpackhi_epi32(r[i], r[i + 1]);
  }
  __m512i u[16];
  for (int i = 0; i < 16; i += 4) {
    u[i] = _mm512_unpacklo_epi64(t[i], t[i + 2]);
    u[i + 1] = _mm512_unpackhi_epi64(t[i], t[i + 2]);
    u[i + 2] = _mm512_unpacklo_epi64(t[i + 1], t[i + 3]);
    u[i + 3] = _mm512_unpackhi_epi64(t[i + 1], t[i + 3]);
  }
  // u[4g + c], 128-bit lane l: column 4l + c of rows 4g..4g+3.
  for (int c = 0; c < 4; ++c) {
    const __m512i v = _mm512_shuffle_i32x4(u[c], u[4 + c], 0x88);
    const __m512i w = _mm512_shuffle_i32x4(u[c], u[4 + c], 0xDD);
    const __m512i x = _mm512_shuffle_i32x4(u[8 + c], u[12 + c], 0x88);
    const __m512i y = _mm512_shuffle_i32x4(u[8 + c], u[12 + c], 0xDD);
    r[c] = _mm512_shuffle_i32x4(v, x, 0x88);
    r[4 + c] = _mm512_shuffle_i32x4(w, y, 0x88);
    r[8 + c] = _mm512_shuffle_i32x4(v, x, 0xDD);
    r[12 + c] = _mm512_shuffle_i32x4(w, y, 0xDD);
  }
}

/// 16 bf16 -> 16 fp32 (exact: bf16 is the top half of an fp32).
FTGEMM_TARGET_AVX512 inline __m512 widen16(__m256i x) {
  return _mm512_castsi512_ps(_mm512_slli_epi32(_mm512_cvtepu16_epi32(x), 16));
}

/// The first bf16 of each 32-bit pair, as fp32.
FTGEMM_TARGET_AVX512 inline __m512 low_halves(__m512i pairs) {
  return _mm512_castsi512_ps(_mm512_slli_epi32(pairs, 16));
}

/// Lane sums of 16 vectors: out[r] = sum of v[r]'s lanes, by a shuffle
/// tree (level 1 pairs rows in 32-bit lanes, level 2 in 64-bit lanes,
/// levels 3-4 fold the 128-bit lanes).
FTGEMM_TARGET_AVX512 inline __m512 row_sums16(const __m512 v[16]) {
  __m512 x[8];
  for (int r = 0; r < 8; ++r) {
    x[r] = _mm512_add_ps(_mm512_unpacklo_ps(v[2 * r], v[2 * r + 1]),
                         _mm512_unpackhi_ps(v[2 * r], v[2 * r + 1]));
  }
  __m512 y[4];
  for (int r = 0; r < 4; ++r) {
    const __m512d a = _mm512_castps_pd(x[2 * r]);
    const __m512d b = _mm512_castps_pd(x[2 * r + 1]);
    y[r] = _mm512_add_ps(_mm512_castpd_ps(_mm512_unpacklo_pd(a, b)),
                         _mm512_castpd_ps(_mm512_unpackhi_pd(a, b)));
  }
  // y[q], 128-bit lane l: partial sums of rows 4q..4q+3 over lane l.
  const __m512 z0 = _mm512_add_ps(_mm512_shuffle_f32x4(y[0], y[1], 0x88),
                                  _mm512_shuffle_f32x4(y[0], y[1], 0xDD));
  const __m512 z1 = _mm512_add_ps(_mm512_shuffle_f32x4(y[2], y[3], 0x88),
                                  _mm512_shuffle_f32x4(y[2], y[3], 0xDD));
  return _mm512_add_ps(_mm512_shuffle_f32x4(z0, z1, 0x88),
                       _mm512_shuffle_f32x4(z0, z1, 0xDD));
}

// ---------------------------------------------------------------------------
// Packers.
// ---------------------------------------------------------------------------

/// A~ pair layout (mr = kAmxR), alpha-free.  NoTrans interleaves each
/// pair of 32-row depth columns into two 16-row pair rows; Trans reads 16
/// rows x 32 depths and transposes the k-pair dwords.
FTGEMM_TARGET_AVX512 void pack_a_pairs(const OperandView<bf16_t>& a,
                                       index_t m0, index_t k0, index_t mlen,
                                       index_t klen, index_t mr,
                                       std::uint16_t* dst) {
  const index_t d = amx_depth(klen);
  const __m512i lo_rows = _mm512_set_epi16(
      47, 15, 46, 14, 45, 13, 44, 12, 43, 11, 42, 10, 41, 9, 40, 8, 39, 7, 38,
      6, 37, 5, 36, 4, 35, 3, 34, 2, 33, 1, 32, 0);
  const __m512i hi_rows = _mm512_add_epi16(lo_rows, _mm512_set1_epi16(16));
  for (index_t ip = 0; ip < mlen; ip += mr, dst += mr * d) {
    const index_t rows = std::min(mr, mlen - ip);
    if (!a.trans) {
      const __mmask32 rm = mask32(rows);
      const bf16_t* col = a.ptr(m0 + ip, k0);
      const index_t cs = a.col_stride();
      for (index_t kk = 0; kk < d; kk += 2) {
        const __m512i x0 = kk < klen
                               ? _mm512_maskz_loadu_epi16(rm, col + kk * cs)
                               : _mm512_setzero_si512();
        const __m512i x1 =
            kk + 1 < klen ? _mm512_maskz_loadu_epi16(rm, col + (kk + 1) * cs)
                          : _mm512_setzero_si512();
        _mm512_storeu_si512(dst + kk * mr,
                            _mm512_permutex2var_epi16(x0, lo_rows, x1));
        _mm512_storeu_si512(dst + kk * mr + 32,
                            _mm512_permutex2var_epi16(x0, hi_rows, x1));
      }
      continue;
    }
    for (index_t g = 0; g < mr; g += 16) {
      const index_t live = clamp16(rows - g);
      for (index_t kb = 0; kb < d; kb += kAmxK) {
        const __mmask32 km = mask32(klen - kb);
        __m512i r[16];
        for (index_t q = 0; q < 16; ++q) {
          r[q] = q < live && kb < klen
                     ? _mm512_maskz_loadu_epi16(km, a.ptr(m0 + ip + g + q, k0 + kb))
                     : _mm512_setzero_si512();
        }
        transpose16x16(r);
        const index_t pairs = std::min<index_t>(16, (d - kb) / 2);
        for (index_t p = 0; p < pairs; ++p)
          _mm512_storeu_si512(dst + (kb + 2 * p) * mr + 2 * g, r[p]);
      }
    }
  }
}

/// Cc replay over a pair-layout panel: cc[i] += alpha * sum_kk A(i, kk) *
/// bc[kk], fp32, four independent chains per 32-row panel (even / odd
/// depth x row half).  Also pack_a_ft's Cc pass, so cold calls and
/// resident hits agree bit for bit.
FTGEMM_TARGET_AVX512 void amx_encode_cc(const float* packed, bool /*trans*/,
                                        index_t mlen, index_t klen,
                                        index_t mr, const float* bc,
                                        float* cc, float alpha) {
  const std::uint16_t* panel = bits(packed);
  const index_t d = amx_depth(klen);
  const __m512i hi_half = _mm512_set1_epi32(int(0xFFFF0000u));
  const __m512 va = _mm512_set1_ps(alpha);
  for (index_t ip = 0; ip < mlen; ip += mr, panel += mr * d) {
    const index_t rows = std::min(mr, mlen - ip);
    __m512 even0 = _mm512_setzero_ps(), odd0 = _mm512_setzero_ps();
    __m512 even1 = _mm512_setzero_ps(), odd1 = _mm512_setzero_ps();
    index_t kk = 0;
    for (; kk + 2 <= klen; kk += 2) {
      const __m512i v0 = _mm512_loadu_si512(panel + kk * mr);
      const __m512i v1 = _mm512_loadu_si512(panel + kk * mr + 32);
      const __m512 b0 = _mm512_set1_ps(bc[kk]), b1 = _mm512_set1_ps(bc[kk + 1]);
      even0 = _mm512_fmadd_ps(low_halves(v0), b0, even0);
      even1 = _mm512_fmadd_ps(low_halves(v1), b0, even1);
      odd0 = _mm512_fmadd_ps(
          _mm512_castsi512_ps(_mm512_and_si512(v0, hi_half)), b1, odd0);
      odd1 = _mm512_fmadd_ps(
          _mm512_castsi512_ps(_mm512_and_si512(v1, hi_half)), b1, odd1);
    }
    if (kk < klen) {  // odd depth: the last pair's second half is padding
      const __m512 b0 = _mm512_set1_ps(bc[kk]);
      even0 = _mm512_fmadd_ps(low_halves(_mm512_loadu_si512(panel + kk * mr)), b0, even0);
      even1 = _mm512_fmadd_ps(low_halves(_mm512_loadu_si512(panel + kk * mr + 32)), b0,
                              even1);
    }
    const __mmask16 m0 = mask16(rows), m1 = mask16(rows - 16);
    float* out = cc + ip;
    _mm512_mask_storeu_ps(out, m0,
                          _mm512_fmadd_ps(va, _mm512_add_ps(even0, odd0),
                                          _mm512_maskz_loadu_ps(m0, out)));
    _mm512_mask_storeu_ps(out + 16, m1,
                          _mm512_fmadd_ps(va, _mm512_add_ps(even1, odd1),
                                          _mm512_maskz_loadu_ps(m1, out + 16)));
  }
}

void amx_pack_a(const OperandView<bf16_t>& a, index_t m0, index_t k0,
                index_t mlen, index_t klen, index_t mr, float /*alpha*/,
                float* dst) {
  pack_a_pairs(a, m0, k0, mlen, klen, mr, bits(dst));
}

void amx_pack_a_ft(const OperandView<bf16_t>& a, index_t m0, index_t k0,
                   index_t mlen, index_t klen, index_t mr, float alpha,
                   float* dst, const float* bc, float* cc) {
  pack_a_pairs(a, m0, k0, mlen, klen, mr, bits(dst));
  amx_encode_cc(dst, a.trans, mlen, klen, mr, bc, cc, alpha);
}

void amx_pack_a_raw(const OperandView<bf16_t>& a, index_t m0, index_t k0,
                    index_t mlen, index_t klen, index_t mr, bf16_t* dst) {
  pack_a_pairs(a, m0, k0, mlen, klen, mr,
               reinterpret_cast<std::uint16_t*>(dst));
}

/// Cr += Ar · B over the first `cols` columns of one packed B~ panel: 16
/// columns at a time, one FMA chain per column, summed by one shuffle tree.
FTGEMM_TARGET_AVX512 void cr_from_panel(const std::uint16_t* panel,
                                        index_t klen, index_t d,
                                        index_t cols, const float* ar,
                                        float* cr) {
  // Whole 16-row groups: rows past `cols` are the panel's zero padding.
  for (index_t j0 = 0; j0 < cols; j0 += 16) {
    __m512 acc[16];
    for (index_t t = 0; t < 16; ++t) acc[t] = _mm512_setzero_ps();
    for (index_t kb = 0; kb < klen; kb += 16) {
      const __mmask16 m = mask16(klen - kb);
      const __m512 arv = _mm512_maskz_loadu_ps(m, ar + kb);
      for (index_t t = 0; t < 16; ++t) {
        const std::uint16_t* row = panel + (j0 + t) * d + kb;
        acc[t] = _mm512_fmadd_ps(widen16(_mm256_maskz_loadu_epi16(m, row)),
                                 arv, acc[t]);
      }
    }
    const __mmask16 cm = mask16(cols - j0);
    _mm512_mask_storeu_ps(cr + j0, cm,
                          _mm512_add_ps(_mm512_maskz_loadu_ps(cm, cr + j0),
                                        row_sums16(acc)));
  }
}

/// B~ k-contiguous rows.  NoTrans columns are already k-contiguous (a
/// masked copy); Trans reads k-pairs of 16 columns and transposes the
/// pair dwords.  With FT, Cr += Ar·B runs over each panel right after it is
/// written.
template <bool FT>
FTGEMM_TARGET_AVX512 void pack_b_rows(const OperandView<bf16_t>& b,
                                      index_t k0, index_t j0, index_t klen,
                                      index_t nlen, index_t nr, float* dstf,
                                      const float* ar, float* cr) {
  std::uint16_t* dst = bits(dstf);
  const index_t d = amx_depth(klen);
  for (index_t jp = 0; jp < nlen; jp += nr, dst += nr * d) {
    const index_t cols = std::min(nr, nlen - jp);
    if (!b.trans) {
      for (index_t jj = 0; jj < nr; ++jj) {
        std::uint16_t* out = dst + jj * d;
        for (index_t kb = 0; kb < d; kb += kAmxK) {
          const index_t live = jj < cols ? klen - kb : 0;
          const __m512i v =
              live > 0 ? _mm512_maskz_loadu_epi16(mask32(live),
                                                  b.ptr(k0 + kb, j0 + jp + jj))
                       : _mm512_setzero_si512();
          _mm512_mask_storeu_epi16(out + kb, mask32(d - kb), v);
        }
      }
    } else {
      for (index_t g = 0; g < nr; g += 16) {
        const index_t live = clamp16(cols - g);
        const __mmask16 cm = mask16(live);
        for (index_t kb = 0; kb < d; kb += kAmxK) {
          __m512i r[16];
          for (index_t q = 0; q < 16; ++q) {
            const index_t kk = kb + 2 * q;
            __m256i x0 = _mm256_setzero_si256(), x1 = _mm256_setzero_si256();
            if (live > 0 && kk < klen)
              x0 = _mm256_maskz_loadu_epi16(cm, b.ptr(k0 + kk, j0 + jp + g));
            if (live > 0 && kk + 1 < klen)
              x1 = _mm256_maskz_loadu_epi16(cm,
                                            b.ptr(k0 + kk + 1, j0 + jp + g));
            r[q] = interleave_pairs(x0, x1);
          }
          transpose16x16(r);
          const __mmask32 wm = mask32(d - kb);
          for (index_t jj = 0; jj < 16; ++jj)
            _mm512_mask_storeu_epi16(dst + (g + jj) * d + kb, wm, r[jj]);
        }
      }
    }
    if constexpr (FT) cr_from_panel(dst, klen, d, cols, ar, cr + jp);
  }
}

void amx_pack_b(const OperandView<bf16_t>& b, index_t k0, index_t j0,
                index_t klen, index_t nlen, index_t nr, float* dst) {
  pack_b_rows<false>(b, k0, j0, klen, nlen, nr, dst, nullptr, nullptr);
}

void amx_pack_b_ft(const OperandView<bf16_t>& b, index_t k0, index_t j0,
                   index_t klen, index_t nlen, index_t nr, float* dst,
                   const float* ar, float* cr) {
  pack_b_rows<true>(b, k0, j0, klen, nlen, nr, dst, ar, cr);
}

/// Bc[kk] = sum over all nlen (padded) columns of the packed B~, for kk in
/// [kk0, kk0 + kklen), plus the running amax of |B|.
FTGEMM_TARGET_AVX512 double amx_reduce_bc(const float* b_packed, index_t klen,
                                          index_t nlen, index_t nr,
                                          index_t kk0, index_t kklen,
                                          float* bc, double amax_in) {
  const std::uint16_t* b = bits(b_packed);
  const index_t d = amx_depth(klen);
  const index_t rows = (nlen + nr - 1) / nr * nr;  // panels are contiguous
  const __m512 abs_mask = _mm512_castsi512_ps(_mm512_set1_epi32(0x7FFFFFFF));
  __m512 amax = _mm512_setzero_ps();
  // 64 depths per sweep, rows streamed in order (two accumulators per
  // 16-depth vector: even / odd rows; rows come in whole 32-row panels).
  for (index_t k0 = kk0; k0 < kk0 + kklen; k0 += 64) {
    const index_t live = kk0 + kklen - k0;
    __mmask16 m[4];
    __m512 even[4], odd[4];
    for (int v = 0; v < 4; ++v) {
      m[v] = mask16(live - 16 * v);
      even[v] = odd[v] = _mm512_setzero_ps();
    }
    for (index_t j = 0; j < rows; j += 2) {
      const std::uint16_t* r0 = b + j * d + k0;
      const std::uint16_t* r1 = r0 + d;
      for (int v = 0; v < 4; ++v) {
        const __m512 x0 = widen16(_mm256_maskz_loadu_epi16(m[v], r0 + 16 * v));
        const __m512 x1 = widen16(_mm256_maskz_loadu_epi16(m[v], r1 + 16 * v));
        even[v] = _mm512_add_ps(even[v], x0);
        odd[v] = _mm512_add_ps(odd[v], x1);
        amax = _mm512_max_ps(amax, _mm512_max_ps(_mm512_and_ps(x0, abs_mask),
                                                 _mm512_and_ps(x1, abs_mask)));
      }
    }
    for (int v = 0; v < 4; ++v)
      _mm512_mask_storeu_ps(bc + k0 + 16 * v, m[v],
                            _mm512_add_ps(even[v], odd[v]));
  }
  return std::max(amax_in, double(_mm512_reduce_max_ps(amax)));
}

/// EncodeArFn: ar[p] += alpha * sum_i A(i0 + i, p), returning amax(|A|).
/// NoTrans columns are contiguous: 16 columns at a time reduce through one
/// shuffle tree instead of a horizontal sum each.  Trans rows delegate to
/// the widening set's row-streaming encoder.
FTGEMM_TARGET_AVX512 double amx_encode_ar(const OperandView<bf16_t>& a,
                                          index_t i0, index_t ilen, index_t k,
                                          float alpha, float* ar_part) {
  if (a.trans) {
    static const EncodeArFn<bf16_t, float> rows = avx512_pack_bf16().encode_ar;
    return rows(a, i0, ilen, k, alpha, ar_part);
  }
  const __m512 abs_mask = _mm512_castsi512_ps(_mm512_set1_epi32(0x7FFFFFFF));
  const __m512 va = _mm512_set1_ps(alpha);
  __m512 amax = _mm512_setzero_ps();
  for (index_t p0 = 0; p0 < k; p0 += 16) {
    const index_t n = std::min<index_t>(16, k - p0);
    __m512 acc[16];
    for (index_t t = 0; t < 16; ++t) acc[t] = _mm512_setzero_ps();
    for (index_t t = 0; t < n; ++t) {
      const bf16_t* col = a.ptr(i0, p0 + t);
      __m512 s0 = _mm512_setzero_ps(), s1 = _mm512_setzero_ps();
      index_t i = 0;
      for (; i + 32 <= ilen; i += 32) {
        const __m512i x = _mm512_loadu_si512(col + i);
        const __m512 v0 = widen16(_mm512_castsi512_si256(x));
        const __m512 v1 = widen16(_mm512_extracti64x4_epi64(x, 1));
        s0 = _mm512_add_ps(s0, v0);
        s1 = _mm512_add_ps(s1, v1);
        amax = _mm512_max_ps(amax, _mm512_max_ps(_mm512_and_ps(v0, abs_mask),
                                                 _mm512_and_ps(v1, abs_mask)));
      }
      for (; i < ilen; i += 16) {
        const __m512 v =
            widen16(_mm256_maskz_loadu_epi16(mask16(ilen - i), col + i));
        s0 = _mm512_add_ps(s0, v);
        amax = _mm512_max_ps(amax, _mm512_and_ps(v, abs_mask));
      }
      acc[t] = _mm512_add_ps(s0, s1);
    }
    const __mmask16 m = mask16(n);
    float* out = ar_part + p0;
    _mm512_mask_storeu_ps(out, m,
                          _mm512_fmadd_ps(va, row_sums16(acc),
                                          _mm512_maskz_loadu_ps(m, out)));
  }
  return double(_mm512_reduce_max_ps(amax));
}

// ---------------------------------------------------------------------------
// Resident integrity sums.
// ---------------------------------------------------------------------------

/// PanelSumsFn over pair-layout panels: true row sums (both halves of every
/// pair, depth padding included) and true depth sums, 16 pair rows per
/// shuffle-tree reduction.
FTGEMM_TARGET_AVX512 void amx_panel_sums(const bf16_t* packed, index_t tiles,
                                         index_t klen, index_t mr,
                                         float* rowsum, float* colsum) {
  const auto* panel = reinterpret_cast<const std::uint16_t*>(packed);
  const index_t pairs = amx_depth(klen) / 2;
  const __m512i hi_half = _mm512_set1_epi32(int(0xFFFF0000u));
  // [E0, O0, E1, O1, ...]: even / odd depth sums back into depth order.
  const __m512i even_odd_lo = _mm512_set_epi32(23, 7, 22, 6, 21, 5, 20, 4, 19,
                                               3, 18, 2, 17, 1, 16, 0);
  const __m512i even_odd_hi =
      _mm512_add_epi32(even_odd_lo, _mm512_set1_epi32(8));
  for (index_t q = 0; q < tiles; ++q, panel += mr * 2 * pairs) {
    __m512 r0 = _mm512_setzero_ps(), r1 = _mm512_setzero_ps();
    for (index_t p0 = 0; p0 < pairs; p0 += 16) {
      __m512 even[16], odd[16];
      for (index_t t = 0; t < 16; ++t) {
        if (p0 + t >= pairs) {
          even[t] = odd[t] = _mm512_setzero_ps();
          continue;
        }
        const std::uint16_t* row = panel + (p0 + t) * 2 * mr;
        const __m512i v0 = _mm512_loadu_si512(row);
        const __m512i v1 = _mm512_loadu_si512(row + 32);
        const __m512 e0 = _mm512_castsi512_ps(_mm512_slli_epi32(v0, 16));
        const __m512 e1 = _mm512_castsi512_ps(_mm512_slli_epi32(v1, 16));
        const __m512 o0 = _mm512_castsi512_ps(_mm512_and_si512(v0, hi_half));
        const __m512 o1 = _mm512_castsi512_ps(_mm512_and_si512(v1, hi_half));
        r0 = _mm512_add_ps(r0, _mm512_add_ps(e0, o0));
        r1 = _mm512_add_ps(r1, _mm512_add_ps(e1, o1));
        even[t] = _mm512_add_ps(e0, e1);
        odd[t] = _mm512_add_ps(o0, o1);
      }
      const __m512 es = row_sums16(even), os = row_sums16(odd);
      float* out = colsum + 2 * p0;
      const index_t live = klen - 2 * p0;
      const __mmask16 m0 = mask16(live), m1 = mask16(live - 16);
      _mm512_mask_storeu_ps(
          out, m0,
          _mm512_add_ps(_mm512_maskz_loadu_ps(m0, out),
                        _mm512_permutex2var_ps(es, even_odd_lo, os)));
      if (live > 16) {
        _mm512_mask_storeu_ps(
            out + 16, m1,
            _mm512_add_ps(_mm512_maskz_loadu_ps(m1, out + 16),
                          _mm512_permutex2var_ps(es, even_odd_hi, os)));
      }
    }
    float* rs = rowsum + q * mr;
    _mm512_storeu_ps(rs, _mm512_add_ps(_mm512_loadu_ps(rs), r0));
    _mm512_storeu_ps(rs + 16, _mm512_add_ps(_mm512_loadu_ps(rs + 16), r1));
  }
}

// ---------------------------------------------------------------------------
// Macro kernel.
// ---------------------------------------------------------------------------

/// LDTILECFG operand (palette 1).
struct alignas(64) TileConfig {
  std::uint8_t palette_id = 1;
  std::uint8_t start_row = 0;
  std::uint8_t reserved[14] = {};
  std::uint16_t colsb[16] = {};
  std::uint8_t rows[16] = {};
};

/// Stream one 32 x 32 block of fp32 tile results into C (see the file
/// comment).  acc[ih + 2 * jh] holds rows 16ih.., columns 16jh..; `ni` /
/// `nj` are the live rows / columns of the block.  With FT, the final C
/// values are summed in registers: vertically into the two Cc vectors, and
/// per 16 columns into one vector of column sums (both row halves) reduced
/// by one shuffle tree — no per-column memory round trip, which would
/// 4K-alias the C stores when ldc is a multiple of 1024.
template <bool FT>
FTGEMM_TARGET_AVX512 inline void tile_epilogue(const float (*acc)[256],
                                               index_t ni, index_t nj,
                                               float* c, index_t ldc,
                                               float* cr_ref, float* cc_ref,
                                               __m512 va) {
  const __mmask16 m0 = mask16(ni), m1 = mask16(ni - 16);
  __m512 cc0 = _mm512_setzero_ps(), cc1 = _mm512_setzero_ps();
  for (index_t jh = 0; jh < 2; ++jh) {
    const index_t cols = clamp16(nj - 16 * jh);
    if (cols == 0) break;
    const float* t0 = acc[2 * jh];
    const float* t1 = acc[2 * jh + 1];
    float* ct = c + 16 * jh * ldc;
    // All 16 columns, branch-free: past `cols` (and past `ni` rows) the
    // masks are empty, so the masked loads and stores touch nothing.
    __m512 colsum[16];
    for (index_t r = 0; r < 16; ++r) {
      const __mmask16 r0 = r < cols ? m0 : __mmask16(0);
      const __mmask16 r1 = r < cols ? m1 : __mmask16(0);
      float* cp = ct + r * ldc;
      __m512 v0 = _mm512_fmadd_ps(va, _mm512_load_ps(t0 + 16 * r),
                                  _mm512_maskz_loadu_ps(r0, cp));
      __m512 v1 = _mm512_fmadd_ps(va, _mm512_load_ps(t1 + 16 * r),
                                  _mm512_maskz_loadu_ps(r1, cp + 16));
      _mm512_mask_storeu_ps(cp, r0, v0);
      _mm512_mask_storeu_ps(cp + 16, r1, v1);
      if constexpr (FT) {
        v0 = _mm512_maskz_mov_ps(r0, v0);
        v1 = _mm512_maskz_mov_ps(r1, v1);
        cc0 = _mm512_add_ps(cc0, v0);
        cc1 = _mm512_add_ps(cc1, v1);
        colsum[r] = _mm512_add_ps(v0, v1);
      }
    }
    if constexpr (FT) {
      const __mmask16 cm = mask16(cols);
      float* cr = cr_ref + 16 * jh;
      _mm512_mask_storeu_ps(
          cr, cm, _mm512_add_ps(_mm512_maskz_loadu_ps(cm, cr), row_sums16(colsum)));
    }
  }
  if constexpr (FT) {
    _mm512_mask_storeu_ps(cc_ref, m0,
                          _mm512_add_ps(_mm512_maskz_loadu_ps(m0, cc_ref), cc0));
    _mm512_mask_storeu_ps(cc_ref + 16, m1,
                          _mm512_add_ps(_mm512_maskz_loadu_ps(m1, cc_ref + 16),
                                        cc1));
  }
}

/// One 32 x 32 block (IN x JN live 16 x 16 tiles: ragged edges skip the
/// tiles that would only multiply padding) over the full depth d, in kt
/// steps, results stored to acc.
template <int IN, int JN>
FTGEMM_TARGET_AMX inline void tile_block(const std::uint16_t* ap,
                                         const std::uint16_t* bp, index_t d,
                                         index_t kt, float (*acc)[256]) {
  _tile_zero(0);
  if constexpr (IN == 2) _tile_zero(1);
  if constexpr (JN == 2) _tile_zero(2);
  if constexpr (IN == 2 && JN == 2) _tile_zero(3);
  for (index_t s = 0; s < d; s += kt) {
    _tile_loadd(4, bp + s, 2 * d);
    if constexpr (JN == 2) _tile_loadd(5, bp + 16 * d + s, 2 * d);
    _tile_loadd(6, ap + s * kAmxR, 4 * kAmxR);
    if constexpr (IN == 2) _tile_loadd(7, ap + s * kAmxR + 32, 4 * kAmxR);
    _tile_dpbf16ps(0, 4, 6);
    if constexpr (IN == 2) _tile_dpbf16ps(1, 4, 7);
    if constexpr (JN == 2) _tile_dpbf16ps(2, 5, 6);
    if constexpr (IN == 2 && JN == 2) _tile_dpbf16ps(3, 5, 7);
  }
  _tile_stored(0, acc[0], 64);
  if constexpr (IN == 2) _tile_stored(1, acc[1], 64);
  if constexpr (JN == 2) _tile_stored(2, acc[2], 64);
  if constexpr (IN == 2 && JN == 2) _tile_stored(3, acc[3], 64);
}

template <bool FT>
FTGEMM_TARGET_AMX void amx_macro(index_t mlen, index_t nlen, index_t kc,
                                 const float* a_packed, const float* b_packed,
                                 float* c, index_t ldc, float* cr_ref,
                                 float* cc_ref, float alpha) {
  const index_t d = amx_depth(kc);
  const index_t kt = std::min(d, kAmxK);
  TileConfig cfg;
  for (int t = 0; t < 4; ++t) {  // C accumulators: 16 x 16 fp32
    cfg.rows[t] = 16;
    cfg.colsb[t] = 64;
  }
  for (int t = 4; t < 6; ++t) {  // B~ rows: 16 columns x kt bf16
    cfg.rows[t] = 16;
    cfg.colsb[t] = std::uint16_t(2 * kt);
  }
  for (int t = 6; t < 8; ++t) {  // A~ pairs: kt/2 pair rows x 16 rows
    cfg.rows[t] = std::uint8_t(kt / 2);
    cfg.colsb[t] = 64;
  }
  _tile_loadconfig(&cfg);

  const std::uint16_t* a = bits(a_packed);
  const std::uint16_t* b = bits(b_packed);
  const __m512 va = _mm512_set1_ps(alpha);
  alignas(64) float acc[4][256];
  for (index_t jt = 0; jt < nlen; jt += kAmxR) {
    const std::uint16_t* bp = b + jt * d;
    const index_t nj = std::min(kAmxR, nlen - jt);
    for (index_t it = 0; it < mlen; it += kAmxR) {
      const std::uint16_t* ap = a + it * d;
      const index_t ni = std::min(kAmxR, mlen - it);
      if (ni > 16 && nj > 16) {
        tile_block<2, 2>(ap, bp, d, kt, acc);
      } else if (ni > 16) {
        tile_block<2, 1>(ap, bp, d, kt, acc);
      } else if (nj > 16) {
        tile_block<1, 2>(ap, bp, d, kt, acc);
      } else {
        tile_block<1, 1>(ap, bp, d, kt, acc);
      }
      tile_epilogue<FT>(acc, ni, nj, c + it + jt * ldc, ldc,
                        FT ? cr_ref + jt : nullptr, FT ? cc_ref + it : nullptr,
                        va);
    }
  }
  _tile_release();
}

void amx_macro_base(index_t mlen, index_t nlen, index_t kc, const float* a,
                    const float* b, float* c, index_t ldc, float* cr_ref,
                    float* cc_ref, float alpha) {
  amx_macro<false>(mlen, nlen, kc, a, b, c, ldc, cr_ref, cc_ref, alpha);
}

void amx_macro_ft(index_t mlen, index_t nlen, index_t kc, const float* a,
                  const float* b, float* c, index_t ldc, float* cr_ref,
                  float* cc_ref, float alpha) {
  amx_macro<true>(mlen, nlen, kc, a, b, c, ldc, cr_ref, cc_ref, alpha);
}

}  // namespace

KernelSet<bf16_t, float> amx_kernels_bf16() {
  if (!cpu_features().amx_bf16) return avx512_widening_kernels_bf16();
  KernelSet<bf16_t, float> ks;
  ks.mr = kAmxR;
  ks.nr = kAmxR;
  ks.cr_lanes = 1;  // the epilogue reduces each column in registers
  ks.isa = Isa::kAvx512;
  ks.macro_base = &amx_macro_base;
  ks.macro_ft = &amx_macro_ft;
  ks.kc_quantum = kAmxK;
  PackSet<bf16_t, float>& p = ks.pack;
  p.pack_a = &amx_pack_a;
  p.pack_a_ft = &amx_pack_a_ft;
  p.pack_b = &amx_pack_b;
  p.pack_b_ft = &amx_pack_b_ft;
  p.reduce_bc = &amx_reduce_bc;
  // The C-side encode is the fp32 one.
  p.scale_encode_c = avx512_pack_f32().scale_encode_c;
  p.encode_ar = &amx_encode_ar;
  p.encode_cc = &amx_encode_cc;
  p.pack_a_raw = &amx_pack_a_raw;
  p.widen_a = nullptr;
  p.panel_sums = &amx_panel_sums;
  p.isa = Isa::kAvx512;
  p.a_index = &amx_a_index;
  p.b_index = &amx_b_index;
  p.panel_elem_bytes = int(sizeof(bf16_t));
  p.narrow_panels = true;
  return ks;
}

}  // namespace ftgemm
