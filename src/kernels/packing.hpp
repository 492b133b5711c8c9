// Packing routines: copy operand panels into contiguous, zero-padded,
// register-tile-ordered buffers — plus the checksum-fused variants that are
// the heart of the paper's contribution (§2.2).
//
// Plain packing is what every high-performance GEMM does.  The FT variants
// reuse every loaded element for checksum arithmetic *while it is hot*:
//
//   pack_b_ft:  each B element is used three times per load —
//                 (1) stored into the packed panel B~,
//                 (2) accumulated into the panel column checksum Bc = B_p·e,
//                 (3) multiplied with Ar to update the predicted row
//                     checksum of C:  Cr += Ar_p · B_p.
//
//   pack_a_ft:  each A element is used twice per load —
//                 (1) scaled by alpha and stored into A~,
//                 (2) multiplied with Bc to update the predicted column
//                     checksum of C:  Cc += (alpha·A_p) · Bc_p.
//
// This converts the O(n^2) checksum encodings from separate memory passes
// (the ~15% overhead of classic ABFT at AVX-512 speeds) into pure extra
// arithmetic on data already in registers (~3% overhead).
//
// The templates below are the *portable scalar* implementations: the
// transpose flag is resolved once into row/column strides (OperandView
// stride accessors), so even non-SIMD builds run branch-free inner loops.
// Hot-path callers go through the ISA-dispatched PackSet instead
// (kernels/microkernel.hpp; AVX2/AVX-512 implementations in
// pack_avx2.cpp / pack_avx512.cpp) — these templates stay as the fallback,
// the ragged-edge path, and the test oracle the SIMD panels are asserted
// bit-identical against.
#pragma once

#include <algorithm>

#include "kernels/microkernel.hpp"

namespace ftgemm {

/// Width of the fixed-size lane-accumulator blocks in the fused panel
/// reductions below.  Any nr is handled (wider tiles sweep in chunks /
/// wrap modulo the block) — but every shipped kernel tile fits one block,
/// which keeps the accumulators register-resident.
inline constexpr index_t kPackAccLanes = 16;
static_assert(kPackAccLanes >= kMaxNr,
              "panel accumulator block must cover the widest kernel tile");

/// The MR-tile layout every packer in this file (and the widening SIMD
/// sets) writes, for A (w = MR) and B (w = NR) alike: panel q holds rows
/// (columns) q*w.. as klen consecutive w-wide depth slices.
inline index_t mr_tile_index(index_t r, index_t kk, index_t klen, index_t w) {
  return (r / w) * (w * klen) + kk * w + r % w;
}

/// Pack rows [m0, m0+mlen) x cols [k0, k0+klen) of the effective A into
/// MR-tall panels, scaled by alpha and zero-padded to a multiple of MR.
/// Panel layout: panel q (rows q*MR..) is klen consecutive MR-columns.
///
/// Generalized over (StorageT, ComputeT): elements are read as S, widened
/// once via C(...) — the identity for the classic S == C paths, so those
/// remain bit-for-bit the pre-split code — and all arithmetic and stores
/// are in C.
template <typename S, typename C = S>
void pack_a(const OperandView<S>& a, index_t m0, index_t k0, index_t mlen,
            index_t klen, index_t mr, C alpha, C* __restrict__ dst) {
  const index_t rs = a.row_stride(), cs = a.col_stride();
  for (index_t ip = 0; ip < mlen; ip += mr) {
    const index_t rows = std::min(mr, mlen - ip);
    const S* __restrict__ base = a.ptr(m0 + ip, k0);
    for (index_t kk = 0; kk < klen; ++kk) {
      C* __restrict__ col = dst + kk * mr;
      const S* __restrict__ src = base + kk * cs;
      for (index_t ii = 0; ii < rows; ++ii) col[ii] = alpha * C(src[ii * rs]);
      for (index_t ii = rows; ii < mr; ++ii) col[ii] = C(0);
    }
    dst += mr * klen;
  }
}

/// pack_a + fused predicted-column-checksum update:
///   cc[ii] += sum_kk (alpha * A(m0+ip+ii, k0+kk)) * bc[kk]
/// where `bc` is the (already reduced) column checksum of the current
/// B panel and `cc` points at the checksum entries for row m0.
template <typename S, typename C = S>
void pack_a_ft(const OperandView<S>& a, index_t m0, index_t k0, index_t mlen,
               index_t klen, index_t mr, C alpha, C* __restrict__ dst,
               const C* __restrict__ bc, C* __restrict__ cc) {
  const index_t rs = a.row_stride(), cs = a.col_stride();
  for (index_t ip = 0; ip < mlen; ip += mr) {
    const index_t rows = std::min(mr, mlen - ip);
    const S* __restrict__ base = a.ptr(m0 + ip, k0);
    for (index_t kk = 0; kk < klen; ++kk) {
      C* __restrict__ col = dst + kk * mr;
      const S* __restrict__ src = base + kk * cs;
      const C bcv = bc[kk];
      C* __restrict__ cc_rows = cc + ip;
      for (index_t ii = 0; ii < rows; ++ii) {
        const C v = alpha * C(src[ii * rs]);
        col[ii] = v;
        cc_rows[ii] += v * bcv;
      }
      for (index_t ii = rows; ii < mr; ++ii) col[ii] = C(0);
    }
    dst += mr * klen;
  }
}

/// Alpha-free permutation pack of an A block into MR-tile panel layout, in
/// StorageT (no widening, no scaling) — the resident-operand cache's
/// at-rest format for narrow weights.  Pure data movement: the only values
/// written are operand bits and S(0) padding, so integrity sums over the
/// raw panel are stable across alpha.
template <typename S>
void pack_a_raw(const OperandView<S>& a, index_t m0, index_t k0, index_t mlen,
                index_t klen, index_t mr, S* __restrict__ dst) {
  const index_t rs = a.row_stride(), cs = a.col_stride();
  for (index_t ip = 0; ip < mlen; ip += mr) {
    const index_t rows = std::min(mr, mlen - ip);
    const S* __restrict__ base = a.ptr(m0 + ip, k0);
    for (index_t kk = 0; kk < klen; ++kk) {
      S* __restrict__ col = dst + kk * mr;
      const S* __restrict__ src = base + kk * cs;
      for (index_t ii = 0; ii < rows; ++ii) col[ii] = src[ii * rs];
      for (index_t ii = rows; ii < mr; ++ii) col[ii] = S(0);
    }
    dst += mr * klen;
  }
}

/// Widen + alpha-scale a raw StorageT panel (from pack_a_raw) into the
/// ComputeT panel the kernels consume: the resident-cache hit path.  Valid
/// rows produce exactly `alpha * C(s)` — the same single widen + single
/// multiply pack_a applies — and padding rows are written as an explicit
/// C(0), NOT alpha * 0 (a negative alpha would turn that into -0.0 and
/// break bit-identity with the cold pack).
template <typename S, typename C>
void widen_a_panel(const S* __restrict__ raw, index_t mlen, index_t klen,
                   index_t mr, C alpha, C* __restrict__ dst) {
  for (index_t ip = 0; ip < mlen; ip += mr) {
    const index_t rows = std::min(mr, mlen - ip);
    for (index_t kk = 0; kk < klen; ++kk) {
      const S* __restrict__ col = raw + kk * mr;
      C* __restrict__ out = dst + kk * mr;
      for (index_t ii = 0; ii < rows; ++ii) out[ii] = alpha * C(col[ii]);
      for (index_t ii = rows; ii < mr; ++ii) out[ii] = C(0);
    }
    raw += mr * klen;
    dst += mr * klen;
  }
}

/// Pack rows [k0, k0+klen) x cols [j0, j0+nlen) of the effective B into
/// NR-wide panels, zero-padded to a multiple of NR.
///
/// For NoTrans the reads walk NR parallel column streams (unit stride along
/// k, prefetch-friendly) and the stores are contiguous; for Trans the
/// effective row itself is contiguous.
template <typename S, typename C = S>
void pack_b(const OperandView<S>& b, index_t k0, index_t j0, index_t klen,
            index_t nlen, index_t nr, C* __restrict__ dst) {
  const index_t rs = b.row_stride(), cs = b.col_stride();
  for (index_t jp = 0; jp < nlen; jp += nr) {
    const index_t cols = std::min(nr, nlen - jp);
    const S* __restrict__ base = b.ptr(k0, j0 + jp);
    for (index_t kk = 0; kk < klen; ++kk) {
      C* __restrict__ row = dst + kk * nr;
      const S* __restrict__ src = base + kk * rs;
      for (index_t jj = 0; jj < cols; ++jj) row[jj] = C(src[jj * cs]);
      for (index_t jj = cols; jj < nr; ++jj) row[jj] = C(0);
    }
    dst += nr * klen;
  }
}

/// pack_b + the fused predicted-row-checksum update
///   cr[jp+jj] += sum_kk ar[kk] * B(k0+kk, j0+jp+jj),
/// i.e. Cr += Ar_p · B_p ("each B element loaded from main memory is
/// re-used", §2.3).  `ar` points at the alpha-scaled A row-checksum entries
/// for depth k0; `cr` points at the checksum entries for column j0.
///
/// The panel checksum Bc = B_p·e is *not* accumulated here: the packed panel
/// is L2/L3-resident by construction, so the driver derives Bc from B~
/// during the cross-thread reduction stage at cache speed (see
/// reduce_bc_from_panel), keeping this inner loop at two streams and fully
/// vectorizable.
template <typename S, typename C = S>
void pack_b_ft(const OperandView<S>& b, index_t k0, index_t j0, index_t klen,
               index_t nlen, index_t nr, C* __restrict__ dst,
               const C* __restrict__ ar, C* __restrict__ cr) {
  const index_t rs = b.row_stride(), cs = b.col_stride();
  for (index_t jp = 0; jp < nlen; jp += nr) {
    const index_t cols = std::min(nr, nlen - jp);
    const S* __restrict__ base = b.ptr(k0, j0 + jp);
    // 1) Pack this NR-wide sub-panel (identical to pack_b).
    for (index_t kk = 0; kk < klen; ++kk) {
      C* __restrict__ row = dst + kk * nr;
      const S* __restrict__ src = base + kk * rs;
      for (index_t jj = 0; jj < cols; ++jj) row[jj] = C(src[jj * cs]);
      for (index_t jj = cols; jj < nr; ++jj) row[jj] = C(0);
    }
    // 2) Cr += Arᵀ·(sub-panel) while the 16 KiB sub-panel is L1-hot: one
    // NR-wide FMA per k step, contiguous loads, vector accumulators.  The
    // zero padding contributes nothing, so the accumulate runs full NR wide.
    // Tiles wider than the accumulator block sweep it in chunks (regression:
    // a single fixed-size block indexed by jj < nr overran the stack for
    // nr > kPackAccLanes).
    C* __restrict__ cr_cols = cr + jp;
    for (index_t jb = 0; jb < nr; jb += kPackAccLanes) {
      const index_t w = std::min(kPackAccLanes, nr - jb);
      C acc[kPackAccLanes] = {};
      for (index_t kk = 0; kk < klen; ++kk) {
        const C* __restrict__ row = dst + kk * nr + jb;
        const C arv = ar[kk];
        for (index_t jj = 0; jj < w; ++jj) acc[jj] += arv * row[jj];
      }
      const index_t jhi = std::min(cols, jb + w);
      for (index_t jj = jb; jj < jhi; ++jj) cr_cols[jj] += acc[jj - jb];
    }
    dst += nr * klen;
  }
}

/// Replay pack_a_ft's fused Cc update from an already-packed panel (the
/// resident-operand cache hit path, see core/operand_cache.hpp):
///   cc[ip + ii] += sum_kk panel_q(ii, kk) * bc[kk]
/// Same loop nest and summation order as pack_a_ft — the packed value IS the
/// alpha-scaled element pack_a_ft stored, so the accumulated Cc is
/// bit-identical to what a cold pack_a_ft over the same (mlen, klen) slab
/// would have produced.  The zero padding of a ragged tile contributes
/// nothing and is skipped exactly like pack_a_ft skips it.
template <typename T>
void encode_cc_from_panel(const T* __restrict__ packed, bool /*trans*/,
                          index_t mlen, index_t klen, index_t mr,
                          const T* __restrict__ bc, T* __restrict__ cc,
                          T /*alpha: already in the panel*/) {
  for (index_t ip = 0; ip < mlen; ip += mr) {
    const index_t rows = std::min(mr, mlen - ip);
    for (index_t kk = 0; kk < klen; ++kk) {
      const T* __restrict__ col = packed + kk * mr;
      const T bcv = bc[kk];
      T* __restrict__ cc_rows = cc + ip;
      for (index_t ii = 0; ii < rows; ++ii) cc_rows[ii] += col[ii] * bcv;
    }
    packed += mr * klen;
  }
}

/// Integrity sums of one resident MR-tile panel (PanelSumsFn; the scalar
/// sets' resident encode and verify-on-hit): rowsum[q*mr + ii] += every
/// element of packed row ii of tile q, colsum[kk] += depth kk of every
/// packed row.  The zero padding of the ragged edge tile participates: a
/// flip landing in padding is caught too (it would feed the micro-kernels
/// just the same).  One pass per tile reads the panel exactly once:
/// unit-stride row accumulation the compiler can vectorize, and column sums
/// in a fixed 4-lane-partial order that breaks the serial FP dependence
/// chain a naive reduction would pin the loop on.  Narrow storage widens
/// each element once (C(col[ii])).
template <typename S, typename C>
void panel_sums_mr_tile(const S* __restrict__ packed, index_t tiles,
                        index_t klen, index_t mr, C* __restrict__ rowsum,
                        C* __restrict__ colsum) {
  for (index_t q = 0; q < tiles; ++q) {
    const S* tile = packed + q * (mr * klen);
    C* rc = rowsum + q * mr;
    for (index_t kk = 0; kk < klen; ++kk) {
      const S* col = tile + kk * mr;
      C s0 = C(0), s1 = C(0), s2 = C(0), s3 = C(0);
      index_t ii = 0;
      for (; ii + 4 <= mr; ii += 4) {
        rc[ii] += C(col[ii]);
        rc[ii + 1] += C(col[ii + 1]);
        rc[ii + 2] += C(col[ii + 2]);
        rc[ii + 3] += C(col[ii + 3]);
        s0 += C(col[ii]);
        s1 += C(col[ii + 1]);
        s2 += C(col[ii + 2]);
        s3 += C(col[ii + 3]);
      }
      C s = (s0 + s1) + (s2 + s3);
      for (; ii < mr; ++ii) {
        rc[ii] += C(col[ii]);
        s += C(col[ii]);
      }
      colsum[kk] += s;
    }
  }
}

/// Derive the panel column checksum Bc[kk] = sum_j B_p(kk, j) for
/// kk in [kk0, kk0+kklen) from the packed (zero-padded) panel itself, and
/// fold the running amax of |B| (needed by the tolerance model) into the
/// same cache-speed sweep.  `b_packed` covers `nlen` columns in NR-wide
/// sub-panels of depth `klen`.  Returns max(amax_in, amax of the slice).
template <typename T>
double reduce_bc_from_panel(const T* __restrict__ b_packed, index_t klen,
                            index_t nlen, index_t nr, index_t kk0,
                            index_t kklen, T* __restrict__ bc,
                            double amax_in) {
  const index_t panels = (nlen + nr - 1) / nr;
  // amax lanes wrap modulo the block so any nr is in bounds (regression:
  // indexing by jj < nr overran the stack for nr > kPackAccLanes); max is
  // order-independent, so wrapping does not change the result.
  T amax_lane[kPackAccLanes] = {};
  for (index_t kk = kk0; kk < kk0 + kklen; ++kk) bc[kk] = T(0);
  for (index_t q = 0; q < panels; ++q) {
    const T* __restrict__ panel = b_packed + q * (nr * klen);
    for (index_t kk = kk0; kk < kk0 + kklen; ++kk) {
      const T* __restrict__ row = panel + kk * nr;
      T sum = T(0);
      for (index_t jj = 0; jj < nr; ++jj) {
        const T v = row[jj];
        const T x = std::abs(v);
        sum += v;
        T& lane = amax_lane[jj % kPackAccLanes];
        lane = lane > x ? lane : x;
      }
      bc[kk] += sum;
    }
  }
  double amax = amax_in;
  const index_t lanes = std::min(nr, kPackAccLanes);
  for (index_t jj = 0; jj < lanes; ++jj)
    amax = std::max(amax, double(amax_lane[jj]));
  return amax;
}

}  // namespace ftgemm
