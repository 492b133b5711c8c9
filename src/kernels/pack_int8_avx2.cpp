// AVX2 sweeps over the shared int8 quad layout.
//
// Every member of the int8 pack/encode family runs here as one vector pass
// that writes exactly the bytes and sums of its portable reference in
// kernel_int8_scalar.cpp.  The packed passes work on *groups*: 16
// contiguous bytes of a tile, 4 packed rows (A~) or columns (B~) x one
// depth quad (kernels/kernel_int8.hpp).
//
//   pack_a(_ft) : op(A) -> A~ bytes with the fused arow (and Cc) sums
//   pack_b(_ft) : op(B) -> B~ bytes with the fused bcol (and Cr) sums
//   encode_cc   : the Cc sums replayed from a resident A~ panel
//   panel_sums  : integrity row/column sums of a resident A~ panel
//   encode_ar   : VPSADBW column sums of op(A)
//   reduce_bc   : Bc from a packed B~ panel
//
// Two primitives turn an operand into groups, 16 packed rows at a time: a
// 4-column byte interleave where the packed rows are contiguous in memory
// (A no-trans, B trans) and a 4x4 dword transpose where the depth is
// (A trans, B no-trans).  The fused sums then read the groups, so one
// accumulator serves all four operand cases and both resident passes:
// row sums through maddubs/madd against ones (pair sums of at most
// 2 * 255, far from the i16 saturation the micro-kernels must avoid), and
// the Cc/Cr sums through pmaddwd against the quad's four bc/ar weights as
// i16 (split into two halves when a weight does not fit), widened to i64
// before any lane can wrap.
//
// Integer addition is associative, so every sum is bit-identical to the
// scalar one by construction — the member-by-member parity test, the
// FTGEMM_FORCE_ISA=scalar CI leg and Int8Gemm.ForcedScalarIsaBitIdentical*
// assert exactly that.  Rows short of a 16-row block, tiles other than 4,
// 8 or 16 rows, and weights of 2^22 or more in magnitude (no longer two i16
// halves) delegate to the portable implementations.
#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <vector>

#include "kernels/microkernel.hpp"

namespace ftgemm {

namespace {

const PackSet<std::int8_t, std::int32_t>& portable() {
  static const PackSet<std::int8_t, std::int32_t> p = scalar_pack_i8();
  return p;
}

/// Packed rows (A~) / columns (B~) per group, groups per pack block.
constexpr index_t kGroupRows = 4;
constexpr int kBlockGroups = 4;
constexpr index_t kBlockRows = kGroupRows * kBlockGroups;

/// Weights (bc / ar) at or beyond this magnitude delegate to the portable
/// passes: below it any weight splits into two i16 halves (see Weights).
constexpr std::int32_t kWeightLimit = 1 << 22;
constexpr int kWeightShift = 11;

/// Tile heights the group sweeps handle: a multiple of the group height
/// that divides the pack block, so blocks and tiles share boundaries.
bool simd_tile(index_t tile) { return tile == 4 || tile == 8 || tile == 16; }

std::int32_t max_abs_i32(const std::int32_t* v, index_t n) {
  std::int32_t m = 0;
  for (index_t i = 0; i < n; ++i) {
    const std::int32_t a = v[i] < 0 ? -v[i] : v[i];
    m = std::max(m, a);
  }
  return m;
}

/// Horizontal sum of a 4 x i64 vector.
std::int64_t hsum_epi64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i s = _mm_add_epi64(lo, hi);
  return _mm_cvtsi128_si64(s) + _mm_extract_epi64(s, 1);
}

/// Up to 16 bytes into a zeroed vector, reading exactly n bytes.
__m128i load_partial(const void* p, index_t n) {
  alignas(16) std::uint8_t buf[16] = {};
  std::memcpy(buf, p, std::size_t(n));
  return _mm_load_si128(reinterpret_cast<const __m128i*>(buf));
}

/// Interleave four depth slices of 16 lanes into four groups: group g holds
/// lanes 4g..4g+3, each as its 4 depth bytes.
void interleave4(__m128i s0, __m128i s1, __m128i s2, __m128i s3,
                 __m128i* g) {
  const __m128i a = _mm_unpacklo_epi8(s0, s1);
  const __m128i b = _mm_unpackhi_epi8(s0, s1);
  const __m128i c = _mm_unpacklo_epi8(s2, s3);
  const __m128i d = _mm_unpackhi_epi8(s2, s3);
  g[0] = _mm_unpacklo_epi16(a, c);
  g[1] = _mm_unpackhi_epi16(a, c);
  g[2] = _mm_unpacklo_epi16(b, d);
  g[3] = _mm_unpackhi_epi16(b, d);
}

/// Transpose four lanes x eight quads of depth dwords (one 128-bit half
/// per four quads) into the groups of those lanes: quads 0-3 in the low
/// halves of g[0..3], quads 4-7 in the high halves.
void transpose4(__m256i x0, __m256i x1, __m256i x2, __m256i x3, __m256i* g) {
  const __m256i t0 = _mm256_unpacklo_epi32(x0, x1);
  const __m256i t1 = _mm256_unpacklo_epi32(x2, x3);
  const __m256i t2 = _mm256_unpackhi_epi32(x0, x1);
  const __m256i t3 = _mm256_unpackhi_epi32(x2, x3);
  g[0] = _mm256_unpacklo_epi64(t0, t1);
  g[1] = _mm256_unpackhi_epi64(t0, t1);
  g[2] = _mm256_unpacklo_epi64(t2, t3);
  g[3] = _mm256_unpackhi_epi64(t2, t3);
}

/// How a pass multiplies its bytes by the bc / ar weights of their depth.
enum class Dot {
  kNone,    ///< no weighted sums
  kNarrow,  ///< every weight fits i16: one pmaddwd per group
  kWide,    ///< w = hi * 2^11 + lo, lo in [0, 2^11), hi in [-2^11, 2^11):
            ///< two pmaddwd per group
};

/// The weights of one pass as per-quad i16 vectors — each quad's four
/// weights repeated for the four rows of a group, zero past klen — built
/// once per call.  Narrow passes hold one vector per quad, wide ones two
/// (lo, then hi).
struct Weights {
  Dot dot = Dot::kNone;
  const __m256i* quad = nullptr;
};

/// A vector table slot (a struct: std::vector drops __m256i's alignment
/// attribute, not an alignas on the element type).
struct alignas(32) Vec256 {
  __m256i v;
};

/// Build the weight vectors of w[0, klen), given max |w| < kWeightLimit.
Weights build_weights(const std::int32_t* w, index_t klen, std::int32_t wmax) {
  thread_local std::vector<Vec256> table;
  Weights out;
  out.dot = wmax <= 32767 ? Dot::kNarrow : Dot::kWide;
  const index_t kq = i8_kq(klen);
  const index_t per_quad = out.dot == Dot::kWide ? 2 : 1;
  if (table.size() < std::size_t(kq * per_quad))
    table.resize(std::size_t(kq * per_quad));
  for (index_t q = 0; q < kq; ++q) {
    const index_t kk = q * kI8KQuad;
    const __m128i w4 =
        kk + kI8KQuad <= klen
            ? _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + kk))
            : load_partial(w + kk, (klen - kk) * index_t(sizeof(*w)));
    if (out.dot == Dot::kNarrow) {
      table[std::size_t(q)].v =
          _mm256_broadcastq_epi64(_mm_packs_epi32(w4, w4));
    } else {
      const __m128i halves = _mm_packs_epi32(
          _mm_and_si128(w4, _mm_set1_epi32((1 << kWeightShift) - 1)),
          _mm_srai_epi32(w4, kWeightShift));
      table[std::size_t(2 * q)].v = _mm256_broadcastq_epi64(halves);
      table[std::size_t(2 * q + 1)].v =
          _mm256_broadcastq_epi64(_mm_unpackhi_epi64(halves, halves));
    }
  }
  out.quad = &table.data()->v;
  return out;
}

/// Exact sums over NG groups (4 * NG packed rows), fed one depth quad at a
/// time.  kU8: the bytes are biased u8 (A~), else s8 (B~).  kRows: per-row
/// byte sums in i32 (at most 255 * kI8MaxDepth).  kDot: per-row sums of
/// byte x weight as pmaddwd pair sums in i32 lanes (two per row), widened
/// into i64 before a lane can pass 2^30: a narrow pair sum is below
/// 2 * 255 * 2^15 < 2^24 (64 quads), a wide one below 2 * 255 * 2^11 <
/// 2^20 (1024 quads).
template <int NG, bool kU8, bool kRows, Dot kDot>
class GroupSums {
 public:
  GroupSums() {
    for (int g = 0; g < NG; ++g) {
      rows_[g] = _mm256_setzero_si256();
      lo_[g] = hi_[g] = _mm256_setzero_si256();
      wide_[2 * g] = wide_[2 * g + 1] = _mm256_setzero_si256();
    }
  }

  /// Accumulate group g of the current quad against the quad's weight
  /// vectors wq (unused without kDot).
  void add(int g, __m128i v, const __m256i* wq) {
    if constexpr (kDot == Dot::kNone) {
      if constexpr (kRows) {
        const __m128i ones8 = _mm_set1_epi8(1);
        const __m128i pairs = kU8 ? _mm_maddubs_epi16(v, ones8)
                                  : _mm_maddubs_epi16(ones8, v);
        rows_[g] = _mm256_add_epi32(
            rows_[g], _mm256_zextsi128_si256(
                          _mm_madd_epi16(pairs, _mm_set1_epi16(1))));
      }
    } else {
      const __m256i x =
          kU8 ? _mm256_cvtepu8_epi16(v) : _mm256_cvtepi8_epi16(v);
      if constexpr (kRows) {
        rows_[g] = _mm256_add_epi32(rows_[g],
                                    _mm256_madd_epi16(x, _mm256_set1_epi16(1)));
      }
      lo_[g] = _mm256_add_epi32(lo_[g], _mm256_madd_epi16(x, wq[0]));
      if constexpr (kDot == Dot::kWide) {
        hi_[g] = _mm256_add_epi32(hi_[g], _mm256_madd_epi16(x, wq[1]));
      }
    }
  }

  void end_quad() {
    if constexpr (kDot != Dot::kNone) {
      constexpr index_t kFlush = kDot == Dot::kNarrow ? 64 : 1024;
      if (++pending_ == kFlush) widen();
    }
  }

  /// Add the first `rows` rows' totals into row_sink / dot_sink (either may
  /// be null).
  void finish(index_t rows, std::int32_t* row_sink, std::int64_t* dot_sink) {
    if constexpr (kRows) {
      if (row_sink != nullptr) {
        alignas(32) std::int32_t r[8 * NG];
        for (int g = 0; g < NG; ++g)
          _mm256_store_si256(reinterpret_cast<__m256i*>(r + 8 * g), rows_[g]);
        for (index_t i = 0; i < rows; ++i) {
          // kNone: four row sums per group; else two pair sums per row.
          row_sink[i] += kDot == Dot::kNone ? r[8 * (i / 4) + i % 4]
                                            : r[2 * i] + r[2 * i + 1];
        }
      }
    }
    if constexpr (kDot != Dot::kNone) {
      if (dot_sink != nullptr) {
        widen();
        alignas(32) std::int64_t d[8 * NG];  // two lanes per row
        for (int h = 0; h < 2 * NG; ++h)
          _mm256_store_si256(reinterpret_cast<__m256i*>(d + 4 * h), wide_[h]);
        for (index_t i = 0; i < rows; ++i)
          dot_sink[i] += d[2 * i] + d[2 * i + 1];
      }
    }
  }

 private:
  /// wide += lo (narrow) or hi * 2^11 + lo (wide), per i32 lane in i64.
  void widen() {
    for (int g = 0; g < NG; ++g) {
      for (int h = 0; h < 2; ++h) {
        const __m128i lo = h == 0 ? _mm256_castsi256_si128(lo_[g])
                                  : _mm256_extracti128_si256(lo_[g], 1);
        __m256i add = _mm256_cvtepi32_epi64(lo);
        if constexpr (kDot == Dot::kWide) {
          const __m128i hi = h == 0 ? _mm256_castsi256_si128(hi_[g])
                                    : _mm256_extracti128_si256(hi_[g], 1);
          add = _mm256_add_epi64(
              add, _mm256_slli_epi64(_mm256_cvtepi32_epi64(hi), kWeightShift));
        }
        wide_[2 * g + h] = _mm256_add_epi64(wide_[2 * g + h], add);
      }
      lo_[g] = hi_[g] = _mm256_setzero_si256();
    }
    pending_ = 0;
  }

  index_t pending_ = 0;
  __m256i rows_[NG];
  __m256i lo_[NG], hi_[NG];
  __m256i wide_[2 * NG];
};

/// Weight vectors of quad q (null without kDot).
template <Dot kDot>
const __m256i* quad_weights(const Weights& wt, index_t q) {
  if constexpr (kDot == Dot::kNone) return nullptr;
  return wt.quad + q * (kDot == Dot::kWide ? 2 : 1);
}

/// Pack the full 16-lane blocks of an int8 operand into quad tiles with the
/// fused sums.  `src` is element (lane 0, depth 0), where a lane is a
/// packed row of A~ or column of B~; exactly one of the strides is 1.
/// kU8 biases the bytes (A~).  row_sums / dots are lane-indexed sinks
/// (either may be null).  Returns the lanes packed, a multiple of
/// kBlockRows; the caller packs the rest.
template <bool kU8, bool kRows, Dot kDot>
index_t pack_blocks(const std::int8_t* src, index_t lane_stride,
                    index_t depth_stride, index_t lanes, index_t klen,
                    index_t tile, std::uint8_t* dst, std::int32_t* row_sums,
                    const Weights& wt, std::int64_t* dots) {
  const index_t kq = i8_kq(klen);
  const index_t tile_bytes = kq * kI8KQuad * tile;
  const index_t quad_bytes = tile * kI8KQuad;
  const __m256i bias256 = _mm256_set1_epi8(char(0x80));
  const auto biased = [&](__m128i v) {
    return kU8 ? _mm_xor_si128(v, _mm256_castsi256_si128(bias256)) : v;
  };
  const index_t done = lanes - lanes % kBlockRows;
  for (index_t l0 = 0; l0 < done; l0 += kBlockRows) {
    GroupSums<kBlockGroups, kU8, kRows, kDot> acc;
    std::uint8_t* out[kBlockGroups];
    for (int g = 0; g < kBlockGroups; ++g) {
      const index_t lane = l0 + g * kGroupRows;
      out[g] = dst + (lane / tile) * tile_bytes + (lane % tile) * kI8KQuad;
    }
    const auto emit = [&](index_t q, const __m128i* grp) {
      const __m256i* wq = quad_weights<kDot>(wt, q);
      for (int g = 0; g < kBlockGroups; ++g) {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out[g] + q * quad_bytes),
                         grp[g]);
        acc.add(g, grp[g], wq);
      }
      acc.end_quad();
    };
    __m128i grp[kBlockGroups];
    if (depth_stride != 1) {
      // Lanes contiguous: four depth slices of 16 lanes -> four groups.
      const std::int8_t* col = src + l0;
      for (index_t q = 0; q < kq; ++q) {
        __m128i s[kI8KQuad];
        for (index_t t = 0; t < kI8KQuad; ++t) {
          const index_t kk = q * kI8KQuad + t;
          s[t] = kk < klen ? biased(_mm_loadu_si128(
                                 reinterpret_cast<const __m128i*>(
                                     col + kk * depth_stride)))
                           : _mm_setzero_si128();
        }
        interleave4(s[0], s[1], s[2], s[3], grp);
        emit(q, grp);
      }
    } else {
      // Depth contiguous: 32 depths of four lanes -> eight quads' groups.
      const std::int8_t* row = src + l0 * lane_stride;
      index_t q = 0;
      for (; (q + 8) * kI8KQuad <= klen; q += 8) {
        __m128i quads[8][kBlockGroups];
        for (int g = 0; g < kBlockGroups; ++g) {
          __m256i x[kGroupRows];
          for (index_t r = 0; r < kGroupRows; ++r) {
            x[r] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                row + (g * kGroupRows + r) * lane_stride + q * kI8KQuad));
            if (kU8) x[r] = _mm256_xor_si256(x[r], bias256);
          }
          __m256i t[4];
          transpose4(x[0], x[1], x[2], x[3], t);
          for (int qq = 0; qq < 4; ++qq) {
            quads[qq][g] = _mm256_castsi256_si128(t[qq]);
            quads[qq + 4][g] = _mm256_extracti128_si256(t[qq], 1);
          }
        }
        for (int qq = 0; qq < 8; ++qq) emit(q + qq, quads[qq]);
      }
      // Remaining quads one dword per lane (the last may be partial; its
      // padding bytes stay zero, unbiased).
      for (; q < kq; ++q) {
        const index_t kk = q * kI8KQuad;
        const index_t n = std::min(kI8KQuad, klen - kk);
        const std::uint32_t live =
            n == kI8KQuad ? 0xFFFFFFFFu : (1u << (8 * n)) - 1u;
        const std::uint32_t dbias = kU8 ? 0x80808080u & live : 0u;
        for (int g = 0; g < kBlockGroups; ++g) {
          alignas(16) std::uint32_t d[kGroupRows] = {};
          for (index_t r = 0; r < kGroupRows; ++r) {
            const std::int8_t* p =
                row + (g * kGroupRows + r) * lane_stride + kk;
            if (n == kI8KQuad) {
              std::memcpy(&d[r], p, sizeof(d[r]));
            } else {
              std::memcpy(&d[r], p, std::size_t(n));
            }
            d[r] ^= dbias;
          }
          grp[g] = _mm_load_si128(reinterpret_cast<const __m128i*>(d));
        }
        emit(q, grp);
      }
    }
    acc.finish(kBlockRows, row_sums != nullptr ? row_sums + l0 : nullptr,
               dots != nullptr ? dots + l0 : nullptr);
  }
  return done;
}

/// pack_blocks with the sums the sinks ask for: weights w (null: no
/// weighted sums, else max |w| = wmax) pick the narrow or wide products.
template <bool kU8>
index_t pack_with_sums(const std::int8_t* src, index_t lane_stride,
                       index_t depth_stride, index_t lanes, index_t klen,
                       index_t tile, std::uint8_t* dst, std::int32_t* row_sums,
                       const std::int32_t* w, std::int32_t wmax,
                       std::int64_t* dots) {
  const auto run = [&](auto rows, auto dot, const Weights& wt) {
    return pack_blocks<kU8, decltype(rows)::value, decltype(dot)::value>(
        src, lane_stride, depth_stride, lanes, klen, tile, dst, row_sums, wt,
        dots);
  };
  using Rows = std::true_type;
  using NoRows = std::false_type;
  using None = std::integral_constant<Dot, Dot::kNone>;
  using Narrow = std::integral_constant<Dot, Dot::kNarrow>;
  using Wide = std::integral_constant<Dot, Dot::kWide>;
  const bool rows = row_sums != nullptr;
  if (w == nullptr) {
    return rows ? run(Rows{}, None{}, Weights{})
                : run(NoRows{}, None{}, Weights{});
  }
  const Weights wt = build_weights(w, klen, wmax);
  if (wt.dot == Dot::kNarrow) {
    return rows ? run(Rows{}, Narrow{}, wt) : run(NoRows{}, Narrow{}, wt);
  }
  return rows ? run(Rows{}, Wide{}, wt) : run(NoRows{}, Wide{}, wt);
}

// Pack op(A) (biased u8), fused arow and — FT — cc against bc.
template <bool FT>
void pack_a_i8_avx2(const OperandView<std::int8_t>& a, index_t m0,
                    index_t k0, index_t mlen, index_t klen, index_t mr,
                    std::uint8_t* dst, std::int32_t* arow,
                    const std::int32_t* bc, std::int64_t* cc) {
  const std::int32_t wmax = FT ? max_abs_i32(bc, klen) : 0;
  index_t done = 0;
  if (simd_tile(mr) && wmax < kWeightLimit && klen > 0) {
    done = pack_with_sums<true>(a.ptr(m0, k0), a.row_stride(), a.col_stride(),
                                mlen, klen, mr, dst,
                                arow != nullptr ? arow + m0 : nullptr,
                                FT ? bc : nullptr, wmax,
                                FT ? cc + m0 : nullptr);
  }
  if (done == mlen) return;
  std::uint8_t* rest = dst + (done / mr) * i8_tile_bytes(klen, mr);
  if constexpr (FT) {
    portable().pack_a_ft(a, m0 + done, k0, mlen - done, klen, mr, rest, arow,
                         bc, cc);
  } else {
    portable().pack_a(a, m0 + done, k0, mlen - done, klen, mr, rest, arow);
  }
}

void pack_a_avx2(const OperandView<std::int8_t>& a, index_t m0, index_t k0,
                 index_t mlen, index_t klen, index_t mr, std::uint8_t* dst,
                 std::int32_t* arow) {
  pack_a_i8_avx2<false>(a, m0, k0, mlen, klen, mr, dst, arow, nullptr,
                        nullptr);
}

void pack_a_ft_avx2(const OperandView<std::int8_t>& a, index_t m0, index_t k0,
                    index_t mlen, index_t klen, index_t mr, std::uint8_t* dst,
                    std::int32_t* arow, const std::int32_t* bc,
                    std::int64_t* cc) {
  pack_a_i8_avx2<true>(a, m0, k0, mlen, klen, mr, dst, arow, bc, cc);
}

// Pack op(B) (s8), fused bcol and — FT — cr against ar.
template <bool FT>
void pack_b_i8_avx2(const OperandView<std::int8_t>& b, index_t k0,
                    index_t j0, index_t klen, index_t nlen, index_t nr,
                    std::int8_t* dst, std::int32_t* bcol,
                    const std::int32_t* ar, std::int64_t* cr) {
  const std::int32_t wmax = FT ? max_abs_i32(ar, klen) : 0;
  index_t done = 0;
  if (simd_tile(nr) && wmax < kWeightLimit && klen > 0) {
    done = pack_with_sums<false>(
        b.ptr(k0, j0), b.col_stride(), b.row_stride(), nlen, klen, nr,
        reinterpret_cast<std::uint8_t*>(dst),
        bcol != nullptr ? bcol + j0 : nullptr, FT ? ar : nullptr, wmax,
        FT ? cr + j0 : nullptr);
  }
  if (done == nlen) return;
  std::int8_t* rest = dst + (done / nr) * i8_tile_bytes(klen, nr);
  if constexpr (FT) {
    portable().pack_b_ft(b, k0, j0 + done, klen, nlen - done, nr, rest, bcol,
                         ar, cr);
  } else {
    portable().pack_b(b, k0, j0 + done, klen, nlen - done, nr, rest, bcol);
  }
}

void pack_b_avx2(const OperandView<std::int8_t>& b, index_t k0, index_t j0,
                 index_t klen, index_t nlen, index_t nr, std::int8_t* dst,
                 std::int32_t* bcol) {
  pack_b_i8_avx2<false>(b, k0, j0, klen, nlen, nr, dst, bcol, nullptr,
                        nullptr);
}

void pack_b_ft_avx2(const OperandView<std::int8_t>& b, index_t k0, index_t j0,
                    index_t klen, index_t nlen, index_t nr, std::int8_t* dst,
                    std::int32_t* bcol, const std::int32_t* ar,
                    std::int64_t* cr) {
  pack_b_i8_avx2<true>(b, k0, j0, klen, nlen, nr, dst, bcol, ar, cr);
}

// Cc replay over the tiles of a resident A~ panel: NG groups per tile.
template <int NG, Dot kDot>
void encode_cc_tiles(const std::uint8_t* packed, index_t mlen, index_t klen,
                     const Weights& wt, std::int64_t* cc) {
  constexpr index_t mr = NG * kGroupRows;
  const index_t kq = i8_kq(klen);
  const index_t tile_bytes = kq * kI8KQuad * mr;
  for (index_t it = 0; it < mlen; it += mr) {
    const std::uint8_t* tile = packed + (it / mr) * tile_bytes;
    GroupSums<NG, true, false, kDot> acc;
    for (index_t q = 0; q < kq; ++q) {
      const __m256i* wq = quad_weights<kDot>(wt, q);
      const std::uint8_t* quad = tile + q * mr * kI8KQuad;
      for (int g = 0; g < NG; ++g) {
        const auto* grp = reinterpret_cast<const __m128i*>(quad) + g;
        acc.add(g, _mm_loadu_si128(grp), wq);
      }
      acc.end_quad();
    }
    acc.finish(std::min(mr, mlen - it), nullptr, cc + it);
  }
}

template <int NG>
void encode_cc_tiles(const std::uint8_t* packed, index_t mlen, index_t klen,
                     const Weights& wt, std::int64_t* cc) {
  if (wt.dot == Dot::kNarrow) {
    encode_cc_tiles<NG, Dot::kNarrow>(packed, mlen, klen, wt, cc);
  } else {
    encode_cc_tiles<NG, Dot::kWide>(packed, mlen, klen, wt, cc);
  }
}

void encode_cc_i8_avx2(const std::uint8_t* packed, index_t mlen,
                       index_t klen, index_t mr, const std::int32_t* bc,
                       std::int64_t* cc) {
  const std::int32_t bmax = max_abs_i32(bc, klen);
  if (!simd_tile(mr) || bmax >= kWeightLimit) {
    portable().encode_cc(packed, mlen, klen, mr, bc, cc);
    return;
  }
  if (bmax == 0 || klen <= 0) return;  // every product is zero
  const Weights wt = build_weights(bc, klen, bmax);
  switch (mr) {
    case 4: encode_cc_tiles<1>(packed, mlen, klen, wt, cc); break;
    case 8: encode_cc_tiles<2>(packed, mlen, klen, wt, cc); break;
    default: encode_cc_tiles<4>(packed, mlen, klen, wt, cc); break;
  }
}

// Integrity sums over the tiles of a resident A~ panel, 32 bytes (two
// groups) per step.  Row sums: maddubs/madd against ones.  Column sums:
// the even and odd bytes of each u16 lane (depths 2*(l%2) and 2*(l%2)+1 of
// lane l) accumulate per quad across tiles, then fold once into colsum.
template <int NG>
void panel_sums_tiles(const std::uint8_t* packed, index_t tiles,
                      index_t klen, std::int32_t* rowsum,
                      std::int32_t* colsum) {
  constexpr index_t mr = NG * kGroupRows;
  constexpr int kChunks = NG == 1 ? 1 : NG / 2;  // ymm per tile quad
  // u16 column lanes gain at most kChunks * 255 per tile.
  constexpr index_t kFoldTiles = 64;
  const index_t kq = i8_kq(klen);
  const index_t tile_bytes = kq * kI8KQuad * mr;
  thread_local std::vector<Vec256> cols;  // per quad: even, odd
  if (cols.size() < std::size_t(2 * kq)) cols.resize(std::size_t(2 * kq));
  const auto clear_cols = [&] {
    for (index_t x = 0; x < 2 * kq; ++x)
      cols[std::size_t(x)].v = _mm256_setzero_si256();
  };
  const auto fold_cols = [&] {
    const __m256i low16 = _mm256_set1_epi32(0xFFFF);
    for (index_t q = 0; q < kq; ++q) {
      const __m256i e = cols[std::size_t(2 * q)].v;
      const __m256i o = cols[std::size_t(2 * q + 1)].v;
      // Depths 0 / 2 sit in the low / high u16 of e's i32 lanes, 1 / 3 in
      // o's; three hadd rounds leave each depth's total in one i32 lane.
      const __m256i h = _mm256_hadd_epi32(
          _mm256_hadd_epi32(_mm256_and_si256(e, low16),
                            _mm256_and_si256(o, low16)),
          _mm256_hadd_epi32(_mm256_srli_epi32(e, 16),
                            _mm256_srli_epi32(o, 16)));
      // h per 128-bit half: depth 0, 1, 2, 3 partials.
      const __m128i t = _mm_add_epi32(_mm256_castsi256_si128(h),
                                      _mm256_extracti128_si256(h, 1));
      std::int32_t* cs = colsum + q * kI8KQuad;
      if ((q + 1) * kI8KQuad <= klen) {
        _mm_storeu_si128(
            reinterpret_cast<__m128i*>(cs),
            _mm_add_epi32(_mm_loadu_si128(reinterpret_cast<__m128i*>(cs)), t));
      } else {
        // Quad-padding depths have no colsum slot (row sums cover them).
        alignas(16) std::int32_t d[kI8KQuad];
        _mm_store_si128(reinterpret_cast<__m128i*>(d), t);
        for (index_t x = 0; x < klen - q * kI8KQuad; ++x) cs[x] += d[x];
      }
    }
    clear_cols();
  };
  const __m256i ones8 = _mm256_set1_epi8(1);
  const __m256i ones16 = _mm256_set1_epi16(1);
  const __m256i low = _mm256_set1_epi16(0x00FF);
  clear_cols();
  for (index_t tl = 0; tl < tiles; ++tl) {
    const std::uint8_t* tile = packed + tl * tile_bytes;
    __m256i rows[kChunks];
    for (int c = 0; c < kChunks; ++c) rows[c] = _mm256_setzero_si256();
    for (index_t q = 0; q < kq; ++q) {
      const std::uint8_t* quad = tile + q * mr * kI8KQuad;
      __m256i even = _mm256_setzero_si256(), odd = _mm256_setzero_si256();
      for (int c = 0; c < kChunks; ++c) {
        const __m256i v =
            NG == 1 ? _mm256_zextsi128_si256(_mm_loadu_si128(
                          reinterpret_cast<const __m128i*>(quad)))
                    : _mm256_loadu_si256(
                          reinterpret_cast<const __m256i*>(quad + 32 * c));
        rows[c] = _mm256_add_epi32(
            rows[c],
            _mm256_madd_epi16(_mm256_maddubs_epi16(v, ones8), ones16));
        even = _mm256_add_epi16(even, _mm256_and_si256(v, low));
        odd = _mm256_add_epi16(odd, _mm256_srli_epi16(v, 8));
      }
      __m256i* cq = &cols[std::size_t(2 * q)].v;
      cq[0] = _mm256_add_epi16(cq[0], even);
      cq[1] = _mm256_add_epi16(cq[1], odd);
    }
    alignas(32) std::int32_t r[8 * kChunks];
    for (int c = 0; c < kChunks; ++c)
      _mm256_store_si256(reinterpret_cast<__m256i*>(r + 8 * c), rows[c]);
    for (index_t i = 0; i < mr; ++i) rowsum[tl * mr + i] += r[i];
    if ((tl + 1) % kFoldTiles == 0) fold_cols();
  }
  if (tiles % kFoldTiles != 0) fold_cols();
}

void panel_sums_i8_avx2(const std::uint8_t* packed, index_t tiles,
                        index_t klen, index_t mr, std::int32_t* rowsum,
                        std::int32_t* colsum) {
  switch (mr) {
    case 4: panel_sums_tiles<1>(packed, tiles, klen, rowsum, colsum); break;
    case 8: panel_sums_tiles<2>(packed, tiles, klen, rowsum, colsum); break;
    case 16: panel_sums_tiles<4>(packed, tiles, klen, rowsum, colsum); break;
    default:
      portable().panel_sums(packed, tiles, klen, mr, rowsum, colsum);
      break;
  }
}

// Biased column sums of op(A) via VPSADBW: 32 bytes per step, each SAD
// against zero yields four exact u16 partial sums in i64 lanes — no
// overflow at any depth.
void encode_ar_i8_avx2(const OperandView<std::int8_t>& a, index_t i0,
                       index_t ilen, index_t k0, index_t klen,
                       std::int32_t* ar) {
  if (a.trans) {
    portable().encode_ar(a, i0, ilen, k0, klen, ar);
    return;
  }
  const __m256i bias = _mm256_set1_epi8(char(0x80));
  const __m256i zero = _mm256_setzero_si256();
  const index_t i_full = ilen - ilen % 32;
  for (index_t kk = 0; kk < klen; ++kk) {
    const std::int8_t* col = a.data + i0 + (k0 + kk) * a.ld;
    __m256i acc = _mm256_setzero_si256();
    for (index_t i = 0; i < i_full; i += 32) {
      const __m256i v = _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + i)),
          bias);
      acc = _mm256_add_epi64(acc, _mm256_sad_epu8(v, zero));
    }
    std::int64_t sum = hsum_epi64(acc);
    for (index_t i = i_full; i < ilen; ++i) {
      sum += std::int64_t(bias_i8(col[i]));
    }
    ar[kk] += std::int32_t(sum);
  }
}

// Panel checksum Bc from the packed panel, NR = 16 tiles: one quad of a
// tile is 64 contiguous bytes (16 columns x 4 depths); biased u16 lane
// sums keep each depth's bytes in lane (index mod 4), folded and un-biased
// once per quad.  Partition edges that split a quad (and non-16 NR shapes)
// fall back to the portable per-depth loop.
void reduce_bc_i8_avx2(const std::int8_t* b_packed, index_t klen,
                       index_t nlen, index_t nr, index_t kk0, index_t kklen,
                       std::int32_t* bc) {
  if (nr != 16) {
    portable().reduce_bc(b_packed, klen, nlen, nr, kk0, kklen, bc);
    return;
  }
  const index_t kq = i8_kq(klen);
  const index_t tile_bytes = kq * kI8KQuad * nr;
  const index_t ntiles = (nlen + nr - 1) / nr;
  const auto scalar_one = [&](index_t kk) {
    const index_t q = kk / kI8KQuad;
    const index_t t = kk % kI8KQuad;
    std::int32_t sum = 0;
    for (index_t jt = 0; jt < nlen; jt += nr) {
      const std::int8_t* quad =
          b_packed + (jt / nr) * tile_bytes + q * (nr * kI8KQuad);
      for (index_t j = 0; j < nr; ++j) {
        sum += std::int32_t(quad[j * kI8KQuad + t]);
      }
    }
    bc[kk] = sum;
  };
  index_t kk = kk0;
  const index_t kk_end = kk0 + kklen;
  for (; kk < kk_end && kk % kI8KQuad != 0; ++kk) scalar_one(kk);
  const __m256i bias = _mm256_set1_epi8(char(0x80));
  const __m256i zero = _mm256_setzero_si256();
  for (; kk + kI8KQuad <= kk_end; kk += kI8KQuad) {
    const index_t q = kk / kI8KQuad;
    // u16 lane budget: each accumulator lane absorbs 2 bytes per tile
    // (one per 128-bit half), so flush to i32 every 64 tiles.
    std::int64_t sums[kI8KQuad] = {0, 0, 0, 0};
    for (index_t tg = 0; tg < ntiles; tg += 64) {
      const index_t tend = std::min(ntiles, tg + 64);
      __m256i acc_lo = _mm256_setzero_si256();
      __m256i acc_hi = _mm256_setzero_si256();
      for (index_t tile = tg; tile < tend; ++tile) {
        const std::int8_t* quad =
            b_packed + tile * tile_bytes + q * (nr * kI8KQuad);
        for (int half = 0; half < 2; ++half) {
          const __m256i v = _mm256_xor_si256(
              _mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(quad + half * 32)),
              bias);
          acc_lo = _mm256_add_epi16(acc_lo, _mm256_unpacklo_epi8(v, zero));
          acc_hi = _mm256_add_epi16(acc_hi, _mm256_unpackhi_epi8(v, zero));
        }
      }
      alignas(32) std::uint16_t lanes[32];
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc_lo);
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 16), acc_hi);
      for (int lane = 0; lane < 32; ++lane) {
        sums[lane % kI8KQuad] += lanes[lane];
      }
    }
    // Un-bias: padding bytes are zero (net zero after correction), so the
    // correction counts every packed position: nr per tile per depth.
    const std::int64_t corr = 128 * std::int64_t(ntiles) * nr;
    for (index_t t = 0; t < kI8KQuad; ++t) {
      bc[kk + t] = std::int32_t(sums[t] - corr);
    }
  }
  for (; kk < kk_end; ++kk) scalar_one(kk);
}

}  // namespace

PackSet<std::int8_t, std::int32_t> avx2_pack_i8() {
  PackSet<std::int8_t, std::int32_t> p;
  p.pack_a = &pack_a_avx2;
  p.pack_a_ft = &pack_a_ft_avx2;
  p.pack_b = &pack_b_avx2;
  p.pack_b_ft = &pack_b_ft_avx2;
  p.reduce_bc = &reduce_bc_i8_avx2;
  p.encode_ar = &encode_ar_i8_avx2;
  p.encode_cc = &encode_cc_i8_avx2;
  p.panel_sums = &panel_sums_i8_avx2;
  p.isa = Isa::kAvx2;
  return p;
}

}  // namespace ftgemm
