// int8 kernel layer: the first non-float compute path through the stack.
//
// Included from the bottom of kernels/microkernel.hpp (never directly), so
// the KernelSet/PackSet specializations below are visible wherever the
// primary templates are — an implicit instantiation of the primary template
// at <int8_t, int32_t> anywhere would be an ODR trap.
//
// The int8 path breaks the (StorageT, ComputeT) convention of the float
// layer in one fundamental way: packed panels stay 8-bit (that IS the
// bandwidth win), so the generic "panels are ComputeT" pack/kernel
// signatures cannot be reused.  KernelSet<int8_t, int32_t> and
// PackSet<int8_t, int32_t> are therefore full specializations with their
// own member signatures, and the executor (core/driver_i8.hpp) is a
// dedicated implementation of the same plan/execute architecture.
//
// Operand convention (see kernels/int8_types.hpp): A is packed *biased*
// (u8 = s8 + 128) because the AVX-512 VNNI dot instruction `vpdpbusd`
// multiplies unsigned-by-signed; B is packed as plain s8.  All ISAs share
// one packed layout — depth grouped in quads of 4 (the VNNI dot width):
//
//   A~ tile (MR rows):  [kq][MR][4] u8   (row i's quad at kq*MR*4 + i*4)
//   B~ tile (NR cols):  [kq][NR][4] s8   (col j's quad at kq*NR*4 + j*4)
//
// zero-padded in every direction (a zero B pad makes the corresponding A
// pad bytes irrelevant: every padded product is 0).  Shared layout means
// FTGEMM_FORCE_ISA switches kernels without changing a single packed byte.
// Sixteen contiguous bytes of a tile — 4 rows (A~) or columns (B~) x one
// depth quad — form a *group*, the unit every SIMD pack/encode pass of
// pack_int8_avx2.cpp sweeps; kernel_int8_scalar.cpp holds the portable
// reference of each pass, and the two are bit-identical member by member.
//
// The AVX2 kernel emulates the integer dot with zero/sign-extension to i16
// and `pmaddwd` — NOT `pmaddubsw`, whose i16 pair-sum saturates (2 * 255 *
// 128 > 32767) and would silently break the exactness contract.
//
// Checksums: reference row/column sums of the biased product are
// accumulated in int64 by the FT kernels; predicted sums come from int32
// operand checksums (Ar/Bc).  Integer sums are exact and order-independent,
// so — unlike the float kernels — the FT epilogue may reduce the finished
// register tile directly (no lane-partial mirroring needed; cr_lanes = 1).
#pragma once

#include "kernels/int8_types.hpp"

namespace ftgemm {

/// Depth-quad grouping shared by every int8 ISA (the VNNI dot width).
inline constexpr index_t kI8KQuad = 4;

/// Quads covering a depth of klen (the packed depth is kq * 4).
[[nodiscard]] inline index_t i8_kq(index_t klen) {
  return (klen + kI8KQuad - 1) / kI8KQuad;
}

/// Bytes of one packed tile of `tile` rows (A~) or columns (B~) over depth
/// klen, padding included.
[[nodiscard]] inline index_t i8_tile_bytes(index_t klen, index_t tile) {
  return i8_kq(klen) * kI8KQuad * tile;
}

/// The depth-quad layout as a PanelIndexFn (A and B alike): byte of live
/// element (r, kk) in a block of depth klen packed into w-wide tiles.
inline index_t i8_quad_index(index_t r, index_t kk, index_t klen, index_t w) {
  return (r / w) * i8_tile_bytes(klen, w) + (kk / kI8KQuad) * (w * kI8KQuad) +
         (r % w) * kI8KQuad + kk % kI8KQuad;
}

/// Register-tile bounds across the int8 kernel sets (macro-kernel edge
/// scratch; the int8 NR of 16 exceeds the float layer's kMaxNr, hence its
/// own constants).
inline constexpr index_t kI8MaxMr = 16;
inline constexpr index_t kI8MaxNr = 16;

/// Plain micro-kernel: C_tile(i32) += Au8_tile(MR x kc) * Bs8_tile(kc x NR),
/// biased-product domain, exact int32 accumulation (kc <= kI8MaxDepth).
using I8MicroKernel = void (*)(index_t kc, const std::uint8_t* a,
                               const std::int8_t* b, std::int32_t* c,
                               index_t ldc);

/// FT micro-kernel: base update plus exact int64 reference checksums of the
/// *updated* C values — cr_ref[j] += sum_i c(i,j), cc_ref[i] += sum_j
/// c(i,j) over the tile, post-update.  Every element of C is updated once
/// per rank-KC panel, so per-panel references total to exact row/column
/// sums of the current accumulator (the float kernels' convention).
using I8MicroKernelFt = void (*)(index_t kc, const std::uint8_t* a,
                                 const std::int8_t* b, std::int32_t* c,
                                 index_t ldc, std::int64_t* cr_ref,
                                 std::int64_t* cc_ref);

/// Pack/encode family of the int8 path (full specialization — see the file
/// header for why the generic members don't fit).  scalar_pack_i8() holds
/// the portable reference of every member (kernel_int8_scalar.cpp);
/// avx2_pack_i8() replaces each with a vector sweep over the same packed
/// layout (pack_int8_avx2.cpp) — identical bytes and bit-identical sums, so
/// every member is correct for every kernel ISA.  The VNNI kernel set swaps
/// in a 16-row-tile panel_sums of its own (kernel_int8_avx512.cpp).
template <>
struct PackSet<std::int8_t, std::int32_t> {
  /// Pack op(A) rows [m0, m0+mlen) x depth [k0, k0+klen) into MR-tall
  /// biased-u8 quad tiles (zero-padded).  When `arow` is non-null,
  /// additionally accumulates the biased row sums arow[m0+i] += sum_kk
  /// u8(i, kk) — the epilogue's zero-point correction vector.  Callers must
  /// pass arow for exactly one pass over each (row, depth) region.
  void (*pack_a)(const OperandView<std::int8_t>& a, index_t m0, index_t k0,
                 index_t mlen, index_t klen, index_t mr, std::uint8_t* dst,
                 std::int32_t* arow) = nullptr;
  /// pack_a fused with the predicted-Cc update cc[m0+i] += sum_kk
  /// u8(i, kk) * bc[kk] (int64; bc is panel-local, bc[0] = depth k0).
  void (*pack_a_ft)(const OperandView<std::int8_t>& a, index_t m0,
                    index_t k0, index_t mlen, index_t klen, index_t mr,
                    std::uint8_t* dst, std::int32_t* arow,
                    const std::int32_t* bc, std::int64_t* cc) = nullptr;
  /// Pack op(B) depth [k0, k0+klen) x cols [j0, j0+nlen) into NR-wide s8
  /// quad tiles (zero-padded).  When `bcol` is non-null, accumulates the
  /// per-column depth sums bcol[j0+j] += sum_kk s8(kk, j) — the epilogue's
  /// other zero-point correction vector (each column is packed exactly once
  /// per panel, so accumulating across panels yields full-K sums).
  void (*pack_b)(const OperandView<std::int8_t>& b, index_t k0, index_t j0,
                 index_t klen, index_t nlen, index_t nr, std::int8_t* dst,
                 std::int32_t* bcol) = nullptr;
  /// pack_b fused with the predicted-Cr update cr[j0+j] += sum_kk
  /// ar[kk] * s8(kk, j) (int64; ar is panel-local, ar[0] = depth k0).
  void (*pack_b_ft)(const OperandView<std::int8_t>& b, index_t k0,
                    index_t j0, index_t klen, index_t nlen, index_t nr,
                    std::int8_t* dst, std::int32_t* bcol,
                    const std::int32_t* ar, std::int64_t* cr) = nullptr;
  /// Derive the panel checksum Bc from a packed panel: bc[kk] = sum over
  /// all nlen columns of s8(kk, j), for depth rows [kk0, kk0+kklen)
  /// (assigning, not accumulating — mirrors the float reduce_bc contract).
  void (*reduce_bc)(const std::int8_t* b_packed, index_t klen, index_t nlen,
                    index_t nr, index_t kk0, index_t kklen,
                    std::int32_t* bc) = nullptr;
  /// Biased column sums of op(A): ar[kk] += sum_i u8(i, kk) over rows
  /// [i0, i0+ilen), depths [k0, k0+klen) — the predicted-Cr operand
  /// checksum (ar[0] = depth k0; caller zeroes its slice first).
  void (*encode_ar)(const OperandView<std::int8_t>& a, index_t i0,
                    index_t ilen, index_t k0, index_t klen,
                    std::int32_t* ar) = nullptr;
  /// Replay pack_a_ft's fused Cc update from an already-packed (resident)
  /// panel: cc[i] += sum_kk u8(i, kk) * bc[kk].  Padding bytes are zero, so
  /// replaying over the padded tile is exact.
  void (*encode_cc)(const std::uint8_t* packed, index_t mlen, index_t klen,
                    index_t mr, const std::int32_t* bc,
                    std::int64_t* cc) = nullptr;
  /// Integrity sums of one packed A~ panel of `tiles` MR-tall tiles over
  /// depth klen (the resident encode and verify-on-hit): rowsum[i] += every
  /// byte of packed row i, quad padding included; colsum[kk] += depth kk's
  /// byte of every packed row, padding rows included, for kk < klen.
  void (*panel_sums)(const std::uint8_t* packed, index_t tiles, index_t klen,
                     index_t mr, std::int32_t* rowsum,
                     std::int32_t* colsum) = nullptr;
  Isa isa = Isa::kScalar;
  /// Layout maps of the packed panels (see PanelIndexFn); the quad layout
  /// is shared by every int8 set.
  PanelIndexFn a_index = &i8_quad_index;
  PanelIndexFn b_index = &i8_quad_index;
};

/// Kernel set of the int8 path (full specialization; biased u8 x s8 -> i32
/// micro-kernels, int64 FT references, cr_lanes fixed at 1).
template <>
struct KernelSet<std::int8_t, std::int32_t> {
  I8MicroKernel base = nullptr;
  I8MicroKernelFt ft = nullptr;
  index_t mr = 0;
  index_t nr = 0;
  index_t cr_lanes = 1;  ///< always 1: integer sums need no lane mirroring
  Isa isa = Isa::kScalar;
  PackSet<std::int8_t, std::int32_t> pack;
};

// Per-ISA accessors (kernel_int8_scalar.cpp / kernel_int8_avx2.cpp /
// kernel_int8_avx512.cpp).  avx512_kernels_i8() requires the AVX-512 VNNI
// feature at *runtime* (cpu_features().avx512vnni) — get_kernel_set clamps
// to the AVX2 emulation on AVX-512 machines without it, so Isa::kAvx512
// plans stay valid everywhere.
KernelSet<std::int8_t, std::int32_t> scalar_kernels_i8();
KernelSet<std::int8_t, std::int32_t> avx2_kernels_i8();
KernelSet<std::int8_t, std::int32_t> avx512_kernels_i8();
PackSet<std::int8_t, std::int32_t> scalar_pack_i8();
/// Every scalar_pack_i8 member as an AVX2 sweep (see pack_int8_avx2.cpp):
/// identical packed bytes and bit-identical sums.  Only reachable through
/// the AVX2/AVX-512 kernel sets, so the AVX2 encodings are gated by the
/// same runtime dispatch.
PackSet<std::int8_t, std::int32_t> avx2_pack_i8();

template <>
KernelSet<std::int8_t, std::int32_t> get_kernel_set<std::int8_t,
                                                    std::int32_t>(Isa isa);
template <>
PackSet<std::int8_t, std::int32_t> get_pack_set<std::int8_t, std::int32_t>(
    Isa isa);

/// Macro kernel of the int8 path: sweep the packed tiles of one
/// (mlen x nlen x kc) block, full tiles through the (FT) micro-kernel, edge
/// tiles through a zeroed scratch tile with an exact scalar merge (padding
/// products are zero, so the scratch rows/cols beyond the edge contribute
/// nothing).  `c` is the int32 biased-product accumulator (ldc = its
/// leading dimension); cr_ref/cc_ref are the block's int64 reference
/// checksum slices (FT only, stride 1).
template <bool FT>
inline void run_macro_block_i8(const KernelSet<std::int8_t, std::int32_t>& ks,
                               index_t mlen, index_t nlen, index_t kc,
                               const std::uint8_t* a_packed,
                               const std::int8_t* b_packed, std::int32_t* c,
                               index_t ldc, std::int64_t* cr_ref,
                               std::int64_t* cc_ref) {
  const index_t a_tile = i8_tile_bytes(kc, ks.mr);
  const index_t b_tile = i8_tile_bytes(kc, ks.nr);
  for (index_t jt = 0; jt < nlen; jt += ks.nr) {
    const index_t njj = nlen - jt < ks.nr ? nlen - jt : ks.nr;
    const std::int8_t* bt = b_packed + (jt / ks.nr) * b_tile;
    for (index_t it = 0; it < mlen; it += ks.mr) {
      const index_t mii = mlen - it < ks.mr ? mlen - it : ks.mr;
      const std::uint8_t* at = a_packed + (it / ks.mr) * a_tile;
      std::int32_t* ct = c + it + jt * ldc;
      if (mii == ks.mr && njj == ks.nr) {
        if constexpr (FT) {
          ks.ft(kc, at, bt, ct, ldc, cr_ref + jt, cc_ref + it);
        } else {
          ks.base(kc, at, bt, ct, ldc);
        }
      } else {
        alignas(64) std::int32_t tile[kI8MaxMr * kI8MaxNr];
        for (index_t x = 0; x < ks.mr * ks.nr; ++x) tile[x] = 0;
        ks.base(kc, at, bt, tile, ks.mr);
        for (index_t jj = 0; jj < njj; ++jj) {
          std::int64_t colsum = 0;
          for (index_t ii = 0; ii < mii; ++ii) {
            ct[ii + jj * ldc] += tile[ii + jj * ks.mr];
            if constexpr (FT) {
              const std::int32_t v = ct[ii + jj * ldc];  // updated value
              cc_ref[it + ii] += v;
              colsum += v;
            }
          }
          if constexpr (FT) cr_ref[jt + jj] += colsum;
        }
      }
    }
  }
}

}  // namespace ftgemm
