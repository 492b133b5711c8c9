// Micro-kernel interface and dispatch.
//
// A micro-kernel performs the register-resident rank-KC update of one
// MR x NR tile of C:
//
//     C_tile += Apanel(MR x kc) * Bpanel(kc x NR)
//
// where Apanel/Bpanel are packed contiguously (see packing.hpp).  Two
// variants exist per (ISA, element type):
//
//  - base:  the plain update (used by the "Ori" GEMM and for edge tiles),
//  - ft:    the fused-ABFT update (§2.2): after the k-loop the *final* C
//           values are still in registers, so the kernel additionally
//           accumulates the reference checksums
//              cr_ref[j] += sum_i C_tile(i, j)   (column sums)
//              cc_ref[i] += sum_j C_tile(i, j)   (row sums)
//           at register level, exactly the "reuse the computed C elements at
//           register level" optimization the paper fuses into the assembly.
//
// To keep the FT epilogue free of horizontal-reduction latency chains, the
// SIMD kernels accumulate the column sums as *vector-wide lane partials*:
// cr_ref is laid out with `cr_lanes` slots per column, the kernel performs a
// single vector add per column, and the lanes are summed once per panel at
// verification time (O(N) instead of O(N * K/KC * M/MR) horizontal sums).
#pragma once

#include <cstdint>

#include "arch/isa.hpp"
#include "kernels/half_types.hpp"

namespace ftgemm {

using index_t = std::int64_t;

/// Upper bounds over all kernel sets (register-tile shapes), shared by the
/// macro-kernel scratch tile and the packing engine's lane-accumulator
/// blocks.
inline constexpr index_t kMaxMr = 32;
inline constexpr index_t kMaxNr = 8;

/// Read-only view of a matrix operand with an optional transpose, so the
/// packing/encode code is the single place where Trans is resolved.  The
/// stride accessors resolve the transpose *once*; inner loops index
/// `data[i * row_stride() + j * col_stride()]` and stay branch-free.
template <typename T>
struct OperandView {
  const T* data;
  index_t ld;
  bool trans;

  /// Element (i, j) of the *effective* (post-transpose) operand.
  [[nodiscard]] T at(index_t i, index_t j) const {
    return trans ? data[j + i * ld] : data[i + j * ld];
  }
  /// Storage distance between effective rows i and i+1 (fixed j).
  [[nodiscard]] index_t row_stride() const { return trans ? ld : 1; }
  /// Storage distance between effective columns j and j+1 (fixed i).
  [[nodiscard]] index_t col_stride() const { return trans ? 1 : ld; }
  /// Address of effective element (i, j).
  [[nodiscard]] const T* ptr(index_t i, index_t j) const {
    return data + i * row_stride() + j * col_stride();
  }
};

template <typename T>
using MicroKernelBase = void (*)(index_t kc, const T* a, const T* b, T* c,
                                 index_t ldc);

template <typename T>
using MicroKernelFt = void (*)(index_t kc, const T* a, const T* b, T* c,
                               index_t ldc, T* cr_ref, T* cc_ref);

/// A whole macro block in one call (run_macro_block's contract, plus the
/// GEMM's alpha): for tile kernels that keep alpha out of the packed panels,
/// load their tile configuration once per block and handle ragged edges
/// themselves.  cr_ref/cc_ref are null when the FT epilogue is off.
template <typename T>
using MacroKernelFn = void (*)(index_t mlen, index_t nlen, index_t kc,
                               const T* a, const T* b, T* c, index_t ldc,
                               T* cr_ref, T* cc_ref, T alpha);

/// Packed-panel geometry: the index, in packed elements, of live element
/// (r, kk) — row/column r of the block, depth kk — in a block of depth
/// `klen` packed into w-wide panels.  One function per layout, defined
/// beside the packers that write it; everything outside the packers that
/// addresses packed panels (panel offsets, transient-panel strikes, resident
/// payload sizing) goes through it.  index(r0, 0, klen, w) for r0 a
/// multiple of w is the start of the panel holding r0, so
/// index(rows_padded, 0, klen, w) is the element count of a whole block.
using PanelIndexFn = index_t (*)(index_t r, index_t kk, index_t klen,
                                 index_t w);

// ---------------------------------------------------------------------------
// Packing & checksum-encode engine (the O(n^2)-per-panel layer).
//
// Each function pointer mirrors one of the scalar templates in
// kernels/packing.hpp / abft/checksum.hpp (which remain the portable
// fallback and the test oracle).  SIMD implementations reorder the checksum
// summations into vector lanes; packed panels are bit-identical to the
// scalar path, checksum sums agree within the ToleranceModel bound (see
// docs/DESIGN.md, "SIMD packing & checksum engine").
//
// The engine is generalized over (StorageT, ComputeT): operands are *read*
// in StorageT, while packed panels, scalars, and every checksum are carried
// in ComputeT.  For the classic paths the two coincide (the one-parameter
// spellings below mean <T, T> and preserve every existing call site); the
// mixed paths (bf16/fp16 storage, fp32 compute) widen each element exactly
// once, inside the pack load, fused with the same checksum FMA lanes — no
// separate conversion pass ever materializes a widened copy of the operand
// (DESIGN.md §10).
// ---------------------------------------------------------------------------

template <typename StorageT, typename ComputeT = StorageT>
using PackAFn = void (*)(const OperandView<StorageT>& a, index_t m0,
                         index_t k0, index_t mlen, index_t klen, index_t mr,
                         ComputeT alpha, ComputeT* dst);

template <typename StorageT, typename ComputeT = StorageT>
using PackAFtFn = void (*)(const OperandView<StorageT>& a, index_t m0,
                           index_t k0, index_t mlen, index_t klen, index_t mr,
                           ComputeT alpha, ComputeT* dst, const ComputeT* bc,
                           ComputeT* cc);

template <typename StorageT, typename ComputeT = StorageT>
using PackBFn = void (*)(const OperandView<StorageT>& b, index_t k0,
                         index_t j0, index_t klen, index_t nlen, index_t nr,
                         ComputeT* dst);

template <typename StorageT, typename ComputeT = StorageT>
using PackBFtFn = void (*)(const OperandView<StorageT>& b, index_t k0,
                           index_t j0, index_t klen, index_t nlen, index_t nr,
                           ComputeT* dst, const ComputeT* ar, ComputeT* cr);

template <typename T>
using ReduceBcFn = double (*)(const T* b_packed, index_t klen, index_t nlen,
                              index_t nr, index_t kk0, index_t kklen, T* bc,
                              double amax_in);

template <typename T>
using ScaleEncodeCFn = double (*)(T* c, index_t ldc, index_t i0, index_t ilen,
                                  index_t n, T beta, T* cc, T* cr_part);

template <typename StorageT, typename ComputeT = StorageT>
using EncodeArFn = double (*)(const OperandView<StorageT>& a, index_t i0,
                              index_t ilen, index_t k, ComputeT alpha,
                              ComputeT* ar_part);

/// Replay of pack_a_ft's fused Cc update from an already-packed panel:
///   cc[ii] += sum_kk packed(ii, kk) * bc[kk]
/// with the SAME accumulation structure (per-ISA, per-trans) pack_a_ft would
/// have used while packing — so a cache-hit on a resident pre-packed A panel
/// reproduces the cold path's Cc bit-for-bit.  `trans` is the original
/// operand's transpose flag (the packed bytes are layout-free, but the
/// Trans/NoTrans packers carry different accumulator shapes).  Operates on
/// the panel the kernels consume: widened for the mixed widening sets,
/// which bake alpha into it and ignore `alpha`; raw storage bits for
/// narrow-panel sets (PackSet::narrow_panels), which scale by `alpha`
/// exactly as their pack_a_ft does.
template <typename T>
using EncodeCcFn = void (*)(const T* packed, bool trans, index_t mlen,
                            index_t klen, index_t mr, const T* bc, T* cc,
                            T alpha);

/// Alpha-free permutation pack of an A block into MR-tile panel layout,
/// kept in StorageT (no widening, no scaling).  The resident-operand cache
/// stores narrow weights this way — half the byte footprint of a widened
/// panel — and widens on hit via WidenAFn.
template <typename StorageT>
using PackARawFn = void (*)(const OperandView<StorageT>& a, index_t m0,
                            index_t k0, index_t mlen, index_t klen, index_t mr,
                            StorageT* dst);

/// Widen + alpha-scale a raw StorageT panel (from PackARawFn) into the
/// ComputeT panel the kernels consume.  Element values are bit-identical to
/// what PackAFn would have produced from the unpacked operand (same widen,
/// same single multiply); padding rows are written as ComputeT(0) exactly
/// like the cold pack.
template <typename StorageT, typename ComputeT>
using WidenAFn = void (*)(const StorageT* raw, index_t mlen, index_t klen,
                          index_t mr, ComputeT alpha, ComputeT* dst);

/// Integrity sums of one resident A~ panel of `tiles` MR-tall tiles over
/// depth klen (the resident encode and every verify-on-hit):
/// rowsum[r] += every packed element of row r, colsum[kk] += depth kk of
/// every row (kk < klen), padding included.  Any fixed order will do — fill
/// and verify share the plan's set and compare bit-exactly.
template <typename StorageT, typename ComputeT>
using PanelSumsFn = void (*)(const StorageT* packed, index_t tiles,
                             index_t klen, index_t mr, ComputeT* rowsum,
                             ComputeT* colsum);

/// The ISA-dispatched pack/reduce/encode family.  Obtained via
/// get_pack_set(); a KernelSet returned by get_kernel_set() carries the
/// matching PackSet, so executors reach both through one dispatch point.
template <typename StorageT, typename ComputeT = StorageT>
struct PackSet {
  PackAFn<StorageT, ComputeT> pack_a = nullptr;
  PackAFtFn<StorageT, ComputeT> pack_a_ft = nullptr;
  PackBFn<StorageT, ComputeT> pack_b = nullptr;
  PackBFtFn<StorageT, ComputeT> pack_b_ft = nullptr;
  ReduceBcFn<ComputeT> reduce_bc = nullptr;
  ScaleEncodeCFn<ComputeT> scale_encode_c = nullptr;
  EncodeArFn<StorageT, ComputeT> encode_ar = nullptr;
  EncodeCcFn<ComputeT> encode_cc = nullptr;
  /// Raw-storage panel pack + widen-on-hit pair for the resident-operand
  /// cache (see operand_cache.hpp).
  PackARawFn<StorageT> pack_a_raw = nullptr;
  WidenAFn<StorageT, ComputeT> widen_a = nullptr;
  /// Integrity sums over this set's resident panel layout (every set
  /// carries one: the scalar sets the portable loop, the SIMD sets a
  /// vector sweep at L2 speed).
  PanelSumsFn<StorageT, ComputeT> panel_sums = nullptr;
  Isa isa = Isa::kScalar;
  /// Layout maps of the packed A and B panels (see PanelIndexFn).
  PanelIndexFn a_index = nullptr;
  PanelIndexFn b_index = nullptr;
  /// Width of one packed element: sizeof(ComputeT) for the widening sets,
  /// sizeof(StorageT) for narrow-panel sets (which store their panels in the
  /// same ComputeT-typed buffers, at most as many bytes).
  int panel_elem_bytes = int(sizeof(ComputeT));
  /// Narrow-panel sets (the AMX-BF16 tier) pack StorageT bits without
  /// alpha: the macro kernel applies alpha in its epilogue, pack_a_raw
  /// writes the very panel pack_a does, and a resident payload is consumed
  /// zero-copy (widen_a is null).
  bool narrow_panels = false;

  /// ComputeT-slot offset of the panel holding B column r0, a multiple of
  /// the panel width w, in a block of depth klen.
  [[nodiscard]] index_t b_offset(index_t r0, index_t klen, index_t w) const {
    return b_index(r0, 0, klen, w) * panel_elem_bytes /
           index_t(sizeof(ComputeT));
  }
};

/// The kernels plus their register tile shape.  On the widening tiers the
/// micro-kernels run in ComputeT and only the pack engine sees StorageT; the
/// AMX-BF16 tier multiplies bf16 panels in tile registers (exact products,
/// fp32 accumulation) through macro_base/macro_ft.
template <typename StorageT, typename ComputeT = StorageT>
struct KernelSet {
  MicroKernelBase<ComputeT> base = nullptr;
  MicroKernelFt<ComputeT> ft = nullptr;
  index_t mr = 0;
  index_t nr = 0;
  /// Lane partials per cr_ref column (SIMD width of the FT epilogue).
  index_t cr_lanes = 1;
  Isa isa = Isa::kScalar;
  /// Pack/reduce/encode routines matching `isa` (see get_pack_set).
  PackSet<StorageT, ComputeT> pack;
  /// Whole-block kernels; when set, run_macro_block hands them the block
  /// (and base/ft are null).
  MacroKernelFn<ComputeT> macro_base = nullptr;
  MacroKernelFn<ComputeT> macro_ft = nullptr;
  /// Depth granule of full rank-KC panels: the planner rounds kc to a
  /// multiple of it whenever k spans more than one panel, so only the last
  /// panel of a call can carry depth padding.
  index_t kc_quantum = 1;
};

/// Dispatch: returns the kernel set for the requested ISA (which callers
/// obtain from select_isa(), already clamped to hardware capability).  The
/// returned set's `pack` member is filled with get_pack_set(isa).  Mixed
/// instantiations reuse the ComputeT micro-kernels (same register tiles,
/// same mr/nr/cr_lanes) and swap in the widening pack engine — except that
/// <bf16_t, float> at Isa::kAvx512 returns the AMX-BF16 tier when
/// cpu_features().amx_bf16 holds (see amx_kernels_bf16).
template <typename StorageT, typename ComputeT = StorageT>
KernelSet<StorageT, ComputeT> get_kernel_set(Isa isa);

/// The packing & checksum engine of get_kernel_set(isa) — by definition
/// its `pack` member, so a pack probe or test always times and checks the
/// packer the executor runs.
template <typename StorageT, typename ComputeT = StorageT>
PackSet<StorageT, ComputeT> get_pack_set(Isa isa);

// Per-ISA pack/encode accessors implemented in the ISA-specific translation
// units (pack_scalar.cpp / pack_avx2.cpp / pack_avx512.cpp).
PackSet<double> scalar_pack_f64();
PackSet<float> scalar_pack_f32();
PackSet<double> avx2_pack_f64();
PackSet<float> avx2_pack_f32();
PackSet<double> avx512_pack_f64();
PackSet<float> avx512_pack_f32();

// Mixed-precision (narrow storage, fp32 compute) pack engines.  The scalar
// sets live in the flag-free TU and are the portable fallback; the SIMD
// sets widen inside the pack load (bf16: integer shift; fp16: VCVTPH2PS)
// and share the fp32 accumulator structure, so their encode_cc/reduce_bc/
// scale_encode_c members ARE the fp32 implementations.
PackSet<bf16_t, float> scalar_pack_bf16();
PackSet<fp16_t, float> scalar_pack_f16();
PackSet<bf16_t, float> avx2_pack_bf16();
PackSet<fp16_t, float> avx2_pack_f16();
PackSet<bf16_t, float> avx512_pack_bf16();
PackSet<fp16_t, float> avx512_pack_f16();

/// The AMX-BF16 tier (kernel_amx.cpp): TDPBF16PS macro kernels over bf16
/// tile-layout panels, with alpha and the FT checksums fused in the tile
/// epilogue.  Only callable when cpu_features().amx_bf16 holds; otherwise
/// it returns the widening AVX-512 set.
KernelSet<bf16_t, float> amx_kernels_bf16();
/// The widening AVX-512 bf16 set (fp32 FMA kernels over widened panels) —
/// what get_kernel_set returns at Isa::kAvx512 on hosts without AMX.
/// Internal accessor for differential tests and benches.
KernelSet<bf16_t, float> avx512_widening_kernels_bf16();

// Per-ISA accessors implemented in the ISA-specific translation units.
KernelSet<double> avx512_kernels_f64();
/// Alternative AVX-512 f64 register-tile heights (8/16/24 rows) for the
/// kernel-shape ablation; FTGEMM_KERNEL_MR selects one globally.
KernelSet<double> avx512_kernels_f64_mr(index_t mr);
KernelSet<float> avx512_kernels_f32();
KernelSet<double> avx2_kernels_f64();
KernelSet<float> avx2_kernels_f32();
KernelSet<double> scalar_kernels_f64();
KernelSet<float> scalar_kernels_f32();

}  // namespace ftgemm

// The int8 quantized path fully specializes KernelSet/PackSet (8-bit packed
// panels break the "panels are ComputeT" signatures above).  Included here —
// and only here — so the specializations are visible wherever the primary
// templates are, keeping any <int8_t, int32_t> use ODR-consistent.
#include "kernels/kernel_int8.hpp"  // IWYU pragma: keep
