// Portable scalar micro-kernels (4x4 register tile).
//
// These are the correctness anchor: every SIMD kernel is tested against
// them, and they are the fallback on machines without AVX2.  The tile is
// kept in a local array that the compiler fully registerizes at -O3.
#include <type_traits>

#include "kernels/microkernel.hpp"
#include "util/env.hpp"

namespace ftgemm {

namespace {

constexpr index_t kMr = 4;
constexpr index_t kNr = 4;

template <typename T>
void kernel_base(index_t kc, const T* a, const T* b, T* c, index_t ldc) {
  T acc[kMr * kNr] = {};
  for (index_t p = 0; p < kc; ++p) {
    const T* ap = a + p * kMr;
    const T* bp = b + p * kNr;
    for (index_t j = 0; j < kNr; ++j) {
      const T bv = bp[j];
      for (index_t i = 0; i < kMr; ++i) acc[i + j * kMr] += ap[i] * bv;
    }
  }
  for (index_t j = 0; j < kNr; ++j)
    for (index_t i = 0; i < kMr; ++i) c[i + j * ldc] += acc[i + j * kMr];
}

template <typename T>
void kernel_ft(index_t kc, const T* a, const T* b, T* c, index_t ldc,
               T* cr_ref, T* cc_ref) {
  T acc[kMr * kNr] = {};
  for (index_t p = 0; p < kc; ++p) {
    const T* ap = a + p * kMr;
    const T* bp = b + p * kNr;
    for (index_t j = 0; j < kNr; ++j) {
      const T bv = bp[j];
      for (index_t i = 0; i < kMr; ++i) acc[i + j * kMr] += ap[i] * bv;
    }
  }
  T rowsum[kMr] = {};
  for (index_t j = 0; j < kNr; ++j) {
    T colsum = T(0);
    for (index_t i = 0; i < kMr; ++i) {
      const T final_value = c[i + j * ldc] + acc[i + j * kMr];
      c[i + j * ldc] = final_value;
      colsum += final_value;
      rowsum[i] += final_value;
    }
    cr_ref[j] += colsum;  // cr_lanes == 1: direct scalar accumulation
  }
  for (index_t i = 0; i < kMr; ++i) cc_ref[i] += rowsum[i];
}

}  // namespace

KernelSet<double> scalar_kernels_f64() {
  return {&kernel_base<double>, &kernel_ft<double>, kMr, kNr, 1, Isa::kScalar, {}};
}

KernelSet<float> scalar_kernels_f32() {
  return {&kernel_base<float>, &kernel_ft<float>, kMr, kNr, 1, Isa::kScalar, {}};
}

namespace {

/// The per-ISA pack engine for (S, C).  Only get_kernel_set reaches it:
/// get_pack_set is defined as get_kernel_set(isa).pack, so a tier that
/// brings its own packers (AMX-BF16) can never diverge from what the pack
/// probe and the tests see.
template <typename S, typename C>
PackSet<S, C> pack_for(Isa isa) {
  if constexpr (std::is_same_v<S, bf16_t>) {
    switch (isa) {
      case Isa::kAvx512: return avx512_pack_bf16();
      case Isa::kAvx2: return avx2_pack_bf16();
      case Isa::kScalar: return scalar_pack_bf16();
    }
    return scalar_pack_bf16();
  } else if constexpr (std::is_same_v<S, fp16_t>) {
    switch (isa) {
      case Isa::kAvx512: return avx512_pack_f16();
      case Isa::kAvx2: return avx2_pack_f16();
      case Isa::kScalar: return scalar_pack_f16();
    }
    return scalar_pack_f16();
  } else if constexpr (sizeof(S) == 8) {
    switch (isa) {
      case Isa::kAvx512: return avx512_pack_f64();
      case Isa::kAvx2: return avx2_pack_f64();
      case Isa::kScalar: return scalar_pack_f64();
    }
    return scalar_pack_f64();
  } else {
    switch (isa) {
      case Isa::kAvx512: return avx512_pack_f32();
      case Isa::kAvx2: return avx2_pack_f32();
      case Isa::kScalar: return scalar_pack_f32();
    }
    return scalar_pack_f32();
  }
}

/// Widening mixed set: the ComputeT micro-kernels (same register tiles,
/// mr/nr and FT epilogue lanes) with the widening pack engine swapped in.
template <typename S, typename C>
KernelSet<S, C> widening_kernel_set(Isa isa) {
  const KernelSet<C> base = get_kernel_set<C>(isa);
  KernelSet<S, C> ks;
  ks.base = base.base;
  ks.ft = base.ft;
  ks.mr = base.mr;
  ks.nr = base.nr;
  ks.cr_lanes = base.cr_lanes;
  ks.isa = base.isa;
  ks.pack = pack_for<S, C>(ks.isa);
  return ks;
}

}  // namespace

KernelSet<bf16_t, float> avx512_widening_kernels_bf16() {
  return widening_kernel_set<bf16_t, float>(Isa::kAvx512);
}

template <typename S, typename C>
KernelSet<S, C> get_kernel_set(Isa isa) {
  if constexpr (std::is_same_v<S, bf16_t>) {
    // The AMX tier rides on the AVX-512 level (no Isa value of its own);
    // amx_kernels_bf16 falls back to the widening set on hosts without it.
    if (isa == Isa::kAvx512) return amx_kernels_bf16();
  }
  if constexpr (!std::is_same_v<S, C>) {
    return widening_kernel_set<S, C>(isa);
  } else {
    KernelSet<S, C> ks;
    if constexpr (sizeof(C) == 8) {
      switch (isa) {
        case Isa::kAvx512:
          // Kernel-shape override for the ablation bench; register_tile()
          // applies the same sanitized value so packing stays consistent.
          ks = avx512_kernels_f64_mr(env_long("FTGEMM_KERNEL_MR", 16));
          break;
        case Isa::kAvx2: ks = avx2_kernels_f64(); break;
        case Isa::kScalar: ks = scalar_kernels_f64(); break;
      }
    } else {
      switch (isa) {
        case Isa::kAvx512: ks = avx512_kernels_f32(); break;
        case Isa::kAvx2: ks = avx2_kernels_f32(); break;
        case Isa::kScalar: ks = scalar_kernels_f32(); break;
      }
    }
    // The packing & checksum engine rides along with the micro-kernels so
    // executors reach the whole ISA surface through one dispatch point.
    ks.pack = pack_for<S, C>(ks.isa);
    return ks;
  }
}

template <typename S, typename C>
PackSet<S, C> get_pack_set(Isa isa) {
  return get_kernel_set<S, C>(isa).pack;
}

template KernelSet<double> get_kernel_set<double, double>(Isa);
template KernelSet<float> get_kernel_set<float, float>(Isa);
template KernelSet<bf16_t, float> get_kernel_set<bf16_t, float>(Isa);
template KernelSet<fp16_t, float> get_kernel_set<fp16_t, float>(Isa);
template PackSet<double> get_pack_set<double, double>(Isa);
template PackSet<float> get_pack_set<float, float>(Isa);
template PackSet<bf16_t, float> get_pack_set<bf16_t, float>(Isa);
template PackSet<fp16_t, float> get_pack_set<fp16_t, float>(Isa);

}  // namespace ftgemm
