// Runtime CPU feature detection for kernel dispatch.
//
// The library ships AVX-512, AVX2/FMA and scalar micro-kernels in separate
// translation units; this module decides which set is safe to execute on the
// current machine (FT-GEMM targets Cascade Lake, i.e. AVX512F/DQ/BW/VL, but
// degrades gracefully).
#pragma once

#include <string>

namespace ftgemm {

struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;
  bool avx512dq = false;
  bool avx512bw = false;
  bool avx512vl = false;
  /// AVX-512 VNNI (`vpdpbusd`, the int8 dot product) — a separate CPUID bit
  /// from the F/DQ/BW/VL baseline (Cascade Lake yes, Skylake-SP no); the
  /// int8 kernel dispatch falls back to the AVX2 emulation without it.
  bool avx512vnni = false;
  /// The AMX-BF16 tier may run: CPUID reports AMX-TILE and AMX-BF16, XCR0
  /// enables the tile state (XTILECFG + XTILEDATA), and the kernel granted
  /// this process the XTILEDATA permission (Linux arch_prctl
  /// ARCH_REQ_XCOMP_PERM), requested once at detection.  Sapphire Rapids
  /// and later; false on the paper's Cascade Lake.
  bool amx_bf16 = false;

  [[nodiscard]] bool has_avx2_kernel_support() const { return avx2 && fma; }
  [[nodiscard]] bool has_avx512_kernel_support() const {
    return avx512f && avx512dq && avx512vl;
  }
};

/// Detect once (thread-safe, cached).
const CpuFeatures& cpu_features();

/// Human-readable summary, e.g. "avx2 fma avx512f avx512dq avx512bw avx512vl".
std::string cpu_feature_string();

}  // namespace ftgemm
