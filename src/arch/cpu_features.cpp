#include "arch/cpu_features.hpp"

#include <cpuid.h>
#include <cstdint>
#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace ftgemm {

namespace {

/// All three AMX gates (see CpuFeatures::amx_bf16).  The permission request
/// is process-wide and idempotent; it must precede the first tile
/// instruction on any thread, which detection-at-first-dispatch guarantees.
bool detect_amx_bf16() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  if ((ecx & (1u << 27)) == 0) return false;  // OSXSAVE: XGETBV usable
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  const bool amx_bf16 = (edx & (1u << 22)) != 0;
  const bool amx_tile = (edx & (1u << 24)) != 0;
  if (!amx_bf16 || !amx_tile) return false;
  std::uint32_t xcr0_lo = 0, xcr0_hi = 0;
  __asm__ volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  constexpr std::uint32_t kTileState = (1u << 17) | (1u << 18);
  if ((xcr0_lo & kTileState) != kTileState) return false;
#if defined(__linux__) && defined(SYS_arch_prctl)
  constexpr long kArchReqXcompPerm = 0x1023;
  constexpr long kXfeatureXtiledata = 18;
  return syscall(SYS_arch_prctl, kArchReqXcompPerm, kXfeatureXtiledata) == 0;
#else
  return false;
#endif
}

CpuFeatures detect() {
  CpuFeatures f;
  __builtin_cpu_init();
  f.avx2 = __builtin_cpu_supports("avx2");
  f.fma = __builtin_cpu_supports("fma");
  f.avx512f = __builtin_cpu_supports("avx512f");
  f.avx512dq = __builtin_cpu_supports("avx512dq");
  f.avx512bw = __builtin_cpu_supports("avx512bw");
  f.avx512vl = __builtin_cpu_supports("avx512vl");
  f.avx512vnni = __builtin_cpu_supports("avx512vnni");
  // The tier's packers and epilogue are AVX-512BW code.
  f.amx_bf16 = f.avx512f && f.avx512bw && f.avx512vl && detect_amx_bf16();
  return f;
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures features = detect();
  return features;
}

std::string cpu_feature_string() {
  const CpuFeatures& f = cpu_features();
  std::string out;
  auto add = [&out](bool on, const char* name) {
    if (!on) return;
    if (!out.empty()) out += ' ';
    out += name;
  };
  add(f.avx2, "avx2");
  add(f.fma, "fma");
  add(f.avx512f, "avx512f");
  add(f.avx512dq, "avx512dq");
  add(f.avx512bw, "avx512bw");
  add(f.avx512vl, "avx512vl");
  add(f.avx512vnni, "avx512vnni");
  add(f.amx_bf16, "amx-bf16");
  return out.empty() ? "baseline-x86-64" : out;
}

}  // namespace ftgemm
