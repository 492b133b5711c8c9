// Host calibration, measured in the same process as the probes that are
// read against it: one-core FMA peak for fp64 and fp32, int8 dot-product
// peak (AVX-512 VNNI where present), and triad bandwidth with the arrays in
// L2 and with each array at least four times the last-level cache.
#include <immintrin.h>

#include <cstdio>
#include <vector>

#include "arch/cpu_features.hpp"
#include "blocking/cache_info.hpp"
#include "util/aligned_buffer.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

constexpr int kChains = 12;  // independent FMA chains: > latency x ports

__attribute__((target("avx512f"))) double fma_f64_avx512(std::int64_t iters,
                                                         double* sink) {
  __m512d acc[kChains];
  for (int j = 0; j < kChains; ++j) acc[j] = _mm512_set1_pd(1e-3 * j);
  const __m512d x = _mm512_set1_pd(0.999999), y = _mm512_set1_pd(1e-9);
  for (std::int64_t i = 0; i < iters; ++i)
    for (int j = 0; j < kChains; ++j) acc[j] = _mm512_fmadd_pd(acc[j], x, y);
  for (int j = 1; j < kChains; ++j) acc[0] = _mm512_add_pd(acc[0], acc[j]);
  *sink += _mm512_reduce_add_pd(acc[0]);
  return double(iters) * kChains * 8 * 2;
}

__attribute__((target("avx512f"))) double fma_f32_avx512(std::int64_t iters,
                                                         double* sink) {
  __m512 acc[kChains];
  for (int j = 0; j < kChains; ++j) acc[j] = _mm512_set1_ps(1e-3f * float(j));
  const __m512 x = _mm512_set1_ps(0.9999f), y = _mm512_set1_ps(1e-7f);
  for (std::int64_t i = 0; i < iters; ++i)
    for (int j = 0; j < kChains; ++j) acc[j] = _mm512_fmadd_ps(acc[j], x, y);
  for (int j = 1; j < kChains; ++j) acc[0] = _mm512_add_ps(acc[0], acc[j]);
  *sink += double(_mm512_reduce_add_ps(acc[0]));
  return double(iters) * kChains * 16 * 2;
}

__attribute__((target("avx512f,avx512vnni"))) double dot_i8_vnni(
    std::int64_t iters, double* sink) {
  __m512i acc[kChains];
  for (int j = 0; j < kChains; ++j) acc[j] = _mm512_set1_epi32(j);
  const __m512i a = _mm512_set1_epi8(3), b = _mm512_set1_epi8(-2);
  for (std::int64_t i = 0; i < iters; ++i)
    for (int j = 0; j < kChains; ++j) acc[j] = _mm512_dpbusd_epi32(acc[j], a, b);
  for (int j = 1; j < kChains; ++j) acc[0] = _mm512_add_epi32(acc[0], acc[j]);
  *sink += double(_mm512_reduce_add_epi32(acc[0]));
  return double(iters) * kChains * 64 * 2;  // 64 u8 x s8 products per lane set
}

__attribute__((target("avx2,fma"))) double fma_f64_avx2(std::int64_t iters,
                                                       double* sink) {
  __m256d acc[kChains];
  for (int j = 0; j < kChains; ++j) acc[j] = _mm256_set1_pd(1e-3 * j);
  const __m256d x = _mm256_set1_pd(0.999999), y = _mm256_set1_pd(1e-9);
  for (std::int64_t i = 0; i < iters; ++i)
    for (int j = 0; j < kChains; ++j) acc[j] = _mm256_fmadd_pd(acc[j], x, y);
  alignas(32) double out[4];
  for (int j = 1; j < kChains; ++j) acc[0] = _mm256_add_pd(acc[0], acc[j]);
  _mm256_store_pd(out, acc[0]);
  *sink += out[0] + out[1] + out[2] + out[3];
  return double(iters) * kChains * 4 * 2;
}

__attribute__((target("avx2,fma"))) double fma_f32_avx2(std::int64_t iters,
                                                       double* sink) {
  __m256 acc[kChains];
  for (int j = 0; j < kChains; ++j) acc[j] = _mm256_set1_ps(1e-3f * float(j));
  const __m256 x = _mm256_set1_ps(0.9999f), y = _mm256_set1_ps(1e-7f);
  for (std::int64_t i = 0; i < iters; ++i)
    for (int j = 0; j < kChains; ++j) acc[j] = _mm256_fmadd_ps(acc[j], x, y);
  alignas(32) float out[8];
  for (int j = 1; j < kChains; ++j) acc[0] = _mm256_add_ps(acc[0], acc[j]);
  _mm256_store_ps(out, acc[0]);
  for (float v : out) *sink += double(v);
  return double(iters) * kChains * 8 * 2;
}

/// AVX2 int8 dot product the way the library's AVX2 kernels emulate VNNI:
/// maddubs (u8 x s8 -> s16 pairs) then madd with ones (-> s32).
__attribute__((target("avx2,fma"))) double dot_i8_avx2(std::int64_t iters,
                                                      double* sink) {
  __m256i acc[kChains];
  for (int j = 0; j < kChains; ++j) acc[j] = _mm256_set1_epi32(j);
  const __m256i a = _mm256_set1_epi8(3), b = _mm256_set1_epi8(-2);
  const __m256i ones = _mm256_set1_epi16(1);
  for (std::int64_t i = 0; i < iters; ++i) {
    for (int j = 0; j < kChains; ++j) {
      const __m256i p = _mm256_madd_epi16(_mm256_maddubs_epi16(a, b), ones);
      acc[j] = _mm256_add_epi32(acc[j], p);
    }
  }
  alignas(32) std::int32_t out[8];
  for (int j = 1; j < kChains; ++j) acc[0] = _mm256_add_epi32(acc[0], acc[j]);
  _mm256_store_si256(reinterpret_cast<__m256i*>(out), acc[0]);
  for (std::int32_t v : out) *sink += double(v);
  return double(iters) * kChains * 32 * 2;
}

/// Best of five timed runs of a peak loop, in G-operations per second.
double peak(double (*fn)(std::int64_t, double*)) {
  double sink = 0.0;
  fn(1 << 16, &sink);  // warm the unit (AVX-512 licence, frequency)
  double best = 0.0;
  for (int r = 0; r < 5; ++r) {
    const std::int64_t t0 = now_ns();
    const double ops = fn(std::int64_t(1) << 21, &sink);
    best = std::max(best, ops / double(now_ns() - t0));
  }
  if (sink == 12345.678) std::fprintf(stderr, "#");  // keep the loops live
  return best;
}

/// Median triad bandwidth a[i] = b[i] + s * c[i] over `passes`, GB/s of
/// computed traffic (3 x 8 bytes per element; write-allocate not counted).
double triad_gbs(std::size_t elems, int passes) {
  ftgemm::AlignedBuffer<double> a(elems), b(elems), c(elems);
  for (std::size_t i = 0; i < elems; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  std::vector<double> gbs;
  const double s = 0.5;
  for (int p = 0; p < passes; ++p) {
    double* pa = a.data();
    const double* pb = b.data();
    const double* pc = c.data();
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < elems; ++i) pa[i] = pb[i] + s * pc[i];
    gbs.push_back(3.0 * 8.0 * double(elems) / double(now_ns() - t0));
  }
  if (a[elems / 2] != 2.0) std::fprintf(stderr, "triad check failed\n");
  return median(gbs);
}

}  // namespace

void run_host_calibration(Run& run) {
  const ftgemm::CpuFeatures& f = ftgemm::cpu_features();
  const bool avx512 = f.has_avx512_kernel_support();
  const bool avx2 = f.has_avx2_kernel_support();
  double f64 = 0.0, f32 = 0.0, i8 = 0.0;
  if (avx512) {
    f64 = peak(fma_f64_avx512);
    f32 = peak(fma_f32_avx512);
  } else if (avx2) {
    f64 = peak(fma_f64_avx2);
    f32 = peak(fma_f32_avx2);
  }
  if (avx512 && f.avx512vnni) {
    i8 = peak(dot_i8_vnni);
  } else if (avx2) {
    i8 = peak(dot_i8_avx2);
  }
  run.set_layer("host.peak_gflops_f64", f64);
  run.set_layer("host.peak_gflops_f32", f32);
  run.set_layer("host.peak_gops_i8", i8);

  const ftgemm::CacheInfo& ci = ftgemm::cache_info();
  // L2: three arrays filling half of one core's L2.
  const std::size_t l2_elems = ci.l2_bytes / 2 / 3 / sizeof(double);
  run.set_layer("host.bw_l2_gbs", triad_gbs(l2_elems, 200));
  // DRAM: each array four times the last-level cache.
  const std::size_t dram_elems = 4 * ci.l3_bytes / sizeof(double);
  run.set_layer("host.bw_dram_gbs", triad_gbs(dram_elems, 3));
  run.host_sizes = {double(ci.l2_bytes) / 1048576.0, double(ci.l3_bytes) / 1048576.0,
                    double(dram_elems * sizeof(double)) / 1048576.0};
}

}  // namespace pb
