// Typed dispatch onto the library's public entry points, so the workloads
// can treat every precision alike.  Column-major, no transposes, alpha = 1,
// beta = 0, default quantization (unit scales, zero points 0) for int8.
#pragma once

#include <cstdint>
#include <type_traits>

#include "core/gemm.hpp"
#include "core/gemm_i8.hpp"
#include "util/rng.hpp"

namespace pb {

using ftgemm::bf16_t;
using ftgemm::FtReport;
using ftgemm::index_t;
using ftgemm::Options;

/// Compute type of a storage type: fp64 -> fp64, fp32 / bf16 -> fp32,
/// int8 -> fp32 output (int32 accumulation inside).
template <typename S>
using OutT = std::conditional_t<std::is_same_v<S, double>, double, float>;

template <typename S>
void call_ori(index_t m, index_t n, index_t k, const S* a, index_t lda,
              const S* b, index_t ldb, OutT<S>* c, index_t ldc,
              const Options& o) {
  using ftgemm::Layout;
  using ftgemm::Trans;
  constexpr auto L = Layout::kColMajor;
  constexpr auto N = Trans::kNoTrans;
  if constexpr (std::is_same_v<S, double>) {
    ftgemm::dgemm(L, N, N, m, n, k, 1.0, a, lda, b, ldb, 0.0, c, ldc, o);
  } else if constexpr (std::is_same_v<S, float>) {
    ftgemm::sgemm(L, N, N, m, n, k, 1.0f, a, lda, b, ldb, 0.0f, c, ldc, o);
  } else if constexpr (std::is_same_v<S, bf16_t>) {
    ftgemm::gemm_bf16(L, N, N, m, n, k, 1.0f, a, lda, b, ldb, 0.0f, c, ldc, o);
  } else {
    ftgemm::gemm_i8(L, N, N, m, n, k, 1.0f, a, lda, b, ldb, 0.0f, c, ldc, {},
                    o);
  }
}

/// FT call; `reliable` selects the *_reliable entry point (int8 has none:
/// its exact integer correction needs no snapshot/retry).
template <typename S>
FtReport call_ft(index_t m, index_t n, index_t k, const S* a, index_t lda,
                 const S* b, index_t ldb, OutT<S>* c, index_t ldc,
                 const Options& o, bool reliable) {
  using ftgemm::Layout;
  using ftgemm::Trans;
  constexpr auto L = Layout::kColMajor;
  constexpr auto N = Trans::kNoTrans;
  if constexpr (std::is_same_v<S, double>) {
    return reliable ? ftgemm::ft_dgemm_reliable(L, N, N, m, n, k, 1.0, a, lda,
                                                b, ldb, 0.0, c, ldc, o)
                    : ftgemm::ft_dgemm(L, N, N, m, n, k, 1.0, a, lda, b, ldb,
                                       0.0, c, ldc, o);
  } else if constexpr (std::is_same_v<S, float>) {
    return reliable ? ftgemm::ft_sgemm_reliable(L, N, N, m, n, k, 1.0f, a,
                                                lda, b, ldb, 0.0f, c, ldc, o)
                    : ftgemm::ft_sgemm(L, N, N, m, n, k, 1.0f, a, lda, b, ldb,
                                       0.0f, c, ldc, o);
  } else if constexpr (std::is_same_v<S, bf16_t>) {
    return reliable
               ? ftgemm::ft_gemm_bf16_reliable(L, N, N, m, n, k, 1.0f, a, lda,
                                               b, ldb, 0.0f, c, ldc, o)
               : ftgemm::ft_gemm_bf16(L, N, N, m, n, k, 1.0f, a, lda, b, ldb,
                                      0.0f, c, ldc, o);
  } else {
    (void)reliable;
    return ftgemm::ft_gemm_i8(L, N, N, m, n, k, 1.0f, a, lda, b, ldb, 0.0f, c,
                              ldc, {}, o);
  }
}

/// Seeded operand fill: uniform [-1, 1) for floating types (bf16 rounded
/// from fp32), the full [-128, 127] lane range for int8.
template <typename S>
void fill(S* p, std::size_t count, std::uint64_t seed) {
  ftgemm::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    if constexpr (std::is_same_v<S, std::int8_t>) {
      p[i] = std::int8_t(std::int32_t(rng.bounded(256)) - 128);
    } else if constexpr (std::is_same_v<S, bf16_t>) {
      p[i] = bf16_t(float(rng.uniform(-1.0, 1.0)));
    } else {
      p[i] = S(rng.uniform(-1.0, 1.0));
    }
  }
}

}  // namespace pb
