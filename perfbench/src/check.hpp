// Output checks: every GEMM the benchmark times is checked, and the check
// decides the operation's Outcome.
//
//   fp64 / fp32   Ori against a sampled fp64 dot-product oracle, FT against
//                 the Ori result, both within gemm_tolerance (the bound the
//                 test suite uses: 64 eps sqrt(k), relative).
//   bf16          Ori and FT against a reference computed in fp32 from the
//                 widened operands, within the fp32 bound.
//   int8          Ori exactly equal to a sampled int64 oracle, FT exactly
//                 equal to Ori.
//   injected      FT against the clean result; a flagged report is kFlagged.
//
// A clean FT report whose C fails its check is kSilent.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "bench.hpp"
#include "core/gemm.hpp"

namespace pb {

using ftgemm::index_t;

template <typename T>
double gemm_tolerance(index_t k) {
  return 64.0 * double(std::numeric_limits<T>::epsilon()) *
         std::sqrt(double(std::max<index_t>(k, 1)));
}

/// Bound for an FT result after corrections, as the test suite states it
/// for corrected elements: a correction recovers the element to checksum
/// rounding accuracy, which scales with the injected magnitude (at most 1.5
/// for the benchmark's CountInjector), so the floor is 1e-12 x 1.5 in fp64
/// and 1e-5 in fp32.  A silent error is the size of the injected delta.
template <typename T>
double corrected_tolerance(index_t k) {
  return std::max(gemm_tolerance<T>(k), sizeof(T) == 8 ? 1.5e-12 : 1e-5);
}

/// Bound for a result with storage type S: exact for int8, fp32 rounding
/// for fp32 and bf16 (fp32 accumulation), fp64 rounding for fp64.
template <typename S>
double result_tolerance(index_t k, bool corrected) {
  if constexpr (std::is_same_v<S, std::int8_t>) {
    return 0.0;
  } else {
    using Acc = std::conditional_t<std::is_same_v<S, double>, double, float>;
    return corrected ? corrected_tolerance<Acc>(k) : gemm_tolerance<Acc>(k);
  }
}

/// Largest relative element difference of two column-major m x n matrices,
/// with the denominator guarded by 1 (ftgemm::max_rel_diff on raw storage).
template <typename T>
double max_rel_diff(const T* got, const T* want, index_t m, index_t n,
                    index_t ld);

/// True when every element of `got` equals `want` bit for bit.
template <typename T>
bool identical(const T* got, const T* want, index_t m, index_t n, index_t ld);

/// Outcome of an FT call whose output is compared with `want`.
template <typename T>
Outcome check_ft(const ftgemm::FtReport& rep, const T* got, const T* want,
                 index_t m, index_t n, index_t ld, double tol);

/// Outcome of an unprotected call whose output is compared with `want`.
template <typename T>
Outcome check_plain(const T* got, const T* want, index_t m, index_t n,
                    index_t ld, double tol);

/// Sampled oracle for C = A * B (column-major, no transpose, beta = 0):
/// recomputes `samples` entries chosen by `seed` in fp64 and compares them
/// with `got` within `tol`.
template <typename T>
bool sampled_oracle_ok(const T* a, const T* b, const T* got, index_t m,
                       index_t n, index_t k, int samples, std::uint64_t seed,
                       double tol);

/// int8 variant: exact int64 sums, dequantized the way the library does
/// with unit scales and zero points (C = float(double(sum))).
bool sampled_oracle_i8_ok(const std::int8_t* a, const std::int8_t* b,
                          const float* got, index_t m, index_t n, index_t k,
                          int samples, std::uint64_t seed);

/// Full int64 oracle of the int8 product (small shapes only).
void oracle_i8(const std::int8_t* a, index_t lda, const std::int8_t* b,
               index_t ldb, float* c, index_t m, index_t n, index_t k);

}  // namespace pb
