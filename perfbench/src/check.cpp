#include "check.hpp"

#include <cmath>
#include <cstring>

#include "util/rng.hpp"

namespace pb {

template <typename T>
double max_rel_diff(const T* got, const T* want, index_t m, index_t n,
                    index_t ld) {
  double worst = 0.0;
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      const double x = double(got[i + j * ld]);
      const double y = double(want[i + j * ld]);
      const double d = std::abs(x - y) / std::max({std::abs(x), std::abs(y), 1.0});
      // NaN compares false: treat it as the worst possible difference.
      if (!(d <= worst)) worst = std::isnan(d) ? HUGE_VAL : d;
    }
  }
  return worst;
}

template <typename T>
bool identical(const T* got, const T* want, index_t m, index_t n, index_t ld) {
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      if (std::memcmp(&got[i + j * ld], &want[i + j * ld], sizeof(T)) != 0)
        return false;
  return true;
}

template <typename T>
Outcome check_ft(const ftgemm::FtReport& rep, const T* got, const T* want,
                 index_t m, index_t n, index_t ld, double tol) {
  if (!rep.clean()) return Outcome::kFlagged;
  const bool ok = tol == 0.0 ? identical(got, want, m, n, ld)
                             : max_rel_diff(got, want, m, n, ld) <= tol;
  return ok ? Outcome::kOk : Outcome::kSilent;
}

template <typename T>
Outcome check_plain(const T* got, const T* want, index_t m, index_t n,
                    index_t ld, double tol) {
  const bool ok = tol == 0.0 ? identical(got, want, m, n, ld)
                             : max_rel_diff(got, want, m, n, ld) <= tol;
  return ok ? Outcome::kOk : Outcome::kWrong;
}

template <typename T>
bool sampled_oracle_ok(const T* a, const T* b, const T* got, index_t m,
                       index_t n, index_t k, int samples, std::uint64_t seed,
                       double tol) {
  ftgemm::Xoshiro256 rng(seed);
  for (int s = 0; s < samples; ++s) {
    const index_t i = index_t(rng.bounded(std::uint64_t(m)));
    const index_t j = index_t(rng.bounded(std::uint64_t(n)));
    double ref = 0.0;
    for (index_t p = 0; p < k; ++p) ref += double(a[i + p * m]) * double(b[p + j * k]);
    const double x = double(got[i + j * m]);
    const double d = std::abs(x - ref) / std::max({std::abs(x), std::abs(ref), 1.0});
    if (!(d <= tol)) return false;
  }
  return true;
}

bool sampled_oracle_i8_ok(const std::int8_t* a, const std::int8_t* b,
                          const float* got, index_t m, index_t n, index_t k,
                          int samples, std::uint64_t seed) {
  ftgemm::Xoshiro256 rng(seed);
  for (int s = 0; s < samples; ++s) {
    const index_t i = index_t(rng.bounded(std::uint64_t(m)));
    const index_t j = index_t(rng.bounded(std::uint64_t(n)));
    std::int64_t sum = 0;
    for (index_t p = 0; p < k; ++p)
      sum += std::int64_t(a[i + p * m]) * std::int64_t(b[p + j * k]);
    const float want = float(double(sum));
    if (std::memcmp(&want, &got[i + j * m], sizeof(float)) != 0) return false;
  }
  return true;
}

void oracle_i8(const std::int8_t* a, index_t lda, const std::int8_t* b,
               index_t ldb, float* c, index_t m, index_t n, index_t k) {
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      std::int64_t sum = 0;
      for (index_t p = 0; p < k; ++p)
        sum += std::int64_t(a[i + p * lda]) * std::int64_t(b[p + j * ldb]);
      c[i + j * m] = float(double(sum));
    }
  }
}

#define PB_INSTANTIATE(T)                                                     \
  template double max_rel_diff<T>(const T*, const T*, index_t, index_t,       \
                                  index_t);                                   \
  template bool identical<T>(const T*, const T*, index_t, index_t, index_t);  \
  template Outcome check_ft<T>(const ftgemm::FtReport&, const T*, const T*,   \
                               index_t, index_t, index_t, double);            \
  template Outcome check_plain<T>(const T*, const T*, index_t, index_t,       \
                                  index_t, double);                           \
  template bool sampled_oracle_ok<T>(const T*, const T*, const T*, index_t,   \
                                     index_t, index_t, int, std::uint64_t,    \
                                     double);
PB_INSTANTIATE(double)
PB_INSTANTIATE(float)
#undef PB_INSTANTIATE

}  // namespace pb
