// Self-test of the benchmark's output checks: a corrupted C must be counted.
//
// Build and run with the benchmark (ctest in its build directory, or
// `.bench_build/perfbench/perfbench_selftest`).  Exit 0 when every
// expectation holds.
#include <cstdio>

#include "bench.hpp"
#include "calls.hpp"
#include "check.hpp"
#include "util/aligned_buffer.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  using pb::index_t;
  constexpr index_t m = 64, n = 48, k = 96;
  ftgemm::AlignedBuffer<double> a(m * k), b(k * n), c(m * n), ref(m * n);
  pb::fill(a.data(), a.size(), 1);
  pb::fill(b.data(), b.size(), 2);
  ftgemm::Options o;
  o.threads = 1;
  pb::call_ori<double>(m, n, k, a.data(), m, b.data(), k, ref.data(), m, o);
  const ftgemm::FtReport rep =
      pb::call_ft<double>(m, n, k, a.data(), m, b.data(), k, c.data(), m, o, false);
  const double tol = pb::gemm_tolerance<double>(k);

  pb::Tally tally;
  tally.add(pb::check_ft<double>(rep, c.data(), ref.data(), m, n, m, tol));
  expect(tally.attempted == 1 && tally.not_ok() == 0, "clean FT call checks ok");

  // Corrupt one element after a clean report: a silent wrong result.
  c[17 + 5 * m] += 0.5;
  tally.add(pb::check_ft<double>(rep, c.data(), ref.data(), m, n, m, tol));
  expect(tally.silent == 1, "corrupted C with a clean report counts as silent");
  expect(tally.wrong_outputs() == 1, "the silent result counts as failed");

  // The same corruption on an unprotected call is a wrong output.
  tally.add(pb::check_plain<double>(c.data(), ref.data(), m, n, m, tol));
  expect(tally.wrong == 1, "corrupted C from an Ori call counts as wrong");

  // A flagged report is counted as flagged, never as silent.
  ftgemm::FtReport flagged = rep;
  flagged.uncorrectable_panels = 1;
  tally.add(pb::check_ft<double>(flagged, c.data(), ref.data(), m, n, m, tol));
  expect(tally.flagged == 1 && tally.silent == 1, "flagged is not silent");

  // Exact comparison (int8 path): a one-ulp change is caught.
  ftgemm::AlignedBuffer<float> x(m * n), y(m * n);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = y[i] = float(i);
  expect(pb::identical<float>(x.data(), y.data(), m, n, m), "identical buffers match");
  y[123] = std::nextafter(y[123], 1e9f);
  tally.add(pb::check_ft<float>(rep, y.data(), x.data(), m, n, m, 0.0));
  expect(tally.silent == 2, "one-ulp change under an exact check counts as silent");

  // NaN in C never passes.
  c[3] = std::nan("");
  expect(pb::max_rel_diff<double>(c.data(), ref.data(), m, n, m) > tol,
         "NaN fails the tolerance check");

  std::printf("perfbench_selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}
