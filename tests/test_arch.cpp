// Unit tests: CPU feature detection and ISA dispatch policy.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "arch/cpu_features.hpp"
#include "arch/isa.hpp"

namespace ftgemm {
namespace {

TEST(CpuFeatures, DetectionIsStable) {
  const CpuFeatures& a = cpu_features();
  const CpuFeatures& b = cpu_features();
  EXPECT_EQ(&a, &b) << "detection must be cached";
}

TEST(CpuFeatures, Avx512ImpliesAvx2Support) {
  const CpuFeatures& f = cpu_features();
  if (f.has_avx512_kernel_support()) {
    EXPECT_TRUE(f.has_avx2_kernel_support())
        << "no real CPU has AVX-512 without AVX2+FMA";
  }
}

TEST(CpuFeatures, FeatureStringNonEmpty) {
  EXPECT_FALSE(cpu_feature_string().empty());
}

TEST(Isa, ParseRoundTrips) {
  EXPECT_EQ(parse_isa("avx512"), Isa::kAvx512);
  EXPECT_EQ(parse_isa("avx2"), Isa::kAvx2);
  EXPECT_EQ(parse_isa("scalar"), Isa::kScalar);
  EXPECT_EQ(parse_isa("nonsense"), Isa::kScalar);
  EXPECT_EQ(parse_isa(isa_name(Isa::kAvx512)), Isa::kAvx512);
  EXPECT_EQ(parse_isa(isa_name(Isa::kAvx2)), Isa::kAvx2);
  EXPECT_EQ(parse_isa(isa_name(Isa::kScalar)), Isa::kScalar);
}

TEST(Isa, SelectNeverExceedsHardware) {
  const Isa best = select_isa();
  const CpuFeatures& f = cpu_features();
  if (best == Isa::kAvx512) {
    EXPECT_TRUE(f.has_avx512_kernel_support());
  }
  if (best == Isa::kAvx2) {
    EXPECT_TRUE(f.has_avx2_kernel_support());
  }
}

// The Isa.EnvOverride* tests probe the env-var policy itself, so they must
// neutralize any FTGEMM_FORCE_ISA inherited from the outer environment
// (the CI scalar-fallback leg exports it for the whole ctest run) — and
// restore it afterwards so the rest of this binary still runs under the
// leg's forced ISA.
class ForceIsaScope {
 public:
  ForceIsaScope() {
    if (const char* v = std::getenv("FTGEMM_FORCE_ISA")) {
      saved_ = v;
      ::unsetenv("FTGEMM_FORCE_ISA");
    }
  }
  ~ForceIsaScope() {
    if (!saved_.empty()) ::setenv("FTGEMM_FORCE_ISA", saved_.c_str(), 1);
  }

 private:
  std::string saved_;
};

TEST(Isa, EnvOverrideDowngrades) {
  ForceIsaScope no_force;
  ::setenv("FTGEMM_FORCE_ISA", "scalar", 1);
  EXPECT_EQ(select_isa(), Isa::kScalar);
  ::setenv("FTGEMM_FORCE_ISA", "avx2", 1);
  const Isa got = select_isa();
  if (cpu_features().has_avx2_kernel_support()) {
    EXPECT_EQ(got, Isa::kAvx2);
  } else {
    EXPECT_EQ(got, Isa::kScalar);
  }
  ::unsetenv("FTGEMM_FORCE_ISA");
}

TEST(Isa, EnvOverrideCannotUpgradeBeyondHardware) {
  ForceIsaScope no_force;
  ::setenv("FTGEMM_FORCE_ISA", "avx512", 1);
  const Isa got = select_isa();
  if (!cpu_features().has_avx512_kernel_support()) {
    EXPECT_NE(got, Isa::kAvx512);
  }
  ::unsetenv("FTGEMM_FORCE_ISA");
}

}  // namespace
}  // namespace ftgemm
