#include "setup.hpp"

#include <cstring>

#include "bench.hpp"
#include "core/context.hpp"
#include "core/gemm.hpp"
#include "trace.hpp"

namespace pb {

namespace {

using ftgemm::Trans;

template <typename S, typename C>
void setup_shape(const SetupShape& s) {
  ftgemm::Options o;
  o.threads = s.threads;
  auto& cache = ftgemm::process_context_cache<S, C>();
  std::shared_ptr<const ftgemm::GemmPlan<S, C>> plan;
  {
    SpanScope span("plan", "plan_cache_build");
    (void)cache.plan(Trans::kNoTrans, Trans::kNoTrans, s.m, s.n, s.k, o, false);
    plan = cache.plan(Trans::kNoTrans, Trans::kNoTrans, s.m, s.n, s.k, o, true);
  }
  ftgemm::GemmContext<S, C> ctx;
  ctx.ensure(*plan);
  const ftgemm::BlockingPlan& bp = plan->blocking;
  if constexpr (std::is_same_v<S, std::int8_t>) {
    for (int t = 0; t < plan->threads; ++t)
      std::memset(ctx.atilde(t), 0, std::size_t(ftgemm::i8_tile_bytes(bp.kc, bp.mc)));
    std::memset(ctx.btilde(), 0, std::size_t(ftgemm::i8_tile_bytes(bp.kc, bp.nc)));
    std::memset(ctx.cq(), 0, std::size_t(s.m * s.n) * sizeof(std::int32_t));
  } else {
    for (int t = 0; t < plan->threads; ++t)
      std::memset(ctx.atilde(t), 0, std::size_t(bp.mc * bp.kc) * sizeof(C));
    std::memset(ctx.btilde(), 0, std::size_t(bp.kc * bp.nc) * sizeof(C));
  }
}

}  // namespace

double measure_setup(const std::vector<SetupShape>& shapes,
                     const std::function<void()>& extra, int reps) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    ftgemm::clear_process_caches();
    const std::int64_t t0 = now_ns();
    for (const SetupShape& s : shapes) {
      switch (s.dtype) {
        case Dtype::kF64: setup_shape<double, double>(s); break;
        case Dtype::kF32: setup_shape<float, float>(s); break;
        case Dtype::kBf16: setup_shape<ftgemm::bf16_t, float>(s); break;
        case Dtype::kI8: setup_shape<std::int8_t, std::int32_t>(s); break;
      }
    }
    if (extra) extra();
    t.push_back(double(now_ns() - t0) * 1e-9);
  }
  return median(t);
}

}  // namespace pb
