// Entry points of the workloads and of the per-layer probes.
#pragma once

#include "bench.hpp"

namespace pb {

/// Clean 2048^3 GEMMs, Ori and FT interleaved, fp64 nt=1/2 (and FT nt=4 on
/// traced runs), fp32, bf16 and int8 at nt=1, plus the clean latency stream.
void run_dense(Run& run);
/// The paper phase (1024^3 fp64 FT with 20 errors per call, the other
/// precisions clean) and the storm phase (the latency stream under 10-60
/// errors per call).
void run_inject(Run& run);
/// The synchronous serve mix, then the open-loop GemmService rate ladder.
void run_serve(Run& run);

/// Host calibration: one-core FMA peaks and L2 / DRAM triad bandwidth.
void run_host_calibration(Run& run);
/// Per-layer probes: kernels, pack, plan, opcache, runtime, inject, abft.
void run_probes(Run& run);

}  // namespace pb
