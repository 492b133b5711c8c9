// The int8 (FT-)GEMM executor: the same plan/execute architecture as
// core/driver.hpp, specialized for the path where nothing is a float until
// the final write-back.
//
// Differences from the float executor, all forced by the quantized data
// flow (see kernels/kernel_int8.hpp and kernels/int8_types.hpp):
//
//   - C is never an accumulator.  The biased product P = Au8 * Bq
//     accumulates in a private int32 buffer (ctx.cq), and the caller's
//     float C is touched exactly once, by the dequantize epilogue
//     C = float(alpha*sa*sb*S + beta*C) after every panel has finished.
//     There is consequently no beta/encode pass over C: predicted and
//     reference checksums cover cq alone, starting from zero.
//
//   - Verification is EXACT.  Every quantity the checksums see is an
//     integer (int32 accumulators, int64 checksums), integer addition is
//     associative, and kernels/packers never reassociate a rounding — so
//     predicted and reference sums are compared at tolerance zero and the
//     locator runs with zero slack (docs/DESIGN.md §11).  There is no
//     ToleranceModel, no amax tracking, and no lane-partial mirroring
//     (cr_lanes = 1).
//
//   - The epilogue needs two side vectors to undo the bias/zero-point
//     shift: arow[i] = sum_k u8(i, k) (accumulated by pack_a on its first
//     pass over each (row, panel) region — the jc == 0 block) and
//     bcol[j] = sum_k s8(k, j) (accumulated by pack_b; each column is
//     packed once per panel).
//
// Thread topology is identical to the float executor: M-partition of cq,
// cooperative N-packing of the shared B~, per-thread private A~, the same
// barrier structure — threads = 1 IS the serial algorithm, and the fast
// path (execute_small_i8) is the same arithmetic with the machinery
// removed.  Exactness makes one float concern vanish: partitioned integer
// reductions are order-independent, so the Ar encode writes disjoint
// K-slices directly instead of reducing per-thread partials.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "abft/verifier.hpp"
#include "core/context.hpp"
#include "core/driver.hpp"
#include "core/operand_cache.hpp"
#include "core/options.hpp"
#include "core/plan.hpp"
#include "kernels/microkernel.hpp"
#include "runtime/team.hpp"
#include "util/timer.hpp"

namespace ftgemm::detail {

/// Exact-integer mismatch scan: a checksum pair disagrees iff the int64
/// difference is non-zero (the int8 analogue of find_mismatches, with the
/// tolerance argument gone rather than set to 0.0 — no float compare is
/// involved at all).
inline void find_mismatches_i64(const std::int64_t* predicted,
                                const std::int64_t* reference, index_t count,
                                index_t base, std::vector<Mismatch>& out) {
  for (index_t i = 0; i < count; ++i) {
    const std::int64_t d = reference[i] - predicted[i];
    if (d != 0) out.push_back({base + i, double(d)});
  }
}

/// Locate/correct over the int32 accumulator, then re-verify the touched
/// rows/columns with exact int64 sums and repeat if needed (the integer
/// mirror of locate_correct_reverify: zero solver slack, zero re-check
/// tolerance, corrections applied as exact integer subtractions).  Checksum
/// deltas are at most ~2^31 * max(m, n), exactly representable in the
/// solver's doubles for every problem this library accepts.
inline void locate_correct_reverify_i8(
    std::vector<Mismatch>& rows, std::vector<Mismatch>& cols, index_t m,
    index_t n, std::int32_t* cq, index_t ldq,
    GemmContext<std::int8_t, std::int32_t>& ctx, int panel,
    std::vector<CorrectionRecord>* correction_log, std::int64_t& detected,
    std::int64_t& corrected, int& uncorrectable) {
  if (rows.empty() && cols.empty()) return;
  bool failed = false;
  std::vector<index_t> touched_rows, touched_cols;
  constexpr int kMaxRounds = 4;
  for (int round = 0;; ++round) {
    const SolveOutcome outcome = solve_error_assignment(rows, cols, 0.0);
    if (!outcome.solved) {
      if (round == 0) {
        detected += std::int64_t(std::max(rows.size(), cols.size()));
      }
      failed = true;
      break;
    }
    for (const LocatedError& err : outcome.errors) {
      cq[err.row + err.col * ldq] -=
          std::int32_t(std::llround(err.delta));
      touched_rows.push_back(err.row);
      touched_cols.push_back(err.col);
      if (correction_log != nullptr) {
        correction_log->push_back({panel, round, err.row, err.col, err.delta});
      }
    }
    if (round == 0) {
      detected += std::int64_t(outcome.errors.size());
      corrected += std::int64_t(outcome.errors.size());
    }
    std::sort(touched_rows.begin(), touched_rows.end());
    touched_rows.erase(std::unique(touched_rows.begin(), touched_rows.end()),
                       touched_rows.end());
    std::sort(touched_cols.begin(), touched_cols.end());
    touched_cols.erase(std::unique(touched_cols.begin(), touched_cols.end()),
                       touched_cols.end());
    rows.clear();
    cols.clear();
    for (const index_t i : touched_rows) {
      std::int64_t sum = 0;
      for (index_t j = 0; j < n; ++j) sum += cq[i + j * ldq];
      const std::int64_t d = sum - ctx.cc()[i];
      if (d != 0) rows.push_back({i, double(d)});
    }
    for (const index_t j : touched_cols) {
      std::int64_t sum = 0;
      for (index_t i = 0; i < m; ++i) sum += cq[i + j * ldq];
      const std::int64_t d = sum - ctx.cr()[j];
      if (d != 0) cols.push_back({j, double(d)});
    }
    if (rows.empty() && cols.empty()) break;  // converged
    if (round + 1 >= kMaxRounds) {
      failed = true;
      break;
    }
  }
  if (failed) ++uncorrectable;
}

/// Apply the corruptions an injector planned for one macro block of the
/// int32 accumulator, emulating an in-kernel fault (the reference checksums
/// would have seen the corrupted value too).  apply_corruption's int32
/// overload guarantees an integral applied delta, so the int64 reference
/// updates stay exact.
template <bool FT>
inline void apply_planned_injections_i8(
    FaultInjector* injector, const BlockContext& bctx,
    std::vector<InjectionRecord>& planned, std::int32_t* cq, index_t ldq,
    GemmContext<std::int8_t, std::int32_t>& ctx, std::int64_t* crref_slice) {
  planned.clear();
  injector->plan_block(bctx, planned);
  for (InjectionRecord rec : planned) {
    std::int32_t& value = cq[rec.i + rec.j * ldq];
    const double applied = apply_corruption(value, rec);
    if constexpr (FT) {
      ctx.ccref()[rec.i] += std::int64_t(applied);
      crref_slice[rec.j] += std::int64_t(applied);
    }
    rec.delta = applied;
    injector->record(rec);
  }
}

/// The write-back: undo the bias/zero-point shift and dequantize one column
/// range of the finished int32 accumulator into the caller's float C,
///
///   S[i,j] = cq[i,j] - zb*arow[i] - (128+za)*bcol[j] + k*(128+za)*zb,
///   C[i,j] = float( alpha*sa*sb * S[i,j] + beta * C[i,j] ),
///
/// with the scale product and the accumulation carried in fp64 so the only
/// rounding of the whole path is the final fp32 store.  When beta == 0, C
/// is never read (BLAS semantics: an uninitialized C stays NaN-free).
/// `degenerate` covers k <= 0 and alpha == 0 — compute was skipped and the
/// buffers hold garbage, so the identity C = beta*C is applied directly.
inline void dequantize_epilogue_i8(const std::int32_t* cq, index_t m,
                                   index_t ldq, index_t js, index_t jlen,
                                   index_t k, const std::int32_t* arow,
                                   const std::int32_t* bcol,
                                   const QuantParams& qp, float alpha,
                                   float beta, float* c, index_t ldc,
                                   bool degenerate) {
  if (degenerate) {
    for (index_t j = js; j < js + jlen; ++j) {
      for (index_t i = 0; i < m; ++i) {
        c[i + j * ldc] =
            beta == 0.0f ? 0.0f : float(double(beta) * double(c[i + j * ldc]));
      }
    }
    return;
  }
  const double sab =
      double(alpha) * double(qp.scale_a) * double(qp.scale_b);
  const std::int64_t za128 = 128 + std::int64_t(qp.zero_a);
  const std::int64_t zb = std::int64_t(qp.zero_b);
  const std::int64_t kzz = std::int64_t(k) * za128 * zb;
  for (index_t j = js; j < js + jlen; ++j) {
    const std::int64_t colterm = za128 * std::int64_t(bcol[j]) - kzz;
    for (index_t i = 0; i < m; ++i) {
      const std::int64_t s = std::int64_t(cq[i + j * ldq]) -
                             zb * std::int64_t(arow[i]) - colterm;
      const double v = sab * double(s);
      c[i + j * ldc] =
          beta == 0.0f ? float(v)
                       : float(v + double(beta) * double(c[i + j * ldc]));
    }
  }
}

/// Single-macro-tile direct path of the int8 executor (plan.fast_path):
/// serial, packed-once, no parallel region.  Identical arithmetic to the
/// general path at nt = 1 — and on this path "identical" means bit-for-bit
/// by exactness, not by summation-order discipline.
template <bool FT>
FtReport execute_small_i8(const GemmPlan<std::int8_t, std::int32_t>& plan,
                          float alpha, const std::int8_t* a, index_t lda,
                          const std::int8_t* b, index_t ldb, float beta,
                          float* c, index_t ldc, const QuantParams& qp,
                          FaultInjector* injector,
                          std::vector<CorrectionRecord>* correction_log,
                          GemmContext<std::int8_t, std::int32_t>& ctx,
                          const ResidentAPayload<std::int8_t, std::int32_t>*
                              ra = nullptr,
                          MemoryFaultInjector* mem_injector = nullptr) {
  FtReport report;
  const WallTimer timer;
  const PlanKey& key = plan.key;
  const index_t m = key.m, n = key.n, k = key.k;
  const KernelSet<std::int8_t, std::int32_t>& ks = plan.kernels;
  const bool degenerate = plan.k_zero || alpha == 0.0f;

  if (injector != nullptr) injector->begin_call(m, n, k, 1);
  ctx.ensure(plan);

  const OperandView<std::int8_t> av{a, lda, key.ta == Trans::kTrans};
  const OperandView<std::int8_t> bv{b, ldb, key.tb == Trans::kTrans};

  std::int64_t detected = 0, corrected = 0;
  int uncorrectable = 0;
  int panels_run = 0;

  if (!degenerate) {
    std::fill(ctx.cq(), ctx.cq() + std::size_t(m) * std::size_t(n), 0);
    std::fill(ctx.arow(), ctx.arow() + m, 0);
    std::fill(ctx.bcol(), ctx.bcol() + n, 0);

    // ---- The single rank-K panel: pack B~ once, pack A~ once, one macro
    // block, verify.  A fast-path plan always has kc >= k, so a resident
    // payload is a single panel starting at k-offset 0 and is consumed
    // zero-copy (the panels already hold the biased u8 bytes).
    const std::uint8_t* apanel = ctx.atilde(0);
    if (ra != nullptr) {
      apanel = reinterpret_cast<const std::uint8_t*>(ra->panel_at(0));
      // The payload's integrity row sums are per-packed-row sums of the
      // biased bytes — exactly the epilogue's arow (padding rows beyond m
      // are all-zero and simply not copied).
      std::copy(ra->rowchk.data(), ra->rowchk.data() + m, ctx.arow());
    }
    if constexpr (FT) {
      std::fill(ctx.cc(), ctx.cc() + m, std::int64_t(0));
      std::fill(ctx.cr(), ctx.cr() + n, std::int64_t(0));
      std::fill(ctx.ccref(), ctx.ccref() + m, std::int64_t(0));
      std::fill(ctx.crref_part(0), ctx.crref_part(0) + n, std::int64_t(0));
      if (ra != nullptr) {
        std::copy(ra->ar.data(), ra->ar.data() + k, ctx.ar());
      } else {
        std::fill(ctx.ar(), ctx.ar() + k, 0);
        ks.pack.encode_ar(av, 0, m, 0, k, ctx.ar());
      }
      ks.pack.pack_b_ft(bv, 0, 0, k, n, plan.blocking.nr, ctx.btilde(),
                        ctx.bcol(), ctx.ar(), ctx.cr());
      ks.pack.reduce_bc(ctx.btilde(), k, n, plan.blocking.nr, index_t(0), k,
                        ctx.bc());
      if (ra != nullptr) {
        ks.pack.encode_cc(apanel, m, k, plan.blocking.mr, ctx.bc(), ctx.cc());
      } else {
        ks.pack.pack_a_ft(av, 0, 0, m, k, plan.blocking.mr, ctx.atilde(0),
                          ctx.arow(), ctx.bc(), ctx.cc());
      }
    } else {
      ks.pack.pack_b(bv, 0, 0, k, n, plan.blocking.nr, ctx.btilde(),
                     ctx.bcol());
      if (ra == nullptr) {
        ks.pack.pack_a(av, 0, 0, m, k, plan.blocking.mr, ctx.atilde(0),
                       ctx.arow());
      }
    }

    // Transient-surface strikes: corrupt the packed bytes after every
    // checksum input has been derived from them (bcol/cr/bc at pack,
    // arow/cc at pack) but before the macro kernel consumes them.  Live
    // bytes only — the quad-padding bytes multiply against zero rows and
    // would be undetectable by construction.  A~ is struck only when it is
    // this call's scratch, never a zero-copy resident slab.
    strike_transient_panel(mem_injector, MemorySurface::kPanelB, ctx.btilde(),
                           1, n, k, plan.blocking.nr, ks.pack.b_index);
    if (apanel == ctx.atilde(0)) {
      strike_transient_panel(mem_injector, MemorySurface::kPanelA,
                             ctx.atilde(0), 1, m, k, plan.blocking.mr,
                             ks.pack.a_index);
    }

    run_macro_block_i8<FT>(ks, m, n, k, apanel, ctx.btilde(), ctx.cq(), m,
                           FT ? ctx.crref_part(0) : nullptr,
                           FT ? ctx.ccref() : nullptr);

    if (injector != nullptr) {
      std::vector<InjectionRecord> planned;
      const BlockContext bctx{0, 0, 0, m, n, 0};
      apply_planned_injections_i8<FT>(injector, bctx, planned, ctx.cq(), m,
                                      ctx, FT ? ctx.crref_part(0) : nullptr);
    }

    if constexpr (FT) {
      std::copy(ctx.crref_part(0), ctx.crref_part(0) + n, ctx.crref());
      std::vector<Mismatch> rows, cols;
      find_mismatches_i64(ctx.cc(), ctx.ccref(), m, index_t(0), rows);
      find_mismatches_i64(ctx.cr(), ctx.crref(), n, index_t(0), cols);
      locate_correct_reverify_i8(rows, cols, m, n, ctx.cq(), m, ctx, 0,
                                 correction_log, detected, corrected,
                                 uncorrectable);
      ++panels_run;
    }
  }

  dequantize_epilogue_i8(ctx.cq(), m, m, 0, n, k, ctx.arow(), ctx.bcol(), qp,
                         alpha, beta, c, ldc, degenerate);

  report.panels = FT ? panels_run : int(degenerate ? 0 : 1);
  report.errors_detected = detected;
  report.errors_corrected = corrected;
  report.uncorrectable_panels = uncorrectable;
  report.elapsed_seconds = timer.seconds();
  return report;
}

/// Execute a planned int8 (FT-)GEMM.  Shape, transposes, kernels, blocking
/// and topology come from `plan`; `qp` carries the call's quantization
/// parameters (an operand value, like alpha/beta — no plan fingerprint
/// covers it); `ra` (may be null) is a resident pre-packed pre-encoded A
/// payload for this exact (operand, plan).
template <bool FT>
FtReport execute_i8(const GemmPlan<std::int8_t, std::int32_t>& plan,
                    float alpha, const std::int8_t* a, index_t lda,
                    const std::int8_t* b, index_t ldb, float beta, float* c,
                    index_t ldc, const QuantParams& qp,
                    FaultInjector* injector,
                    std::vector<CorrectionRecord>* correction_log,
                    GemmContext<std::int8_t, std::int32_t>& ctx,
                    const ResidentAPayload<std::int8_t, std::int32_t>* ra =
                        nullptr,
                    MemoryFaultInjector* mem_injector = nullptr) {
  FtReport report;
  const PlanKey& key = plan.key;
  const index_t m = key.m, n = key.n, k = key.k;
  if (m <= 0 || n <= 0) return report;

  if (plan.fast_path) {
    return execute_small_i8<FT>(plan, alpha, a, lda, b, ldb, beta, c, ldc,
                                qp, injector, correction_log, ctx, ra,
                                mem_injector);
  }

  const WallTimer timer;
  const KernelSet<std::int8_t, std::int32_t>& ks = plan.kernels;
  const BlockingPlan& bp = plan.blocking;
  const int nt = plan.threads;
  const bool degenerate = plan.k_zero || alpha == 0.0f;

  if (injector != nullptr)
    injector->begin_call(m, n, k, int(std::max<index_t>(plan.num_panels, 1)));

  ctx.ensure(plan);

  const OperandView<std::int8_t> av{a, lda, key.ta == Trans::kTrans};
  const OperandView<std::int8_t> bv{b, ldb, key.tb == Trans::kTrans};

  // Shared across the parallel region.
  std::vector<std::vector<Mismatch>> row_mm(static_cast<std::size_t>(nt));
  std::vector<std::vector<Mismatch>> col_mm(static_cast<std::size_t>(nt));
  std::int64_t detected = 0;
  std::int64_t corrected = 0;
  int uncorrectable = 0;
  int panels_run = 0;

  const auto team_body = [&](runtime::TeamMember& tm) {
    const int tid = tm.tid();
    std::vector<InjectionRecord> planned;

    // M-partition of cq (and A) for this thread, aligned to MR so only the
    // global edge produces partial register tiles.
    index_t ms = 0, mlen = 0;
    partition_units(m, bp.mr, nt, tid, ms, mlen);
    // Static N-partition used for zeroing, reductions, checksum scans and
    // the epilogue (columns of cq are contiguous: ldq = m).
    index_t js_red = 0, jlen_red = 0;
    partition_units(n, 1, nt, tid, js_red, jlen_red);
    // Static K-partition for the Ar encode (disjoint writes — exact, so no
    // per-thread partials or reduction are needed, unlike the float path).
    index_t ks_red = 0, klen_red = 0;
    partition_units(k, 1, nt, tid, ks_red, klen_red);

    // ---- Encode phase: zero the accumulator and side vectors; Ar. ----
    if (!degenerate) {
      if (jlen_red > 0) {
        std::fill(ctx.cq() + std::size_t(js_red) * std::size_t(m),
                  ctx.cq() + std::size_t(js_red + jlen_red) * std::size_t(m),
                  0);
        std::fill(ctx.bcol() + js_red, ctx.bcol() + js_red + jlen_red, 0);
      }
      if (mlen > 0) {
        std::fill(ctx.arow() + ms, ctx.arow() + ms + mlen, 0);
        if (ra != nullptr) {
          // The resident integrity row sums ARE the epilogue's arow (see
          // execute_small_i8); pack_a is skipped entirely on hits.
          std::copy(ra->rowchk.data() + ms, ra->rowchk.data() + ms + mlen,
                    ctx.arow() + ms);
        }
      }
      if constexpr (FT) {
        if (mlen > 0)
          std::fill(ctx.cc() + ms, ctx.cc() + ms + mlen, std::int64_t(0));
        if (jlen_red > 0)
          std::fill(ctx.cr() + js_red, ctx.cr() + js_red + jlen_red,
                    std::int64_t(0));
        if (klen_red > 0) {
          if (ra != nullptr) {
            std::copy(ra->ar.data() + ks_red,
                      ra->ar.data() + ks_red + klen_red, ctx.ar() + ks_red);
          } else {
            std::fill(ctx.ar() + ks_red, ctx.ar() + ks_red + klen_red, 0);
            ks.pack.encode_ar(av, 0, m, ks_red, klen_red, ctx.ar() + ks_red);
          }
        }
      }
      tm.barrier();
    }

    // ---- Panel loop: one rank-KC update + verification per iteration. ----
    if (!degenerate) {
      int panel = 0;
      for (index_t p = 0; p < k; p += bp.kc, ++panel) {
        const index_t pinc = std::min(bp.kc, k - p);

        if constexpr (FT) {
          // Reference checksums cover exactly this panel's cq values.
          if (mlen > 0)
            std::fill(ctx.ccref() + ms, ctx.ccref() + ms + mlen,
                      std::int64_t(0));
          std::fill(ctx.crref_part(tid), ctx.crref_part(tid) + n,
                    std::int64_t(0));
        }

        for (index_t jc = 0; jc < n; jc += bp.nc) {
          const index_t jinc = std::min(bp.nc, n - jc);

          // Cooperative packing of B~ along N (unit NR so panel boundaries
          // land on micro-panel boundaries).
          index_t js = 0, jlen = 0;
          partition_units(jinc, bp.nr, nt, tid, js, jlen);
          if (jlen > 0) {
            std::int8_t* bt =
                ctx.btilde() + (js / bp.nr) * i8_tile_bytes(pinc, bp.nr);
            if constexpr (FT) {
              ks.pack.pack_b_ft(bv, p, jc + js, pinc, jlen, bp.nr, bt,
                                ctx.bcol(), ctx.ar() + p, ctx.cr());
            } else {
              ks.pack.pack_b(bv, p, jc + js, pinc, jlen, bp.nr, bt,
                             ctx.bcol());
            }
          }
          tm.barrier();
          if constexpr (FT) {
            // Bc derivation from the freshly packed, cache-resident B~,
            // K-partitioned (assigning disjoint slices — exact).
            index_t kks = 0, kklen = 0;
            partition_units(pinc, 1, nt, tid, kks, kklen);
            if (kklen > 0) {
              ks.pack.reduce_bc(ctx.btilde(), pinc, jinc, bp.nr, kks, kklen,
                                ctx.bc());
            }
            tm.barrier();
          }

          // Transient B~ strike: corrupt the shared packed bytes after
          // bcol/cr (pack) and bc (reduce) were derived from them, before
          // any kernel consumes them.  Single member — mem_injector is
          // uniform across the team, so everyone takes the implicit
          // trailing barrier.  Live bytes only (quad padding multiplies
          // zero rows and is undetectable by construction).
          if (mem_injector != nullptr) {
            tm.single([&] {
              strike_transient_panel(mem_injector, MemorySurface::kPanelB,
                                     ctx.btilde(), 1, jinc, pinc, bp.nr,
                                     ks.pack.b_index);
            });  // trailing team barrier
          }

          // Macro loop over this thread's rows.
          for (index_t ic = 0; ic < mlen; ic += bp.mc) {
            const index_t ilen = std::min(bp.mc, mlen - ic);
            // Resident hit: slice this thread's (ic) slab out of the
            // payload's whole-M panel — ms and ic are both MR-aligned, so
            // the slab starts on a tile boundary at the exact bytes a cold
            // pack_a would have written into atilde (consumed zero-copy;
            // the panel already holds the biased u8 bytes).
            const std::uint8_t* apanel = ctx.atilde(tid);
            if (ra != nullptr) {
              apanel = reinterpret_cast<const std::uint8_t*>(
                           ra->panel_at(p)) +
                       ((ms + ic) / bp.mr) * i8_tile_bytes(pinc, bp.mr);
            }
            if constexpr (FT) {
              if (ra != nullptr) {
                // Replay the fused Cc update the skipped pack_a_ft would
                // have accumulated for this (jc, ic) block.
                ks.pack.encode_cc(apanel, ilen, pinc, bp.mr, ctx.bc(),
                                  ctx.cc() + ms + ic);
              } else {
                // arow must see each (row, panel) region exactly once:
                // only the jc == 0 pass may accumulate it (A~ is repacked
                // with identical bytes for every jc block).
                ks.pack.pack_a_ft(av, ms + ic, p, ilen, pinc, bp.mr,
                                  ctx.atilde(tid),
                                  jc == 0 ? ctx.arow() : nullptr, ctx.bc(),
                                  ctx.cc());
              }
            } else {
              if (ra == nullptr) {
                ks.pack.pack_a(av, ms + ic, p, ilen, pinc, bp.mr,
                               ctx.atilde(tid),
                               jc == 0 ? ctx.arow() : nullptr);
              }
            }

            // Transient A~ strike: this thread's private scratch only,
            // after arow/cc were encoded from the clean bytes — never a
            // zero-copy resident slab (that is kResidentPanel's surface,
            // and poisoning it would outlive the call).  Pinned to member
            // 0 so an armed one-shot injector's strike placement is not a
            // which-thread-packed-first scheduling race.
            if (mem_injector != nullptr && tid == 0 &&
                apanel == ctx.atilde(tid)) {
              strike_transient_panel(mem_injector, MemorySurface::kPanelA,
                                     ctx.atilde(tid), 1, ilen, pinc, bp.mr,
                                     ks.pack.a_index);
            }

            run_macro_block_i8<FT>(ks, ilen, jinc, pinc, apanel,
                                   ctx.btilde(),
                                   ctx.cq() + (ms + ic) + jc * m, m,
                                   FT ? ctx.crref_part(tid) + jc : nullptr,
                                   FT ? ctx.ccref() + ms + ic : nullptr);

            if (injector != nullptr) {
              const BlockContext bctx{panel, ms + ic, jc, ilen, jinc, tid};
              apply_planned_injections_i8<FT>(
                  injector, bctx, planned, ctx.cq(), m, ctx,
                  FT ? ctx.crref_part(tid) : nullptr);
            }
          }
          tm.barrier();  // B~ chunk complete before it is repacked
        }

        if constexpr (FT) {
          // Reduce per-thread Cr references, then scan for mismatches in
          // parallel (rows over the M-partition, columns over N) — exact
          // int64 equality, no tolerance refresh step exists on this path.
          for (index_t j = js_red; j < js_red + jlen_red; ++j) {
            std::int64_t sum = 0;
            for (int t = 0; t < nt; ++t) sum += ctx.crref_part(t)[j];
            ctx.crref()[j] = sum;
          }
          row_mm[std::size_t(tid)].clear();
          col_mm[std::size_t(tid)].clear();
          if (mlen > 0) {
            find_mismatches_i64(ctx.cc() + ms, ctx.ccref() + ms, mlen, ms,
                                row_mm[std::size_t(tid)]);
          }
          tm.barrier();
          if (jlen_red > 0) {
            find_mismatches_i64(ctx.cr() + js_red, ctx.crref() + js_red,
                                jlen_red, js_red, col_mm[std::size_t(tid)]);
          }
          tm.barrier();
          tm.single([&] {
            std::vector<Mismatch> rows, cols;
            for (int t = 0; t < nt; ++t) {
              rows.insert(rows.end(), row_mm[std::size_t(t)].begin(),
                          row_mm[std::size_t(t)].end());
              cols.insert(cols.end(), col_mm[std::size_t(t)].begin(),
                          col_mm[std::size_t(t)].end());
            }
            locate_correct_reverify_i8(rows, cols, m, n, ctx.cq(), m, ctx,
                                       panel, correction_log, detected,
                                       corrected, uncorrectable);
            ++panels_run;
          });  // trailing team barrier
        }
      }
    }

    // ---- Dequantize epilogue: one pass over this thread's column range of
    // the finished accumulator into the caller's C.  Every thread arrives
    // here synchronized (the final panel's trailing barrier / the encode
    // barrier on the degenerate path), so all of cq/arow/bcol is final.
    dequantize_epilogue_i8(ctx.cq(), m, m, js_red, jlen_red, k, ctx.arow(),
                           ctx.bcol(), qp, alpha, beta, c, ldc, degenerate);
  };
  runtime::run_team(plan.runtime, nt, team_body);

  report.panels = FT ? panels_run : int(degenerate ? 0 : plan.num_panels);
  report.errors_detected = detected;
  report.errors_corrected = corrected;
  report.uncorrectable_panels = uncorrectable;
  report.elapsed_seconds = timer.seconds();
  return report;
}

}  // namespace ftgemm::detail
