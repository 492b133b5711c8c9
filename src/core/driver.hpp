// The (FT-)GEMM executor: a faithful implementation of Fig. 1 of the paper,
// split into plan and execute phases (see core/plan.hpp).
//
// One template, two instantiations per element type:
//   FT = false : the "Ori" high-performance GEMM (packing + cache blocking
//                + SIMD micro-kernels),
//   FT = true  : FT-GEMM with the fused ABFT scheme of §2.2/§2.3.
//
// execute() is a *pure executor*: every decision — ISA, kernel set, blocking,
// thread topology, tolerance factor, fast-path selection — was made by the
// planner and arrives frozen in the GemmPlan.  The only data-dependent
// branch taken here is the alpha == 0 degeneracy, which depends on an
// operand value no plan fingerprint covers.
//
// The O(n^2) packing and checksum-encode layer is reached exclusively
// through the plan's kernel set (plan.kernels.pack — the ISA-dispatched
// PackSet): SIMD packing is bit-identical to the scalar templates, the
// fused checksum sums are lane-reassociated within the ToleranceModel
// bound (docs/DESIGN.md, "SIMD packing & checksum engine").
//
// Thread topology (§2.3): the thread team (runtime/team.hpp — persistent
// worker pool or OpenMP region, frozen into the plan) partitions C along the
// M-dimension; B~ is one buffer shared by all members and packed
// cooperatively along the N-dimension (with a cross-thread reduction for the
// panel checksum Bc); each member packs its own private A~.  The executor is
// runtime-agnostic: it sees only TeamMember's tid/nt/barrier/single, and a
// member's rank fully determines its partition and reduction position, so
// results are bit-identical across backends at equal nt.  Running with
// threads = 1 *is* the serial algorithm — no separate code path exists, so
// serial and parallel results are produced by the same verified code.
//
// The planner's small-GEMM fast path (plan.fast_path) takes execute_small
// instead: the whole problem fits a single macro-tile, so B~ and A~ are each
// packed exactly once by one thread, with no parallel region, no partition
// bookkeeping, no barriers, and no per-call reduction scratch — the dominant
// costs of the general path at serving-style sizes.  The arithmetic, packing
// layout and summation order are identical to the general path at nt = 1,
// so results (Ori and FT) are bit-identical.
//
// Verification happens once per rank-KC panel ("p-loop: verify" in Fig. 1):
// every element of C is updated exactly once per panel, so the reference
// checksums accumulated inside the micro-kernels equal full row/column sums
// of the current C, directly comparable with the predicted checksums.
#pragma once

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <vector>

#include "abft/checksum.hpp"
#include "abft/tolerance.hpp"
#include "abft/verifier.hpp"
#include "arch/isa.hpp"
#include "blocking/plan.hpp"
#include "core/context.hpp"
#include "core/operand_cache.hpp"
#include "core/options.hpp"
#include "core/plan.hpp"
#include "kernels/macro_kernel.hpp"
#include "kernels/microkernel.hpp"
#include "kernels/packing.hpp"
#include "runtime/team.hpp"
#include "util/timer.hpp"

namespace ftgemm::detail {

/// Resolve the row-major case onto the column-major core (a row-major
/// matrix viewed column-major with the same ld is its transpose, so
///   C_rm = op(A)·op(B)   ⇔   C_cmᵀ = op(B)·op(A) with operands swapped).
/// Shared by the single-problem and batched dispatchers; `APtr` abstracts
/// over `const T*` and the batched `const T* const*` operand arrays.
template <typename APtr>
void normalize_layout(Layout layout, Trans& ta, Trans& tb, index_t& m,
                      index_t& n, APtr& a, index_t& lda, APtr& b,
                      index_t& ldb) {
  if (layout == Layout::kRowMajor) {
    std::swap(ta, tb);
    std::swap(m, n);
    std::swap(a, b);
    std::swap(lda, ldb);
  }
}

/// Split `total` into `parts` contiguous chunks aligned to `unit`
/// (chunk boundaries fall on multiples of `unit`; the last chunk absorbs
/// the remainder).  Empty chunks are expressed as len = 0.
inline void partition_units(index_t total, index_t unit, int parts, int idx,
                            index_t& off, index_t& len) {
  const index_t blocks = (total + unit - 1) / unit;
  const index_t per = blocks / parts;
  const index_t rem = blocks % parts;
  const index_t my_blocks = per + (idx < rem ? 1 : 0);
  const index_t first = idx * per + std::min<index_t>(idx, rem);
  off = std::min(first * unit, total);
  len = std::min(my_blocks * unit, total - off);
}

/// Locate/correct the errors behind the found checksum mismatches, then
/// re-verify the touched rows and columns with exact sums over C and repeat
/// if needed.  One round suffices for ordinary errors; corrections whose
/// delta estimate was degraded by catastrophic rounding (an exponent bit
/// flip dwarfing the entire row sum) converge in two.  Single-threaded:
/// the general path calls it from an `omp single` section, the fast path
/// directly.  `rows`/`cols` are consumed as scratch.
template <typename T, typename S = T>
inline void locate_correct_reverify(
    std::vector<Mismatch>& rows, std::vector<Mismatch>& cols,
    const ToleranceModel<T>& tol, index_t m, index_t n, T* c, index_t ldc,
    GemmContext<S, T>& ctx, int panel,
    std::vector<CorrectionRecord>* correction_log, std::int64_t& detected,
    std::int64_t& corrected, int& uncorrectable) {
  if (rows.empty() && cols.empty()) return;
  bool failed = false;
  std::vector<index_t> touched_rows, touched_cols;
  constexpr int kMaxRounds = 4;
  for (int round = 0;; ++round) {
    const double slack = std::max(tol.cc_tau, tol.cr_tau) *
                         double(2 + rows.size() + cols.size());
    const SolveOutcome outcome = solve_error_assignment(rows, cols, slack);
    if (!outcome.solved) {
      if (round == 0) {
        detected += std::int64_t(std::max(rows.size(), cols.size()));
      }
      failed = true;
      break;
    }
    for (const LocatedError& err : outcome.errors) {
      c[err.row + err.col * ldc] -= T(err.delta);
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
    // Exact re-verification of everything we touched.
    std::sort(touched_rows.begin(), touched_rows.end());
    touched_rows.erase(std::unique(touched_rows.begin(), touched_rows.end()),
                       touched_rows.end());
    std::sort(touched_cols.begin(), touched_cols.end());
    touched_cols.erase(std::unique(touched_cols.begin(), touched_cols.end()),
                       touched_cols.end());
    rows.clear();
    cols.clear();
    for (const index_t i : touched_rows) {
      T sum = T(0);
      for (index_t j = 0; j < n; ++j) sum += c[i + j * ldc];
      const double d = double(sum) - double(ctx.cc()[i]);
      if (std::abs(d) > tol.cc_tau) rows.push_back({i, d});
    }
    for (const index_t j : touched_cols) {
      T sum = T(0);
      for (index_t i = 0; i < m; ++i) sum += c[i + j * ldc];
      const double d = double(sum) - double(ctx.cr()[j]);
      if (std::abs(d) > tol.cr_tau) cols.push_back({j, d});
    }
    if (rows.empty() && cols.empty()) break;  // converged
    if (round + 1 >= kMaxRounds) {
      failed = true;
      break;
    }
  }
  if (failed) ++uncorrectable;
}

/// Apply the corruptions an injector planned for one macro block, emulating
/// an in-kernel fault: the register-level reference checksums would have
/// seen the corrupted value too.  `crref_lane` is the executing thread's
/// lane-strided Cr reference partial.
template <typename T, bool FT, typename S = T>
inline void apply_planned_injections(FaultInjector* injector,
                                     const BlockContext& bctx,
                                     std::vector<InjectionRecord>& planned,
                                     T* c, index_t ldc,
                                     GemmContext<S, T>& ctx, T* crref_lane,
                                     index_t lanes) {
  planned.clear();
  injector->plan_block(bctx, planned);
  for (InjectionRecord rec : planned) {
    T& value = c[rec.i + rec.j * ldc];
    const double applied = apply_corruption(value, rec);
    if constexpr (FT) {
      ctx.ccref()[rec.i] += T(applied);
      crref_lane[rec.j * lanes] += T(applied);
    }
    rec.delta = applied;
    injector->record(rec);
  }
}

/// Strike a transient packed panel between pack and consume (the kPanelA /
/// kPanelB memory surfaces): the fault lands after every checksum predicted
/// from the panel was derived, so the rank-KC panel verification must catch
/// whatever the macro kernels compute from the corrupted bytes.  The surface
/// is the `rows` x `klen` live elements of the block, in row-major ordinal
/// order; the pack set's layout map `index` (w-wide panels) places each one
/// in `buf`, whose elements are `elem_bytes` wide — flips in zero padding
/// would be undetectable and harmless, so padding is not part of the
/// surface.
inline void strike_transient_panel(MemoryFaultInjector* mem,
                                   MemorySurface surface, void* buf,
                                   int elem_bytes, index_t rows, index_t klen,
                                   index_t w, PanelIndexFn index) {
  if (mem == nullptr || rows <= 0 || klen <= 0) return;
  const MemoryStrikeContext mctx{
      surface, std::size_t(rows) * std::size_t(klen), 8 * elem_bytes};
  std::vector<PanelFlip> flips;
  mem->plan_flips(mctx, flips);
  if (flips.empty()) return;
  auto* bytes = static_cast<unsigned char*>(buf);
  for (const PanelFlip& f : flips) {
    const index_t e = index(index_t(f.elem / std::size_t(klen)),
                            index_t(f.elem % std::size_t(klen)), klen, w);
    bytes[std::size_t(e) * std::size_t(elem_bytes) + std::size_t(f.bit) / 8] ^=
        static_cast<unsigned char>(1u << (f.bit % 8));
  }
  mem->record_applied(flips.size());
}

/// Single-macro-tile direct path (plan.fast_path): serial, packed-once, no
/// parallel region, no partition/barrier machinery, no per-call reduction
/// scratch.  Bit-identical to the general path (FT checksums still fused).
///
/// `ra` (may be null) is a resident pre-packed pre-encoded A payload for
/// this exact (operand, plan): the pack_a/encode_ar work is skipped and the
/// fused Cc update is replayed from the resident panel with the packer's own
/// accumulation structure (PackSet::encode_cc), so the result stays
/// bit-identical to the cold path.
template <typename S, bool FT, typename C = S>
FtReport execute_small(const GemmPlan<S, C>& plan, C alpha, const S* a,
                       index_t lda, const S* b, index_t ldb, C beta, C* c,
                       index_t ldc, FaultInjector* injector,
                       std::vector<CorrectionRecord>* correction_log,
                       GemmContext<S, C>& ctx,
                       const ResidentAPayload<S, C>* ra = nullptr,
                       MemoryFaultInjector* mem_injector = nullptr) {
  using T = C;  // every buffer/accumulator below is compute-precision
  FtReport report;
  const WallTimer timer;
  const PlanKey& key = plan.key;
  const index_t m = key.m, n = key.n, k = key.k;
  const KernelSet<S, C>& ks = plan.kernels;
  const index_t lanes = ks.cr_lanes;
  const bool degenerate = plan.k_zero || alpha == T(0);

  if (injector != nullptr) injector->begin_call(m, n, k, 1);
  ctx.ensure(plan);

  const OperandView<S> av{a, lda, key.ta == Trans::kTrans};
  const OperandView<S> bv{b, ldb, key.tb == Trans::kTrans};

  // ---- Encode phase (one pass over C fused with beta-scaling, one over A).
  double amax_a = 0.0, amax_b = 0.0, amax_c = 0.0;
  if constexpr (FT) {
    std::fill(ctx.cc(), ctx.cc() + m, T(0));
    std::fill(ctx.crref_part(0), ctx.crref_part(0) + n, T(0));
    amax_c = ks.pack.scale_encode_c(c, ldc, index_t(0), m, n, beta, ctx.cc(),
                                    ctx.crref_part(0));
    if (ra != nullptr) {
      // Resident hit: Ar and amax(A) were encoded when the payload was
      // filled, in this exact reduction order.
      std::copy(ra->ar.data(), ra->ar.data() + k, ctx.ar());
      amax_a = ra->amax_a;
    } else {
      std::fill(ctx.ar_part(0), ctx.ar_part(0) + k, T(0));
      amax_a = ks.pack.encode_ar(av, index_t(0), m, k, alpha, ctx.ar_part(0));
      // The general path's cross-thread reductions collapse to copies at one
      // thread (a sum of a single term), keeping results bit-identical.
      std::copy(ctx.ar_part(0), ctx.ar_part(0) + k, ctx.ar());
    }
    std::copy(ctx.crref_part(0), ctx.crref_part(0) + n, ctx.cr());
  } else {
    scale_c(c, ldc, index_t(0), m, n, beta);
  }

  std::int64_t detected = 0, corrected = 0;
  int uncorrectable = 0;
  int panels_run = 0;

  if (!degenerate) {
    // ---- The single rank-K panel: pack B~ once, pack A~ once, one macro
    // block, verify.
    // A fast-path plan always has kc >= k, so a resident payload is a
    // single panel starting at k-offset 0.  Uniform payloads are consumed
    // zero-copy; narrow-storage payloads hold raw storage bits and are
    // widened (alpha applied, one fp32 rounding — bit-identical to the cold
    // convert-on-pack) into this call's atilde.
    // Narrow-panel sets (AMX) store the payload in the very layout they
    // consume, alpha-free: zero-copy as well.
    const T* apanel = ctx.atilde(0);
    if (ra != nullptr) {
      if constexpr (std::is_same_v<S, C>) {
        apanel = ra->panel_at(0);
      } else if (ks.pack.narrow_panels) {
        apanel = reinterpret_cast<const T*>(ra->panel_at(0));
      } else {
        ks.pack.widen_a(ra->panel_at(0), m, k, plan.blocking.mr, alpha,
                        ctx.atilde(0));
      }
    }
    if constexpr (FT) {
      std::fill(ctx.ccref(), ctx.ccref() + m, T(0));
      std::fill(ctx.crref_part(0), ctx.crref_part(0) + n * lanes, T(0));
      ks.pack.pack_b_ft(bv, 0, 0, k, n, plan.blocking.nr, ctx.btilde(),
                        ctx.ar(), ctx.cr());
      amax_b = ks.pack.reduce_bc(ctx.btilde(), k, n, plan.blocking.nr,
                                 index_t(0), k, ctx.bc(), 0.0);
      if (ra != nullptr) {
        ks.pack.encode_cc(apanel, av.trans, m, k, plan.blocking.mr, ctx.bc(),
                          ctx.cc(), alpha);
      } else {
        ks.pack.pack_a_ft(av, 0, 0, m, k, plan.blocking.mr, alpha,
                          ctx.atilde(0), ctx.bc(), ctx.cc());
      }
    } else {
      ks.pack.pack_b(bv, 0, 0, k, n, plan.blocking.nr, ctx.btilde());
      if (ra == nullptr) {
        ks.pack.pack_a(av, 0, 0, m, k, plan.blocking.mr, alpha,
                       ctx.atilde(0));
      }
    }

    // Transient-surface strikes, between pack (all predicted checksums
    // derived) and consume.  B~ always lives in workspace; A~ only when
    // this call packed or widened it there — a zero-copy resident panel is
    // the kResidentPanel surface, struck on acquire instead.
    if (mem_injector != nullptr) {
      strike_transient_panel(mem_injector, MemorySurface::kPanelB,
                             ctx.btilde(), ks.pack.panel_elem_bytes, n, k,
                             plan.blocking.nr, ks.pack.b_index);
      if (apanel == ctx.atilde(0)) {
        strike_transient_panel(mem_injector, MemorySurface::kPanelA,
                               ctx.atilde(0), ks.pack.panel_elem_bytes, m, k,
                               plan.blocking.mr, ks.pack.a_index);
      }
    }

    run_macro_block<T, FT>(ks, m, n, k, apanel, ctx.btilde(), c, ldc,
                           FT ? ctx.crref_part(0) : nullptr,
                           FT ? ctx.ccref() : nullptr, alpha);

    if (injector != nullptr) {
      std::vector<InjectionRecord> planned;
      const BlockContext bctx{0, 0, 0, m, n, 0};
      apply_planned_injections<T, FT>(injector, bctx, planned, c, ldc, ctx,
                                      ctx.crref_part(0), lanes);
    }

    if constexpr (FT) {
      const ToleranceModel<T> tol =
          ToleranceModel<T>::compute(m, n, k, amax_a, amax_b, amax_c,
                                     double(alpha), double(beta),
                                     plan.tol_factor);
      for (index_t j = 0; j < n; ++j) {
        T sum = T(0);
        const T* part = ctx.crref_part(0) + j * lanes;
        for (index_t l = 0; l < lanes; ++l) sum += part[l];
        ctx.crref()[j] = sum;
      }
      std::vector<Mismatch> rows, cols;
      find_mismatches(ctx.cc(), ctx.ccref(), m, tol.cc_tau, index_t(0), rows);
      find_mismatches(ctx.cr(), ctx.crref(), n, tol.cr_tau, index_t(0), cols);
      locate_correct_reverify(rows, cols, tol, m, n, c, ldc, ctx, 0,
                              correction_log, detected, corrected,
                              uncorrectable);
      ++panels_run;
    }
  }

  report.panels = FT ? panels_run : int(degenerate ? 0 : 1);
  report.errors_detected = detected;
  report.errors_corrected = corrected;
  report.uncorrectable_panels = uncorrectable;
  report.elapsed_seconds = timer.seconds();
  return report;
}

/// Execute a planned (FT-)GEMM.  Shape, transposes, kernels, blocking,
/// topology and tolerance all come from `plan`; `injector`/`correction_log`
/// are per-call instrumentation sinks (may be null).  `ra` (may be null) is
/// a resident pre-packed pre-encoded A payload for this exact
/// (operand, plan) — see execute_small.
template <typename S, bool FT, typename C = S>
FtReport execute(const GemmPlan<S, C>& plan, C alpha, const S* a, index_t lda,
                 const S* b, index_t ldb, C beta, C* c, index_t ldc,
                 FaultInjector* injector,
                 std::vector<CorrectionRecord>* correction_log,
                 GemmContext<S, C>& ctx,
                 const ResidentAPayload<S, C>* ra = nullptr,
                 MemoryFaultInjector* mem_injector = nullptr) {
  using T = C;  // every buffer/accumulator below is compute-precision
  FtReport report;
  const PlanKey& key = plan.key;
  const index_t m = key.m, n = key.n, k = key.k;
  if (m <= 0 || n <= 0) return report;

  if (plan.fast_path) {
    return execute_small<S, FT, C>(plan, alpha, a, lda, b, ldb, beta, c, ldc,
                                   injector, correction_log, ctx, ra,
                                   mem_injector);
  }

  const WallTimer timer;
  const KernelSet<S, C>& ks = plan.kernels;
  const BlockingPlan& bp = plan.blocking;
  const int nt = plan.threads;
  const bool degenerate = plan.k_zero || alpha == T(0);

  if (injector != nullptr)
    injector->begin_call(m, n, k,
                         int(std::max<index_t>(plan.num_panels, 1)));

  const index_t lanes = ks.cr_lanes;
  ctx.ensure(plan);

  const OperandView<S> av{a, lda, key.ta == Trans::kTrans};
  const OperandView<S> bv{b, ldb, key.tb == Trans::kTrans};

  // Shared across the parallel region.
  std::vector<double> amax_parts(std::size_t(nt) * 3, 0.0);
  ToleranceModel<T> tol{};
  std::vector<std::vector<Mismatch>> row_mm(static_cast<std::size_t>(nt));
  std::vector<std::vector<Mismatch>> col_mm(static_cast<std::size_t>(nt));
  std::int64_t detected = 0;
  std::int64_t corrected = 0;
  int uncorrectable = 0;
  int panels_run = 0;

  const auto team_body = [&](runtime::TeamMember& tm) {
    const int tid = tm.tid();
    std::vector<InjectionRecord> planned;

    // M-partition of C (and A) for this thread, aligned to MR so only the
    // global edge produces partial register tiles.
    index_t ms = 0, mlen = 0;
    partition_units(m, bp.mr, nt, tid, ms, mlen);
    // Static N-partition used for reductions and checksum scans.
    index_t js_red = 0, jlen_red = 0;
    partition_units(n, 1, nt, tid, js_red, jlen_red);
    // Static K-partition for the Ar reduction.
    index_t ks_red = 0, klen_red = 0;
    partition_units(k, 1, nt, tid, ks_red, klen_red);

    // ---- Encode phase: C = beta*C fused with Cc/Cr encoding; Ar; amax. ----
    if constexpr (FT) {
      if (mlen > 0) std::fill(ctx.cc() + ms, ctx.cc() + ms + mlen, T(0));
      std::fill(ctx.crref_part(tid), ctx.crref_part(tid) + n, T(0));
      double amax_c = 0.0, amax_a = 0.0;
      if (ra == nullptr) {
        std::fill(ctx.ar_part(tid), ctx.ar_part(tid) + k, T(0));
      }
      if (mlen > 0) {
        amax_c = ks.pack.scale_encode_c(c, ldc, ms, mlen, n, beta, ctx.cc(),
                                        ctx.crref_part(tid));
        if (ra == nullptr) {
          amax_a =
              ks.pack.encode_ar(av, ms, mlen, k, alpha, ctx.ar_part(tid));
        }
      }
      // Resident hit: the payload carries amax(A) and the fully reduced Ar
      // (encoded at fill in this plan's per-thread partial order).
      if (ra != nullptr) amax_a = tid == 0 ? ra->amax_a : 0.0;
      amax_parts[std::size_t(tid) * 3 + 0] = amax_a;
      // amax(B) is folded into the per-panel Bc reduction sweep; slot 1
      // accumulates monotonically as panels stream through.
      amax_parts[std::size_t(tid) * 3 + 1] = 0.0;
      amax_parts[std::size_t(tid) * 3 + 2] = amax_c;
      tm.barrier();
      // Reduce the per-thread partials: Ar over a K-partition, Cr over an
      // N-partition (the encode pass stored Cr partials in crref_part).
      for (index_t p = ks_red; p < ks_red + klen_red; ++p) {
        if (ra != nullptr) {
          ctx.ar()[p] = ra->ar.data()[p];
          continue;
        }
        T sum = T(0);
        for (int t = 0; t < nt; ++t) sum += ctx.ar_part(t)[p];
        ctx.ar()[p] = sum;
      }
      for (index_t j = js_red; j < js_red + jlen_red; ++j) {
        T sum = T(0);
        for (int t = 0; t < nt; ++t) sum += ctx.crref_part(t)[j];
        ctx.cr()[j] = sum;
      }
      tm.barrier();
    } else {
      if (mlen > 0) scale_c(c, ldc, ms, mlen, n, beta);
      tm.barrier();
    }

    // ---- Panel loop: one rank-KC update + verification per iteration. ----
    if (!degenerate) {
      int panel = 0;
      for (index_t p = 0; p < k; p += bp.kc, ++panel) {
        const index_t pinc = std::min(bp.kc, k - p);

        if constexpr (FT) {
          // Reference checksums cover exactly this panel's C values.
          if (mlen > 0)
            std::fill(ctx.ccref() + ms, ctx.ccref() + ms + mlen, T(0));
          std::fill(ctx.crref_part(tid), ctx.crref_part(tid) + n * lanes,
                    T(0));
        }

        for (index_t jc = 0; jc < n; jc += bp.nc) {
          const index_t jinc = std::min(bp.nc, n - jc);

          // Cooperative packing of B~ along N (unit NR so panel boundaries
          // land on micro-panel boundaries).
          index_t js = 0, jlen = 0;
          partition_units(jinc, bp.nr, nt, tid, js, jlen);
          if constexpr (FT) {
            if (jlen > 0) {
              ks.pack.pack_b_ft(bv, p, jc + js, pinc, jlen, bp.nr,
                                ctx.btilde() + ks.pack.b_offset(js, pinc, bp.nr),
                                ctx.ar() + p, ctx.cr() + jc + js);
            }
          } else {
            if (jlen > 0) {
              ks.pack.pack_b(bv, p, jc + js, pinc, jlen, bp.nr,
                             ctx.btilde() + ks.pack.b_offset(js, pinc, bp.nr));
            }
          }
          tm.barrier();
          if constexpr (FT) {
            // Bc reduction ("an extra stage of reduction operation among
            // threads", §2.3): each thread derives its K-slice of the panel
            // checksum from the freshly packed, cache-resident B~.
            index_t kks = 0, kklen = 0;
            partition_units(pinc, 1, nt, tid, kks, kklen);
            if (kklen > 0) {
              amax_parts[std::size_t(tid) * 3 + 1] = ks.pack.reduce_bc(
                  ctx.btilde(), pinc, jinc, bp.nr, kks, kklen, ctx.bc(),
                  amax_parts[std::size_t(tid) * 3 + 1]);
            }
            tm.barrier();
          }

          // Transient B~ strike: one member mutates the shared panel after
          // every checksum predicted from it (Cr via pack_b_ft, Bc via
          // reduce_bc) and before any macro kernel consumes it.
          // mem_injector is uniform across the team, so every member takes
          // the single's implicit trailing barrier.
          if (mem_injector != nullptr) {
            tm.single([&] {
              strike_transient_panel(mem_injector, MemorySurface::kPanelB,
                                     ctx.btilde(), ks.pack.panel_elem_bytes,
                                     jinc, pinc, bp.nr, ks.pack.b_index);
            });
          }

          // Macro loop over this thread's rows.
          for (index_t ic = 0; ic < mlen; ic += bp.mc) {
            const index_t ilen = std::min(bp.mc, mlen - ic);
            // Resident hit: slice this thread's (ic) slab out of the
            // payload's whole-M panel — ms and ic are both MR-aligned, so
            // the slab starts on a tile boundary at the exact bytes a cold
            // pack_a would have written into atilde.  Widening sets' narrow
            // payloads hold raw storage bits: widen the slab (alpha
            // applied, one fp32 rounding — bit-identical to the cold
            // convert-on-pack) into this thread's private atilde instead;
            // narrow-panel sets consume the raw slab as it is.
            const T* apanel = ctx.atilde(tid);
            if (ra != nullptr) {
              const S* slab =
                  ra->panel_at(p) + ks.pack.a_index(ms + ic, 0, pinc, bp.mr);
              if constexpr (std::is_same_v<S, C>) {
                apanel = slab;
              } else if (ks.pack.narrow_panels) {
                apanel = reinterpret_cast<const T*>(slab);
              } else {
                ks.pack.widen_a(slab, ilen, pinc, bp.mr, alpha,
                                ctx.atilde(tid));
              }
            }
            if constexpr (FT) {
              if (ra != nullptr) {
                // Replay the fused Cc update the skipped pack_a_ft would
                // have accumulated for this (jc, ic) block.
                ks.pack.encode_cc(apanel, av.trans, ilen, pinc, bp.mr,
                                  ctx.bc(), ctx.cc() + ms + ic, alpha);
              } else {
                ks.pack.pack_a_ft(av, ms + ic, p, ilen, pinc, bp.mr, alpha,
                                  ctx.atilde(tid), ctx.bc(),
                                  ctx.cc() + ms + ic);
              }
            } else {
              if (ra == nullptr) {
                ks.pack.pack_a(av, ms + ic, p, ilen, pinc, bp.mr, alpha,
                               ctx.atilde(tid));
              }
            }

            // Transient A~ strike by the owning thread, only when the slab
            // was packed/widened into this thread's private workspace — a
            // zero-copy resident slab belongs to the kResidentPanel
            // surface (and corrupting it here would poison later calls).
            // Pinned to member 0: opportunity *order* must not depend on
            // which thread packs first, or an armed one-shot injector's
            // strike placement would be a scheduling race.
            if (mem_injector != nullptr && tid == 0 &&
                apanel == ctx.atilde(tid)) {
              strike_transient_panel(mem_injector, MemorySurface::kPanelA,
                                     ctx.atilde(tid), ks.pack.panel_elem_bytes,
                                     ilen, pinc, bp.mr, ks.pack.a_index);
            }

            run_macro_block<T, FT>(
                ks, ilen, jinc, pinc, apanel, ctx.btilde(),
                c + (ms + ic) + jc * ldc, ldc,
                FT ? ctx.crref_part(tid) + jc * lanes : nullptr,
                FT ? ctx.ccref() + ms + ic : nullptr, alpha);

            if (injector != nullptr) {
              const BlockContext bctx{panel, ms + ic, jc, ilen, jinc, tid};
              apply_planned_injections<T, FT>(injector, bctx, planned, c,
                                              ldc, ctx, ctx.crref_part(tid),
                                              lanes);
            }
          }
          tm.barrier();  // B~ chunk complete before it is repacked
        }

        if constexpr (FT) {
          // Refresh the verification thresholds: amax(B) now covers every
          // panel streamed so far, i.e. exactly the contributions the
          // checksums have accumulated.
          tm.single([&] {
            double amax_a_all = 0.0, amax_b_all = 0.0, amax_c_all = 0.0;
            for (int t = 0; t < nt; ++t) {
              amax_a_all =
                  std::max(amax_a_all, amax_parts[std::size_t(t) * 3]);
              amax_b_all =
                  std::max(amax_b_all, amax_parts[std::size_t(t) * 3 + 1]);
              amax_c_all =
                  std::max(amax_c_all, amax_parts[std::size_t(t) * 3 + 2]);
            }
            tol = ToleranceModel<T>::compute(m, n, k, amax_a_all, amax_b_all,
                                             amax_c_all, double(alpha),
                                             double(beta), plan.tol_factor);
          });  // trailing team barrier (the "implicit barrier" of omp single)
          // Reduce per-thread Cr references, then scan for mismatches in
          // parallel (rows over the M-partition, columns over N).
          for (index_t j = js_red; j < js_red + jlen_red; ++j) {
            T sum = T(0);
            for (int t = 0; t < nt; ++t) {
              const T* part = ctx.crref_part(t) + j * lanes;
              for (index_t l = 0; l < lanes; ++l) sum += part[l];
            }
            ctx.crref()[j] = sum;
          }
          row_mm[std::size_t(tid)].clear();
          col_mm[std::size_t(tid)].clear();
          if (mlen > 0) {
            find_mismatches(ctx.cc() + ms, ctx.ccref() + ms, mlen, tol.cc_tau,
                            ms, row_mm[std::size_t(tid)]);
          }
          tm.barrier();
          if (jlen_red > 0) {
            find_mismatches(ctx.cr() + js_red, ctx.crref() + js_red, jlen_red,
                            tol.cr_tau, js_red, col_mm[std::size_t(tid)]);
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
            locate_correct_reverify(rows, cols, tol, m, n, c, ldc, ctx,
                                    panel, correction_log, detected,
                                    corrected, uncorrectable);
            ++panels_run;
          });  // trailing team barrier
        }
      }
    }
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
