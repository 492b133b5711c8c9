// Macro kernel: sweep an (mlen x nlen) block of C with the micro-kernel.
//
// "A macro kernel updates an MC x NC submatrix of C by iterating over A
// (MR x KC) multiplying B (KC x NR) in micro kernels" (§2.1).  Interior
// tiles go straight to the register kernels; edge tiles are computed into a
// zeroed scratch tile and merged scalar-wise (with checksum accumulation in
// the FT instantiation, so the reference checksums cover every element of C
// exactly once per panel).
#pragma once

#include <algorithm>
#include <cstring>

#include "kernels/microkernel.hpp"

namespace ftgemm {

// kMaxMr / kMaxNr (upper bounds over all kernel sets, sizing the stack
// scratch tile below) live in kernels/microkernel.hpp next to KernelSet.

/// Run the macro kernel over C(0..mlen, 0..nlen) starting at `c`.
///
/// `a_packed`: mlen rows packed in MR panels, depth kc (see pack_a).
/// `b_packed`: nlen cols packed in NR panels, depth kc (see pack_b).
/// With FT=true, `cr_ref` / `cc_ref` (indexed from this block's first
/// column / row) accumulate the reference checksums of the *final* C values;
/// cr_ref is lane-strided (ks.cr_lanes slots per column, summed at
/// verification time).  `alpha` reaches only whole-block kernels
/// (ks.macro_*), whose panels are alpha-free; the micro-kernel sweep below
/// finds alpha already packed into A~.
template <typename T, bool FT, typename S = T>
void run_macro_block(const KernelSet<S, T>& ks, index_t mlen, index_t nlen,
                     index_t kc, const T* a_packed, const T* b_packed, T* c,
                     index_t ldc, T* cr_ref, T* cc_ref, T alpha = T(1)) {
  if (ks.macro_ft != nullptr) {
    if constexpr (FT) {
      ks.macro_ft(mlen, nlen, kc, a_packed, b_packed, c, ldc, cr_ref, cc_ref,
                  alpha);
    } else {
      ks.macro_base(mlen, nlen, kc, a_packed, b_packed, c, ldc, nullptr,
                    nullptr, alpha);
    }
    return;
  }
  const index_t mr = ks.mr;
  const index_t nr = ks.nr;
  alignas(64) T tile[kMaxMr * kMaxNr];

  for (index_t jt = 0; jt < nlen; jt += nr) {
    const index_t ncols = std::min(nr, nlen - jt);
    const T* b_panel = b_packed + (jt / nr) * (nr * kc);
    for (index_t it = 0; it < mlen; it += mr) {
      const index_t nrows = std::min(mr, mlen - it);
      const T* a_panel = a_packed + (it / mr) * (mr * kc);
      T* c_tile = c + it + jt * ldc;

      if (nrows == mr && ncols == nr) {
        if constexpr (FT) {
          ks.ft(kc, a_panel, b_panel, c_tile, ldc,
                cr_ref + jt * ks.cr_lanes, cc_ref + it);
        } else {
          ks.base(kc, a_panel, b_panel, c_tile, ldc);
        }
        continue;
      }

      // Edge tile: the kernel always computes a full MR x NR update, so run
      // it on a zeroed scratch tile and merge only the valid region.
      std::memset(tile, 0, sizeof(T) * static_cast<std::size_t>(mr * nr));
      ks.base(kc, a_panel, b_panel, tile, mr);
      for (index_t jj = 0; jj < ncols; ++jj) {
        T colsum = T(0);
        for (index_t ii = 0; ii < nrows; ++ii) {
          const T v = c_tile[ii + jj * ldc] + tile[ii + jj * mr];
          c_tile[ii + jj * ldc] = v;
          if constexpr (FT) {
            colsum += v;
            cc_ref[it + ii] += v;
          }
        }
        if constexpr (FT) cr_ref[(jt + jj) * ks.cr_lanes] += colsum;
      }
    }
  }
}

}  // namespace ftgemm
