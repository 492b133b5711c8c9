#include "core/operand_cache.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <type_traits>

#include "core/context.hpp"
#include "core/driver.hpp"
#include "core/secded.hpp"
#include "inject/injector.hpp"
#include "util/env.hpp"

namespace ftgemm {

namespace {

/// FNV-1a over a bounded grid of sampled element bit patterns (corners
/// included by construction).  A cheap identity check, not a cryptographic
/// digest: mutations between grid points are invisible — the documented
/// reason resident_a is opt-in for operands the caller keeps stable.
template <typename T>
using StorageBits = std::conditional_t<
    sizeof(T) == 8, std::uint64_t,
    std::conditional_t<sizeof(T) == 4, std::uint32_t,
                       std::conditional_t<sizeof(T) == 2, std::uint16_t,
                                          std::uint8_t>>>;

template <typename T>
std::uint64_t fingerprint_operand(const T* a, index_t lda, bool trans,
                                  index_t m, index_t k) {
  using Bits = StorageBits<T>;
  constexpr index_t kGrid = 8;
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  const index_t gi = std::min(kGrid, m);
  const index_t gp = std::min(kGrid, k);
  for (index_t si = 0; si < gi; ++si) {
    const index_t i = gi == 1 ? 0 : (m - 1) * si / (gi - 1);
    for (index_t sp = 0; sp < gp; ++sp) {
      const index_t p = gp == 1 ? 0 : (k - 1) * sp / (gp - 1);
      const T v = trans ? a[p + i * lda] : a[i + p * lda];
      Bits bits;
      std::memcpy(&bits, &v, sizeof(bits));
      mix(std::uint64_t(bits));
    }
  }
  return h;
}

template <typename S, typename C>
OperandKey make_operand_key(const S* a, index_t lda, bool trans, C alpha,
                            const GemmPlan<S, C>& plan) {
  using Bits = StorageBits<C>;
  OperandKey key;
  key.ptr = reinterpret_cast<std::uintptr_t>(a);
  key.fingerprint = fingerprint_operand(a, lda, trans, plan.key.m,
                                        plan.key.k);
  key.m = plan.key.m;
  key.k = plan.key.k;
  key.lda = lda;
  key.trans = trans;
  Bits abits;
  std::memcpy(&abits, &alpha, sizeof(abits));
  key.alpha_bits = std::uint64_t(abits);
  key.isa = int(plan.isa);
  key.mr = plan.blocking.mr;
  key.kc = plan.blocking.kc;
  key.threads = plan.threads;
  return key;
}

/// One rank-KC panel through the set's panel_sums.  The pointer type comes
/// from the set: int8 sets read the biased u8 bytes their pack_a wrote.
template <typename P, typename S, typename C>
void panel_sums(void (*sums)(const P*, index_t, index_t, index_t, C*, C*),
                const S* panel, index_t tiles, index_t klen, index_t mr,
                C* rowsum, C* colsum) {
  sums(reinterpret_cast<const P*>(panel), tiles, klen, mr, rowsum, colsum);
}

/// Integrity sums over the packed panels: the plan's pack set sweeps each
/// rank-KC panel in its own fixed order, so recomputing them is
/// deterministic and the CHECK_BEFORE comparison below is a bit-exact
/// memcmp, no tolerance model.  Padding (edge-tile rows, the AMX and int8
/// depth padding) participates: a flip landing there is caught too.
template <typename S, typename C>
void integrity_sums(const ResidentAPayload<S, C>& pl, const PackSet<S, C>& pk,
                    C* rowchk, C* colchk) {
  std::fill(rowchk, rowchk + pl.tiles * pl.mr, C(0));
  std::fill(colchk, colchk + pl.k, C(0));
  for (index_t p = 0; p < pl.k; p += pl.kc) {
    panel_sums(pk.panel_sums, pl.panel_at(p), pl.tiles,
               std::min(pl.kc, pl.k - p), pl.mr, rowchk, colchk + p);
  }
}

/// Recompute the integrity sums and compare bit-exactly against the stored
/// ones.  True = resident bytes are exactly what the fill wrote.  Scratch
/// is thread-local: this runs on every verified hit, and the serving hot
/// loop must not pay a heap allocation per call.
template <typename S, typename C>
bool verify_payload(const ResidentAPayload<S, C>& pl,
                    const PackSet<S, C>& pk) {
  thread_local std::vector<C> scratch;
  const std::size_t rlen = std::size_t(pl.tiles * pl.mr);
  const std::size_t clen = std::size_t(pl.k);
  if (scratch.size() < rlen + clen) scratch.resize(rlen + clen);
  C* rowchk = scratch.data();
  C* colchk = scratch.data() + rlen;
  integrity_sums(pl, pk, rowchk, colchk);
  return std::memcmp(rowchk, pl.rowchk.data(), rlen * sizeof(C)) == 0 &&
         std::memcmp(colchk, pl.colchk.data(), clen * sizeof(C)) == 0;
}

/// Encode one payload from the source operand: pack every rank-KC panel
/// (bit-identical bytes to what the executor's cold pack_a_ft stores),
/// reduce Ar in the cold path's per-thread partial order, and fill the
/// integrity sums.
template <typename S, typename C>
void fill_payload(ResidentAPayload<S, C>& pl, const S* a, index_t lda,
                  bool trans, C alpha, const GemmPlan<S, C>& plan) {
  const index_t m = plan.key.m, k = plan.key.k;
  pl.m = m;
  pl.k = k;
  pl.mr = plan.blocking.mr;
  pl.kc = plan.blocking.kc;
  pl.trans = trans;
  pl.alpha = alpha;
  pl.tiles = (m + pl.mr - 1) / pl.mr;
  const OperandView<S> av{a, lda, trans};
  const PackSet<S, C>& pk = plan.kernels.pack;
  // Allocation follows the layout: a depth-padding layout (AMX) makes the
  // last panel longer than tiles*mr*pinc.  Full panels are never padded
  // (the planner rounds kc to the set's kc_quantum), so panel_at's
  // tiles*mr*p offsets hold.
  std::size_t panel_elems = 0;
  for (index_t p = 0; p < k; p += pl.kc) {
    panel_elems += std::size_t(
        pk.a_index(pl.tiles * pl.mr, 0, std::min(pl.kc, k - p), pl.mr));
  }
  pl.panels.reset(panel_elems);
  pl.ar.reset(std::size_t(k));
  pl.rowchk.reset(std::size_t(pl.tiles * pl.mr));
  pl.colchk.reset(std::size_t(k));

  // Packed values are pure per-element (alpha * element, zero padding), so
  // one whole-M pack per panel lays down the exact bytes any (thread, ic)
  // slab of the cold path would have packed into its private atilde.
  // Narrow storage keeps the *raw permuted bits* instead (pack_a_raw, alpha
  // not baked — half the resident footprint); the executor widens a slab
  // with PackSet::widen_a on every hit, which multiplies by alpha in the
  // same single fp32 rounding the cold convert-on-pack path performs — or,
  // for narrow-panel sets, consumes it as is (their pack_a_raw IS pack_a).
  for (index_t p = 0; p < k; p += pl.kc) {
    const index_t pinc = std::min(pl.kc, k - p);
    S* dst = pl.panels.data() + std::size_t(pl.tiles * pl.mr) * std::size_t(p);
    if constexpr (std::is_same_v<S, C>) {
      pk.pack_a(av, 0, p, m, pinc, pl.mr, alpha, dst);
    } else {
      pk.pack_a_raw(av, 0, p, m, pinc, pl.mr, dst);
    }
  }

  // Ar: emulate the executor's reduction exactly — per-thread encode over
  // the MR-aligned M-partition, summed in ascending thread order — so a hit
  // under `plan.threads` workers reads the same bits a cold call computes.
  const int nt = plan.threads;
  std::vector<C> partials(std::size_t(nt) * std::size_t(k), C(0));
  double amax = 0.0;
  for (int t = 0; t < nt; ++t) {
    index_t ms = 0, mlen = 0;
    detail::partition_units(m, pl.mr, nt, t, ms, mlen);
    if (mlen > 0) {
      amax = std::max(amax, pk.encode_ar(av, ms, mlen, k, alpha,
                                         partials.data() +
                                             std::size_t(t) * std::size_t(k)));
    }
  }
  for (index_t p = 0; p < k; ++p) {
    C sum = C(0);
    for (int t = 0; t < nt; ++t)
      sum += partials[std::size_t(t) * std::size_t(k) + std::size_t(p)];
    pl.ar[std::size_t(p)] = sum;
  }
  pl.amax_a = amax;

  integrity_sums(pl, pk, pl.rowchk.data(), pl.colchk.data());
}

/// int8 payloads break the generic encoder's assumptions — panels hold
/// *biased u8 bytes* in the depth-quad layout (kernels/kernel_int8.hpp), not
/// ComputeT elements in [kk][mr] order, and the last panel is quad-padded
/// beyond tiles*mr*k bytes when k % 4 != 0 — so they get their own fill
/// (integrity_sums is shared: the pack set's panel_sums sweeps the quad
/// layout).  The integrity row sums ARE the executor's arow vector
/// (per-packed-row u8 totals; quad padding is raw zero, contributing
/// nothing), which is why the int8 hit path copies rowchk straight into
/// ctx.arow() instead of re-deriving it.  Sums are exact integers: verify
/// stays the bit-exact memcmp, and the Ar encode needs no per-thread
/// partial-order emulation (integer addition is order-independent).
template <>
void fill_payload<std::int8_t, std::int32_t>(
    ResidentAPayload<std::int8_t, std::int32_t>& pl, const std::int8_t* a,
    index_t lda, bool trans, std::int32_t alpha,
    const GemmPlan<std::int8_t, std::int32_t>& plan) {
  const index_t m = plan.key.m, k = plan.key.k;
  pl.m = m;
  pl.k = k;
  pl.mr = plan.blocking.mr;
  pl.kc = plan.blocking.kc;
  pl.trans = trans;
  pl.alpha = alpha;  // always 1 on this path; scales live outside the cache
  pl.tiles = (m + pl.mr - 1) / pl.mr;

  // Byte-accurate panel storage: every full panel occupies exactly
  // tiles*mr*kc bytes (kc is a quad multiple, so panel_at's tiles*mr*p
  // offset is exact), but a ragged last panel is quad-padded to
  // tiles*mr*i8_kq(pinc)*4 — which exceeds the elems() = tiles*mr*k
  // estimate the generic payload geometry assumes.  elems()/bytes() then
  // understate slightly (harmless: injected flips stay inside elems() by
  // the plan_flips contract, accounting is conservative); the allocation
  // must not.
  std::size_t panel_bytes = 0;
  for (index_t p = 0; p < k; p += pl.kc) {
    const index_t pinc = std::min(pl.kc, k - p);
    panel_bytes +=
        std::size_t(pl.tiles) * std::size_t(i8_tile_bytes(pinc, pl.mr));
  }
  pl.panels.reset(panel_bytes);
  pl.ar.reset(std::size_t(k));
  pl.rowchk.reset(std::size_t(pl.tiles * pl.mr));
  pl.colchk.reset(std::size_t(k));

  const OperandView<std::int8_t> av{a, lda, trans};
  const PackSet<std::int8_t, std::int32_t>& pk = plan.kernels.pack;

  for (index_t p = 0; p < k; p += pl.kc) {
    const index_t pinc = std::min(pl.kc, k - p);
    auto* dst = reinterpret_cast<std::uint8_t*>(pl.panels.data()) +
                std::size_t(pl.tiles * pl.mr) * std::size_t(p);
    // arow sink stays null: the integrity row sums below double as arow.
    pk.pack_a(av, 0, p, m, pinc, pl.mr, dst, nullptr);
  }

  std::fill(pl.ar.data(), pl.ar.data() + k, std::int32_t(0));
  pk.encode_ar(av, 0, m, 0, k, pl.ar.data());
  pl.amax_a = 0.0;  // exact path: no tolerance model, no amax

  integrity_sums(pl, pk, pl.rowchk.data(), pl.colchk.data());
}

/// SEC-DED parity over the packed panel bytes (allocation-accurate: int8
/// payloads cover the quad-padded tail too, since its bytes feed the
/// kernels just like live ones).
template <typename S, typename C>
void ecc_encode_payload(ResidentAPayload<S, C>& pl) {
  const std::size_t nbytes = pl.panels.size() * sizeof(S);
  pl.ecc.reset(secded::parity_bytes(nbytes));
  secded::encode_buffer(
      reinterpret_cast<const unsigned char*>(pl.panels.data()), nbytes,
      pl.ecc.data());
}

}  // namespace

template <typename S, typename C>
OperandCache<S, C>::OperandCache()
    : OperandCache(
          std::size_t(std::max<long>(
              env_long("FTGEMM_OPERAND_CACHE_ENTRIES", long(kDefaultCapacity)),
              1)),
          std::size_t(std::max<long>(
              env_long("FTGEMM_OPERAND_CACHE_BYTES",
                       long(kDefaultByteCapacity)),
              1))) {}

template <typename S, typename C>
OperandCache<S, C>::OperandCache(std::size_t capacity,
                                 std::size_t byte_capacity)
    : capacity_(capacity > 0 ? capacity : 1),
      byte_capacity_(byte_capacity > 0 ? byte_capacity : 1),
      ecc_(env_long("FTGEMM_OPERAND_ECC", 0) != 0) {}

template <typename S, typename C>
void OperandCache<S, C>::evict_to_caps_locked() {
  // Keep at least the most recent entry: a single payload above the byte
  // cap must still serve the call that just encoded it.  Slot::bytes is
  // immutable, so no slot mutex is taken here (hit processing holds the
  // slot mutex only; its counters are atomics).
  while (lru_.size() > 1 &&
         (lru_.size() > capacity_ || bytes_ > byte_capacity_)) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.second->bytes;
    index_.erase(victim.first);
    lru_.pop_back();
    ++evictions_;
  }
}

template <typename S, typename C>
ResidentAcquisition<S, C> OperandCache<S, C>::acquire(
    const S* a, index_t lda, bool trans, C alpha,
    const GemmPlan<S, C>& plan, MemoryFaultInjector* mem_injector,
    bool verify) {
  ResidentAcquisition<S, C> out;
  const OperandKey key = make_operand_key(a, lda, trans, alpha, plan);

  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lk(m_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);
      slot = it->second->second;
      out.hit = true;
    } else {
      ++misses_;
    }
  }

  if (!slot) {
    // Miss: encode OUTSIDE the cache lock (O(m*k) work must not serialize
    // unrelated submitters), then publish — first inserter wins a race.
    auto payload = std::make_shared<Payload>();
    fill_payload(*payload, a, lda, trans, alpha, plan);
    if (ecc()) ecc_encode_payload(*payload);
    slot = std::make_shared<Slot>();
    slot->payload = payload;
    slot->bytes = payload->bytes();
    std::shared_ptr<Slot> adopted;
    {
      std::lock_guard<std::mutex> lk(m_);
      const auto it = index_.find(key);
      if (it != index_.end()) {
        // A concurrent submitter published the same operand first; adopt
        // its slot (both encodes are deterministic and equal), drop ours.
        lru_.splice(lru_.begin(), lru_, it->second);
        adopted = it->second->second;
      } else {
        lru_.emplace_front(key, slot);
        index_[key] = lru_.begin();
        bytes_ += slot->bytes;
        evict_to_caps_locked();
      }
    }
    if (adopted) {
      std::lock_guard<std::mutex> slot_lk(adopted->m);
      out.payload = adopted->payload;
    } else {
      out.payload = std::move(payload);
    }
    return out;
  }

  // Hit: inject planned memory faults, then (with ECC) syndrome-sweep, then
  // CHECK_BEFORE-verify and heal.  Serialized per entry so an injected flip
  // and a concurrent sweep never race on the payload bytes.
  std::lock_guard<std::mutex> slot_lk(slot->m);
  std::shared_ptr<const Payload> payload = slot->payload;
  if (mem_injector != nullptr && payload) {
    const MemoryStrikeContext mctx{MemorySurface::kResidentPanel,
                                   payload->elems(), int(8 * sizeof(S))};
    std::vector<PanelFlip> flips;
    mem_injector->plan_flips(mctx, flips);
    if (!flips.empty()) {
      // Test-only corruption of the (logically immutable) resident bytes —
      // the very event the defenses below exist to catch.
      S* data = const_cast<S*>(payload->panels.data());
      for (const PanelFlip& f : flips) {
        // plan_flips' canonicalized contract: in range, unique.
        assert(f.elem < payload->elems() &&
               std::size_t(f.bit) < 8 * sizeof(S));
        flip_value_bit(data[f.elem], f.bit);
      }
      mem_injector->record_applied(flips.size());
    }
  }
  // SEC-DED sweep: corrects any single flipped bit per 64-bit word in
  // place — no re-encode, no source-operand read.  A double-detect (or a
  // multi-bit alias that "corrected" the wrong bit) falls through to the
  // integrity re-verify, which forces the re-encode heal.
  bool ecc_uncorrectable = false;
  if (payload && payload->ecc.size() > 0) {
    auto* bytes = const_cast<unsigned char*>(
        reinterpret_cast<const unsigned char*>(payload->panels.data()));
    auto* parity = const_cast<std::uint8_t*>(payload->ecc.data());
    const secded::ScrubResult scrub = secded::scrub_buffer(
        bytes, payload->panels.size() * sizeof(S), parity);
    out.ecc_corrected = int(scrub.corrected + scrub.parity_fixed);
    ecc_uncorrectable = scrub.uncorrectable > 0;
    ecc_corrected_.fetch_add(scrub.corrected + scrub.parity_fixed,
                             std::memory_order_relaxed);
    ecc_detected_.fetch_add(scrub.uncorrectable, std::memory_order_relaxed);
  }
  if (payload && (verify || ecc_uncorrectable)) {
    if (verify) verifies_.fetch_add(1, std::memory_order_relaxed);
    const bool ok =
        !ecc_uncorrectable &&
        (!verify || verify_payload(*payload, plan.kernels.pack));
    if (!ok) {
      // Memory fault detected: re-encode from the source and swap the
      // healed payload into the slot (self-healing).  The heal restores
      // the ECC protection the old payload carried.
      auto fresh = std::make_shared<Payload>();
      fill_payload(*fresh, a, lda, trans, alpha, plan);
      if (payload->ecc.size() > 0) ecc_encode_payload(*fresh);
      slot->payload = fresh;
      payload = std::move(fresh);
      out.heals = 1;
      heals_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  out.payload = std::move(payload);
  return out;
}

template <typename S, typename C>
void OperandCache<S, C>::clear() {
  std::lock_guard<std::mutex> lk(m_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

template <typename S, typename C>
OperandCacheStats OperandCache<S, C>::stats() {
  std::lock_guard<std::mutex> lk(m_);
  OperandCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.verifies = verifies_.load(std::memory_order_relaxed);
  s.heals = heals_.load(std::memory_order_relaxed);
  s.ecc_corrected = ecc_corrected_.load(std::memory_order_relaxed);
  s.ecc_detected = ecc_detected_.load(std::memory_order_relaxed);
  s.evictions = evictions_;
  s.entries = lru_.size();
  s.bytes = bytes_;
  return s;
}

template class OperandCache<float>;
template class OperandCache<double>;
template class OperandCache<bf16_t, float>;
template class OperandCache<fp16_t, float>;
template class OperandCache<std::int8_t, std::int32_t>;

template <typename S, typename C>
ResidentOperand make_resident_a(Trans ta, Trans tb, index_t m, index_t n,
                                index_t k, C alpha, const S* a, index_t lda,
                                const Options& opts, bool ft) {
  ResidentOperand handle;
  if (m <= 0 || n <= 0 || k <= 0 || alpha == C(0) || a == nullptr)
    return handle;
  ContextCache<S, C>& cache = process_context_cache<S, C>();
  const std::shared_ptr<const GemmPlan<S, C>> plan =
      cache.plan(ta, tb, m, n, k, opts, ft);
  ResidentAcquisition<S, C> acq = cache.operands().acquire(
      a, lda, ta == Trans::kTrans, alpha, *plan, nullptr, false);
  handle.bytes_ = acq.payload ? acq.payload->bytes() : 0;
  handle.hit_ = acq.hit;
  handle.hold_ = std::move(acq.payload);
  return handle;
}

template ResidentOperand make_resident_a<float>(Trans, Trans, index_t,
                                                index_t, index_t, float,
                                                const float*, index_t,
                                                const Options&, bool);
template ResidentOperand make_resident_a<double>(Trans, Trans, index_t,
                                                 index_t, index_t, double,
                                                 const double*, index_t,
                                                 const Options&, bool);
template ResidentOperand make_resident_a<bf16_t, float>(
    Trans, Trans, index_t, index_t, index_t, float, const bf16_t*, index_t,
    const Options&, bool);
template ResidentOperand make_resident_a<fp16_t, float>(
    Trans, Trans, index_t, index_t, index_t, float, const fp16_t*, index_t,
    const Options&, bool);
template ResidentOperand make_resident_a<std::int8_t, std::int32_t>(
    Trans, Trans, index_t, index_t, index_t, std::int32_t, const std::int8_t*,
    index_t, const Options&, bool);

}  // namespace ftgemm
