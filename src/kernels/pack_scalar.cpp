// Scalar PackSet for the packing & checksum engine (the ISA dispatch lives
// with get_kernel_set in kernel_scalar.cpp).
//
// The scalar entries simply take the addresses of the portable templates in
// kernels/packing.hpp / abft/checksum.hpp.  This translation unit is
// compiled WITHOUT any SIMD flags on purpose: the template instantiations
// bound into the scalar set here are the ones the fallback path executes on
// machines without AVX2, so they must never contain AVX encodings.  (The
// SIMD translation units reach the scalar fallback through scalar_pack_*()
// function pointers instead of instantiating the templates themselves,
// which would let the linker pick an AVX-compiled copy for everyone.)
//
// The mixed-precision sets (bf16/fp16 storage, fp32 compute) bind the same
// templates at <S, C>: the widen happens inside the pack load via C(...),
// and the checksum-side members (reduce_bc / scale_encode_c / encode_cc)
// are the plain fp32 instantiations because they only ever see ComputeT
// panels (the checksum-in-accumulator-type rule, DESIGN.md §10).
#include "abft/checksum.hpp"
#include "kernels/packing.hpp"

namespace ftgemm {

namespace {

template <typename S, typename C = S>
PackSet<S, C> make_scalar_pack() {
  PackSet<S, C> p;
  p.pack_a = &pack_a<S, C>;
  p.pack_a_ft = &pack_a_ft<S, C>;
  p.pack_b = &pack_b<S, C>;
  p.pack_b_ft = &pack_b_ft<S, C>;
  p.reduce_bc = &reduce_bc_from_panel<C>;
  p.scale_encode_c = &scale_encode_c<C>;
  p.encode_ar = &encode_ar_partial<S, C>;
  p.encode_cc = &encode_cc_from_panel<C>;
  p.pack_a_raw = &pack_a_raw<S>;
  p.widen_a = &widen_a_panel<S, C>;
  p.isa = Isa::kScalar;
  p.a_index = &mr_tile_index;
  p.b_index = &mr_tile_index;
  return p;
}

}  // namespace

PackSet<double> scalar_pack_f64() { return make_scalar_pack<double>(); }
PackSet<float> scalar_pack_f32() { return make_scalar_pack<float>(); }
PackSet<bf16_t, float> scalar_pack_bf16() {
  return make_scalar_pack<bf16_t, float>();
}
PackSet<fp16_t, float> scalar_pack_f16() {
  return make_scalar_pack<fp16_t, float>();
}

}  // namespace ftgemm
