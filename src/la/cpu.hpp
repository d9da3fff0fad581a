// Runtime CPU feature test shared by the kernels that carry an AVX2 clone.
//
// The default build targets baseline x86-64 (SSE2). Hot kernels keep one
// always-inline body, instantiate it once more under [[gnu::target("avx2")]]
// and pick the clone at runtime with cpu_has_avx2(). The clones deliberately
// omit "fma": a fused multiply-add rounds once where the baseline rounds
// twice, so contraction would break bit-exactness between the two.
#pragma once

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define XG_X86_DISPATCH 1

namespace xg::la {

/// True if this CPU executes AVX2; evaluated once per process.
inline bool cpu_has_avx2() {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
}

}  // namespace xg::la
#endif
