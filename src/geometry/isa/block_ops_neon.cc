// NEON (aarch64) lanes for the kernel block primitives, compiled with
// -ffp-contract=off. NEON is mandatory on aarch64, so no -m flag is needed
// and the TU guards on the architecture alone.
//
// NaN caveat vs x86: vmaxq_f64 PROPAGATES NaN, while the contract (see
// block_ops_avx2.cc) needs x86 maxpd semantics — (a > b) ? a : b with NaN
// resolving to b. MaxPd below emulates that with a greater-than compare
// plus select (vcgtq is false on NaN, so the select falls through to b).
#include "geometry/isa/block_ops.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cstddef>

namespace hdidx::geometry::kernels::isa {

namespace {

constexpr size_t kBlock = BoxSlab::kBlock;
static_assert(kBlock == 8, "NEON lanes assume 8-wide blocks");

/// (a > b) ? a : b, NaN -> b: x86 maxpd semantics, i.e. std::max(b, a).
inline float64x2_t MaxPd(float64x2_t a, float64x2_t b) {
  return vbslq_f64(vcgtq_f64(a, b), a, b);
}

/// Widens one float32x4 plane load into two float64x2 halves.
inline void Widen(const float* p, float64x2_t* out) {
  const float32x4_t f = vld1q_f32(p);
  out[0] = vcvt_f64_f32(vget_low_f32(f));
  out[1] = vcvt_high_f64_f32(f);
}

inline bool AllOver(const float64x2_t* acc_v, float64x2_t thresh) {
  uint64x2_t over = vcgtq_f64(acc_v[0], thresh);
  over = vandq_u64(over, vcgtq_f64(acc_v[1], thresh));
  over = vandq_u64(over, vcgtq_f64(acc_v[2], thresh));
  over = vandq_u64(over, vcgtq_f64(acc_v[3], thresh));
  return (vgetq_lane_u64(over, 0) & vgetq_lane_u64(over, 1)) ==
         ~static_cast<uint64_t>(0);
}

bool SphereBlock(const float* center, const BoxSlab& slab, size_t base,
                 double threshold, double* acc) {
  const size_t dim = slab.dim();
  const float64x2_t zero = vdupq_n_f64(0.0);
  const float64x2_t thresh = vdupq_n_f64(threshold);
  float64x2_t acc_v[4] = {zero, zero, zero, zero};
  for (size_t d = 0; d < dim; ++d) {
    const float64x2_t q = vdupq_n_f64(static_cast<double>(center[d]));
    float64x2_t lo[4];
    float64x2_t hi[4];
    Widen(slab.lo_plane(d) + base, lo);
    Widen(slab.lo_plane(d) + base + 4, lo + 2);
    Widen(slab.hi_plane(d) + base, hi);
    Widen(slab.hi_plane(d) + base + 4, hi + 2);
    for (size_t j = 0; j < 4; ++j) {
      // term = std::max(std::max(0.0, lo - q), q - hi)
      const float64x2_t t =
          MaxPd(vsubq_f64(q, hi[j]), MaxPd(vsubq_f64(lo[j], q), zero));
      acc_v[j] = vaddq_f64(acc_v[j], vmulq_f64(t, t));
    }
    if ((d & 7) == 7 && d + 1 < dim && AllOver(acc_v, thresh)) return false;
  }
  for (size_t j = 0; j < 4; ++j) vst1q_f64(acc + 2 * j, acc_v[j]);
  return true;
}

void BoxBlock(const float* query_lo, const float* query_hi,
              const BoxSlab& slab, size_t base, bool* alive) {
  const size_t dim = slab.dim();
  uint32x4_t alive0 = vdupq_n_u32(~0u);
  uint32x4_t alive1 = vdupq_n_u32(~0u);
  for (size_t d = 0; d < dim; ++d) {
    const float32x4_t q_lo = vdupq_n_f32(query_lo[d]);
    const float32x4_t q_hi = vdupq_n_f32(query_hi[d]);
    const float32x4_t lo0 = vld1q_f32(slab.lo_plane(d) + base);
    const float32x4_t lo1 = vld1q_f32(slab.lo_plane(d) + base + 4);
    const float32x4_t hi0 = vld1q_f32(slab.hi_plane(d) + base);
    const float32x4_t hi1 = vld1q_f32(slab.hi_plane(d) + base + 4);
    const uint32x4_t dead0 =
        vorrq_u32(vcgtq_f32(lo0, q_hi), vcgtq_f32(q_lo, hi0));
    const uint32x4_t dead1 =
        vorrq_u32(vcgtq_f32(lo1, q_hi), vcgtq_f32(q_lo, hi1));
    alive0 = vbicq_u32(alive0, dead0);
    alive1 = vbicq_u32(alive1, dead1);
    if ((d & 7) == 7 && d + 1 < dim) {
      if (vmaxvq_u32(vorrq_u32(alive0, alive1)) == 0) break;
    }
  }
  for (size_t l = 0; l < 4; ++l) {
    alive[l] = vgetq_lane_u32(alive0, 0) != 0;
    alive0 = vextq_u32(alive0, alive0, 1);
    alive[4 + l] = vgetq_lane_u32(alive1, 0) != 0;
    alive1 = vextq_u32(alive1, alive1, 1);
  }
}

bool RowBlock(const float* query, const float* rows, size_t dim,
              double threshold, double* acc) {
  const float64x2_t zero = vdupq_n_f64(0.0);
  const float64x2_t thresh = vdupq_n_f64(threshold);
  float64x2_t acc_v[4] = {zero, zero, zero, zero};
  for (size_t d = 0; d < dim; ++d) {
    const float64x2_t q = vdupq_n_f64(static_cast<double>(query[d]));
    const float* p = rows + d;
    for (size_t j = 0; j < 4; ++j) {
      float64x2_t r = vdupq_n_f64(0.0);
      r = vsetq_lane_f64(static_cast<double>(p[(2 * j) * dim]), r, 0);
      r = vsetq_lane_f64(static_cast<double>(p[(2 * j + 1) * dim]), r, 1);
      const float64x2_t diff = vsubq_f64(r, q);
      acc_v[j] = vaddq_f64(acc_v[j], vmulq_f64(diff, diff));
    }
    if ((d & 7) == 7 && d + 1 < dim && AllOver(acc_v, thresh)) return false;
  }
  for (size_t j = 0; j < 4; ++j) vst1q_f64(acc + 2 * j, acc_v[j]);
  return true;
}

// The query-tile scan has no NEON body: this TU is only cross-compiled, so
// the lane runs the portable one rather than intrinsics nothing executes.
constexpr BlockOps kNeonOps = {&SphereBlock, &BoxBlock, &RowBlock,
                               &GenericQueryTileScan};

}  // namespace

const BlockOps* NeonOps() { return &kNeonOps; }

}  // namespace hdidx::geometry::kernels::isa

#else  // !__aarch64__

namespace hdidx::geometry::kernels::isa {
const BlockOps* NeonOps() { return nullptr; }
}  // namespace hdidx::geometry::kernels::isa

#endif
