// AVX2 lanes for the kernel block primitives. This TU is compiled with
// -mavx2 -ffp-contract=off (see src/CMakeLists.txt) and self-guards: on any
// other target it compiles to just the null accessor, so the build never
// needs per-arch source lists.
//
// Bit-identity notes (shared with the scalar oracle in kernels.cc):
//  - std::max(a, b) returns a on NaN and on ties; x86 maxpd(src1, src2)
//    returns src2 on NaN and on ties. Hence std::max(a, b) == maxpd(b, a),
//    which fixes the operand order of every _mm256_max_pd below.
//  - mul then add, never FMA: contraction would change rounding.
//  - _CMP_GT_OQ matches scalar `>` on NaN (false), and early-exit votes may
//    include the two padding-sentinel lanes (always +inf, see block_ops.h).
#include "geometry/isa/block_ops.h"

#if defined(__x86_64__) && defined(__AVX2__)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace hdidx::geometry::kernels::isa {

namespace {

constexpr size_t kBlock = BoxSlab::kBlock;
static_assert(kBlock == 8, "AVX2 lanes assume 8-wide blocks");
static_assert(kQueryTile == 16, "the query tile is four 256-bit registers");

bool SphereBlock(const float* center, const BoxSlab& slab, size_t base,
                 double threshold, double* acc) {
  const size_t dim = slab.dim();
  const __m256d zero = _mm256_setzero_pd();
  const __m256d thresh = _mm256_set1_pd(threshold);
  __m256d acc0 = zero;
  __m256d acc1 = zero;
  for (size_t d = 0; d < dim; ++d) {
    const __m256d q = _mm256_set1_pd(static_cast<double>(center[d]));
    const float* lo = slab.lo_plane(d) + base;
    const float* hi = slab.hi_plane(d) + base;
    // Planes are 64B-aligned and base is a multiple of kBlock, so aligned
    // loads are safe (and assert the arena layout contract).
    const __m256d lo0 = _mm256_cvtps_pd(_mm_load_ps(lo));
    const __m256d lo1 = _mm256_cvtps_pd(_mm_load_ps(lo + 4));
    const __m256d hi0 = _mm256_cvtps_pd(_mm_load_ps(hi));
    const __m256d hi1 = _mm256_cvtps_pd(_mm_load_ps(hi + 4));
    // term = std::max(std::max(0.0, lo - q), q - hi)
    const __m256d t0 = _mm256_max_pd(
        _mm256_sub_pd(q, hi0),
        _mm256_max_pd(_mm256_sub_pd(lo0, q), zero));
    const __m256d t1 = _mm256_max_pd(
        _mm256_sub_pd(q, hi1),
        _mm256_max_pd(_mm256_sub_pd(lo1, q), zero));
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(t0, t0));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(t1, t1));
    if ((d & 7) == 7 && d + 1 < dim) {
      const __m256d over0 = _mm256_cmp_pd(acc0, thresh, _CMP_GT_OQ);
      const __m256d over1 = _mm256_cmp_pd(acc1, thresh, _CMP_GT_OQ);
      if (_mm256_movemask_pd(_mm256_and_pd(over0, over1)) == 0xF) {
        return false;
      }
    }
  }
  _mm256_storeu_pd(acc, acc0);
  _mm256_storeu_pd(acc + 4, acc1);
  return true;
}

void BoxBlock(const float* query_lo, const float* query_hi,
              const BoxSlab& slab, size_t base, bool* alive) {
  const size_t dim = slab.dim();
  __m256 alive_m = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
  for (size_t d = 0; d < dim; ++d) {
    const __m256 q_lo = _mm256_set1_ps(query_lo[d]);
    const __m256 q_hi = _mm256_set1_ps(query_hi[d]);
    const __m256 lo = _mm256_load_ps(slab.lo_plane(d) + base);
    const __m256 hi = _mm256_load_ps(slab.hi_plane(d) + base);
    const __m256 dead = _mm256_or_ps(_mm256_cmp_ps(lo, q_hi, _CMP_GT_OQ),
                                     _mm256_cmp_ps(q_lo, hi, _CMP_GT_OQ));
    alive_m = _mm256_andnot_ps(dead, alive_m);
    if ((d & 7) == 7 && d + 1 < dim) {
      if (_mm256_movemask_ps(alive_m) == 0) break;
    }
  }
  const int mask = _mm256_movemask_ps(alive_m);
  for (size_t l = 0; l < kBlock; ++l) alive[l] = ((mask >> l) & 1) != 0;
}

bool RowBlock(const float* query, const float* rows, size_t dim,
              double threshold, double* acc) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d thresh = _mm256_set1_pd(threshold);
  __m256d acc0 = zero;
  __m256d acc1 = zero;
  for (size_t d = 0; d < dim; ++d) {
    const __m256d q = _mm256_set1_pd(static_cast<double>(query[d]));
    const float* p = rows + d;
    // Rows are row-major, so lane l's coordinate sits at stride l * dim.
    const __m128 f0 =
        _mm_set_ps(p[3 * dim], p[2 * dim], p[1 * dim], p[0]);
    const __m128 f1 =
        _mm_set_ps(p[7 * dim], p[6 * dim], p[5 * dim], p[4 * dim]);
    const __m256d d0 = _mm256_sub_pd(_mm256_cvtps_pd(f0), q);
    const __m256d d1 = _mm256_sub_pd(_mm256_cvtps_pd(f1), q);
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
    if ((d & 7) == 7 && d + 1 < dim) {
      const __m256d over0 = _mm256_cmp_pd(acc0, thresh, _CMP_GT_OQ);
      const __m256d over1 = _mm256_cmp_pd(acc1, thresh, _CMP_GT_OQ);
      if (_mm256_movemask_pd(_mm256_and_pd(over0, over1)) == 0xF) {
        return false;
      }
    }
  }
  _mm256_storeu_pd(acc, acc0);
  _mm256_storeu_pd(acc + 4, acc1);
  return true;
}

/// acc += (r - q)^2 per lane, r broadcast from one row coordinate.
inline __m256d AddSquaredDiff(__m256d acc, __m256d r, const double* q) {
  const __m256d diff = _mm256_sub_pd(r, _mm256_load_pd(q));
  return _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
}

// Four groups of 4 lanes, one register each; a live group's accumulation
// never depends on whether another group is still live.
size_t QueryTileScan(const double* tile, const float* rows, size_t row,
                     size_t n, size_t dim, const double* thresholds,
                     double* acc, uint32_t* live) {
  constexpr size_t kGroups = kQueryTile / 4;
  __m256d thresh[kGroups];
  for (size_t g = 0; g < kGroups; ++g) {
    thresh[g] = _mm256_loadu_pd(thresholds + 4 * g);
  }
  for (; row < n; ++row) {
    const float* p = rows + row * dim;
    __m256d sums[kGroups];
    bool group_live[kGroups];
    for (size_t g = 0; g < kGroups; ++g) {
      sums[g] = _mm256_setzero_pd();
      group_live[g] = true;
    }
    bool any_live = true;
    for (size_t d0 = 0; d0 < dim && any_live; d0 += 8) {
      const size_t d_end = d0 + 8 < dim ? d0 + 8 : dim;
      // One row coordinate against every live query: the row is read once
      // per tile, not once per query.
      if (group_live[0] && group_live[1] && group_live[2] && group_live[3]) {
        for (size_t d = d0; d < d_end; ++d) {
          const __m256d r = _mm256_set1_pd(static_cast<double>(p[d]));
          const double* q = tile + d * kQueryTile;
          for (size_t g = 0; g < kGroups; ++g) {
            sums[g] = AddSquaredDiff(sums[g], r, q + 4 * g);
          }
        }
      } else {
        for (size_t g = 0; g < kGroups; ++g) {
          if (!group_live[g]) continue;
          for (size_t d = d0; d < d_end; ++d) {
            const __m256d r = _mm256_set1_pd(static_cast<double>(p[d]));
            sums[g] = AddSquaredDiff(sums[g], r, tile + d * kQueryTile + 4 * g);
          }
        }
      }
      any_live = false;
      for (size_t g = 0; g < kGroups; ++g) {
        group_live[g] =
            group_live[g] &&
            _mm256_movemask_pd(_mm256_cmp_pd(sums[g], thresh[g],
                                             _CMP_GT_OQ)) != 0xF;
        any_live |= group_live[g];
      }
    }
    if (any_live) {
      uint32_t mask = 0;
      for (size_t g = 0; g < kGroups; ++g) {
        _mm256_storeu_pd(acc + 4 * g, sums[g]);
        if (group_live[g]) mask |= 0xFu << (4 * g);
      }
      *live = mask;
      return row;
    }
  }
  return n;
}

constexpr BlockOps kAvx2Ops = {&SphereBlock, &BoxBlock, &RowBlock,
                               &QueryTileScan};

}  // namespace

const BlockOps* Avx2Ops() { return &kAvx2Ops; }

}  // namespace hdidx::geometry::kernels::isa

#else  // !(__x86_64__ && __AVX2__)

namespace hdidx::geometry::kernels::isa {
const BlockOps* Avx2Ops() { return nullptr; }
}  // namespace hdidx::geometry::kernels::isa

#endif
