// AVX-512 lanes for the kernel block primitives, compiled with -mavx512f
// -ffp-contract=off (fp-contract matters here: AVX-512F brings FMA, and a
// contracted mul+add would change rounding vs the scalar oracle). One
// 512-bit register covers the whole 8-lane block for the double-precision
// reductions; the float32 overlap test stays 256-bit (8 floats), reusing
// the AVX2 shapes, which -mavx512f implies.
//
// maxpd operand-order and NaN notes are in block_ops_avx2.cc; AVX-512
// vmaxpd keeps the same (src1 > src2) ? src1 : src2, NaN -> src2 rule.
//
// Widening and max go through their zero-masked forms with an all-lanes
// mask (_mm512_maskz_cvtps_pd(0xFF, .), _mm512_maskz_max_pd(0xFF, ., .)):
// the same instructions and results, but GCC's unmasked wrappers pass
// _mm512_undefined_pd() as the merge source, which -Wmaybe-uninitialized
// reports (and -Werror turns into a build failure).
#include "geometry/isa/block_ops.h"

#if defined(__x86_64__) && defined(__AVX512F__)

#include <immintrin.h>

#include <cstddef>

namespace hdidx::geometry::kernels::isa {

namespace {

constexpr size_t kBlock = BoxSlab::kBlock;
static_assert(kBlock == 8, "AVX-512 lanes assume 8-wide blocks");
static_assert(kQueryTile == 16, "the query tile is two 512-bit registers");

constexpr __mmask8 kAll = 0xFF;

bool SphereBlock(const float* center, const BoxSlab& slab, size_t base,
                 double threshold, double* acc) {
  const size_t dim = slab.dim();
  const __m512d zero = _mm512_setzero_pd();
  const __m512d thresh = _mm512_set1_pd(threshold);
  __m512d acc_v = zero;
  for (size_t d = 0; d < dim; ++d) {
    const __m512d q = _mm512_set1_pd(static_cast<double>(center[d]));
    const __m512d lo =
        _mm512_maskz_cvtps_pd(kAll, _mm256_load_ps(slab.lo_plane(d) + base));
    const __m512d hi =
        _mm512_maskz_cvtps_pd(kAll, _mm256_load_ps(slab.hi_plane(d) + base));
    // term = std::max(std::max(0.0, lo - q), q - hi)
    const __m512d t = _mm512_maskz_max_pd(
        kAll, _mm512_sub_pd(q, hi),
        _mm512_maskz_max_pd(kAll, _mm512_sub_pd(lo, q), zero));
    acc_v = _mm512_add_pd(acc_v, _mm512_mul_pd(t, t));
    if ((d & 7) == 7 && d + 1 < dim) {
      if (_mm512_cmp_pd_mask(acc_v, thresh, _CMP_GT_OQ) == 0xFF) {
        return false;
      }
    }
  }
  _mm512_storeu_pd(acc, acc_v);
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
  const __m512d thresh = _mm512_set1_pd(threshold);
  __m512d acc_v = _mm512_setzero_pd();
  for (size_t d = 0; d < dim; ++d) {
    const __m512d q = _mm512_set1_pd(static_cast<double>(query[d]));
    const float* p = rows + d;
    const __m128 f0 =
        _mm_set_ps(p[3 * dim], p[2 * dim], p[1 * dim], p[0]);
    const __m128 f1 =
        _mm_set_ps(p[7 * dim], p[6 * dim], p[5 * dim], p[4 * dim]);
    const __m512d r = _mm512_maskz_cvtps_pd(kAll, _mm256_set_m128(f1, f0));
    const __m512d diff = _mm512_sub_pd(r, q);
    acc_v = _mm512_add_pd(acc_v, _mm512_mul_pd(diff, diff));
    if ((d & 7) == 7 && d + 1 < dim) {
      if (_mm512_cmp_pd_mask(acc_v, thresh, _CMP_GT_OQ) == 0xFF) {
        return false;
      }
    }
  }
  _mm512_storeu_pd(acc, acc_v);
  return true;
}

/// acc += (r - q)^2 per lane, r broadcast from one row coordinate.
inline __m512d AddSquaredDiff(__m512d acc, __m512d r, const double* q) {
  const __m512d diff = _mm512_sub_pd(r, _mm512_load_pd(q));
  return _mm512_add_pd(acc, _mm512_mul_pd(diff, diff));
}

inline bool AllOver(__m512d acc, __m512d thresh) {
  return _mm512_cmp_pd_mask(acc, thresh, _CMP_GT_OQ) == kAll;
}

// Two groups of 8 lanes, one register each; a live group's accumulation
// never depends on whether the other group is still live.
size_t QueryTileScan(const double* tile, const float* rows, size_t row,
                     size_t n, size_t dim, const double* thresholds,
                     double* acc, uint32_t* live) {
  const __m512d thresh0 = _mm512_loadu_pd(thresholds);
  const __m512d thresh1 = _mm512_loadu_pd(thresholds + 8);
  for (; row < n; ++row) {
    const float* p = rows + row * dim;
    __m512d acc0 = _mm512_setzero_pd();
    __m512d acc1 = _mm512_setzero_pd();
    bool live0 = true;
    bool live1 = true;
    for (size_t d0 = 0; d0 < dim && (live0 || live1); d0 += 8) {
      const size_t d_end = d0 + 8 < dim ? d0 + 8 : dim;
      // One row coordinate against every live query: the row is read once
      // per tile, not once per query.
      if (live0 && live1) {
        for (size_t d = d0; d < d_end; ++d) {
          const __m512d r = _mm512_set1_pd(static_cast<double>(p[d]));
          acc0 = AddSquaredDiff(acc0, r, tile + d * kQueryTile);
          acc1 = AddSquaredDiff(acc1, r, tile + d * kQueryTile + 8);
        }
      } else {
        const size_t offset = live0 ? 0 : 8;
        __m512d sums = live0 ? acc0 : acc1;
        for (size_t d = d0; d < d_end; ++d) {
          const __m512d r = _mm512_set1_pd(static_cast<double>(p[d]));
          sums = AddSquaredDiff(sums, r, tile + d * kQueryTile + offset);
        }
        (live0 ? acc0 : acc1) = sums;
      }
      live0 = live0 && !AllOver(acc0, thresh0);
      live1 = live1 && !AllOver(acc1, thresh1);
    }
    if (live0 || live1) {
      _mm512_storeu_pd(acc, acc0);
      _mm512_storeu_pd(acc + 8, acc1);
      *live = (live0 ? 0x00FFu : 0u) | (live1 ? 0xFF00u : 0u);
      return row;
    }
  }
  return n;
}

constexpr BlockOps kAvx512Ops = {&SphereBlock, &BoxBlock, &RowBlock,
                                 &QueryTileScan};

}  // namespace

const BlockOps* Avx512Ops() { return &kAvx512Ops; }

}  // namespace hdidx::geometry::kernels::isa

#else  // !(__x86_64__ && __AVX512F__)

namespace hdidx::geometry::kernels::isa {
const BlockOps* Avx512Ops() { return nullptr; }
}  // namespace hdidx::geometry::kernels::isa

#endif
