#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "geometry/isa/block_ops.h"

namespace hdidx::geometry::kernels::isa {

namespace {

constexpr size_t kBlock = BoxSlab::kBlock;

/// The per-dimension MINDIST term, branchless: max(0, lo - q, q - hi) as
/// doubles. The std::max argument order makes a NaN coordinate yield 0
/// exactly like both scalar branches failing.
inline double MinDistTerm(double q, float lo, float hi) {
  return std::max(std::max(0.0, static_cast<double>(lo) - q),
                  q - static_cast<double>(hi));
}

bool SphereBlock(const float* center, const BoxSlab& slab, size_t base,
                 double threshold, double* acc) {
  const size_t dim = slab.dim();
  for (size_t l = 0; l < kBlock; ++l) acc[l] = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const double q = center[d];
    const float* lo = slab.lo_plane(d) + base;
    const float* hi = slab.hi_plane(d) + base;
    for (size_t l = 0; l < kBlock; ++l) {
      const double diff = MinDistTerm(q, lo[l], hi[l]);
      acc[l] += diff * diff;
    }
    if ((d & 7) == 7 && d + 1 < dim) {
      bool all_over = true;
      for (size_t l = 0; l < kBlock; ++l) all_over &= acc[l] > threshold;
      if (all_over) return false;
    }
  }
  return true;
}

void BoxBlock(const float* query_lo, const float* query_hi,
              const BoxSlab& slab, size_t base, bool* alive) {
  const size_t dim = slab.dim();
  for (size_t l = 0; l < kBlock; ++l) alive[l] = true;
  for (size_t d = 0; d < dim; ++d) {
    const float q_lo = query_lo[d];
    const float q_hi = query_hi[d];
    const float* lo = slab.lo_plane(d) + base;
    const float* hi = slab.hi_plane(d) + base;
    for (size_t l = 0; l < kBlock; ++l) {
      alive[l] = alive[l] && !(lo[l] > q_hi || q_lo > hi[l]);
    }
    if ((d & 7) == 7 && d + 1 < dim) {
      bool any = false;
      for (size_t l = 0; l < kBlock; ++l) any |= alive[l];
      if (!any) return;
    }
  }
}

bool RowBlock(const float* query, const float* rows, size_t dim,
              double threshold, double* acc) {
  for (size_t l = 0; l < kBlock; ++l) acc[l] = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const double q = query[d];
    const float* p = rows + d;
    for (size_t l = 0; l < kBlock; ++l) {
      const double diff = static_cast<double>(p[l * dim]) - q;
      acc[l] += diff * diff;
    }
    if ((d & 7) == 7 && d + 1 < dim) {
      bool all_over = true;
      for (size_t l = 0; l < kBlock; ++l) all_over &= acc[l] > threshold;
      if (all_over) return false;
    }
  }
  return true;
}

constexpr BlockOps kGenericOps = {&SphereBlock, &BoxBlock, &RowBlock,
                                  &GenericQueryTileScan};

}  // namespace

size_t GenericQueryTileScan(const double* tile, const float* rows, size_t row,
                            size_t n, size_t dim, const double* thresholds,
                            double* acc, uint32_t* live) {
  // Groups of 4 lanes: narrow enough to abandon often, wide enough for the
  // compiler to vectorize each group's update.
  constexpr size_t kGroup = 4;
  constexpr size_t kGroups = kQueryTile / kGroup;
  for (; row < n; ++row) {
    const float* p = rows + row * dim;
    for (size_t l = 0; l < kQueryTile; ++l) acc[l] = 0.0;
    bool group_live[kGroups];
    for (size_t g = 0; g < kGroups; ++g) group_live[g] = true;
    bool any_live = true;
    for (size_t d0 = 0; d0 < dim && any_live; d0 += 8) {
      const size_t d_end = std::min(dim, d0 + 8);
      any_live = false;
      for (size_t g = 0; g < kGroups; ++g) {
        if (!group_live[g]) continue;
        double* sums = acc + g * kGroup;
        for (size_t d = d0; d < d_end; ++d) {
          const double r = p[d];
          const double* q = tile + d * kQueryTile + g * kGroup;
          for (size_t l = 0; l < kGroup; ++l) {
            const double diff = r - q[l];
            sums[l] += diff * diff;
          }
        }
        bool all_over = true;
        for (size_t l = 0; l < kGroup; ++l) {
          all_over &= sums[l] > thresholds[g * kGroup + l];
        }
        group_live[g] = !all_over;
        any_live |= group_live[g];
      }
    }
    if (any_live) {
      uint32_t mask = 0;
      for (size_t g = 0; g < kGroups; ++g) {
        if (group_live[g]) mask |= 0xFu << (g * kGroup);
      }
      *live = mask;
      return row;
    }
  }
  return n;
}

const BlockOps* GenericOps() { return &kGenericOps; }

}  // namespace hdidx::geometry::kernels::isa
