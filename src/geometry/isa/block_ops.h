#ifndef HDIDX_GEOMETRY_ISA_BLOCK_OPS_H_
#define HDIDX_GEOMETRY_ISA_BLOCK_OPS_H_

#include <cstddef>
#include <cstdint>

#include "geometry/kernels.h"

namespace hdidx::geometry::kernels::isa {

/// Per-ISA implementations of the block primitives every dispatching kernel
/// entry point is built from. The slab and row ops process exactly
/// BoxSlab::kBlock candidate lanes; the query-tile op processes kQueryTile
/// query lanes. Every op must be bit-identical to the scalar oracle: lanes
/// are whole candidates (or whole queries), SIMD runs *across* lanes, and
/// every per-lane reduction accumulates in scalar dimension order in double
/// with no FMA contraction. Early exits may fire at different block/lane
/// granularity per ISA — they only ever skip work that is provably a no-op
/// (sums of squares are monotone), so results never depend on the cadence.
///
/// Padding lanes carry the BoxSlab sentinel (lo=+inf, hi=-inf): their
/// accumulated distance is +inf and their overlap test fails, so an op may
/// include them in all-lanes early-exit votes without changing any result.
struct BlockOps {
  /// Accumulates SquaredMinDist(center, lane) for the kBlock lanes at
  /// `base` into acc[0..kBlock), early-exiting once every lane's partial
  /// sum exceeds `threshold` at the shared (d & 7) == 7 cadence. Returns
  /// false on abandonment (acc contents unspecified), true with every
  /// lane's full sum otherwise.
  bool (*sphere_block)(const float* center, const BoxSlab& slab, size_t base,
                       double threshold, double* acc);

  /// alive[l] = whether slab lane base+l intersects the query box
  /// [query_lo, query_hi] (BoundingBox::Intersects semantics), for kBlock
  /// lanes. May stop refining once every lane is dead.
  void (*box_block)(const float* query_lo, const float* query_hi,
                    const BoxSlab& slab, size_t base, bool* alive);

  /// acc[l] = SquaredL2(query, row l) for the kBlock row-major rows
  /// starting at `rows` (the caller pre-offsets to the block's first row),
  /// with the same threshold/early-exit contract as sphere_block. A +inf
  /// threshold never abandons.
  bool (*row_block)(const float* query, const float* rows, size_t dim,
                    double threshold, double* acc);

  /// The multi-query k-NN scan step. `tile` holds kQueryTile queries as
  /// `dim` 64-byte-aligned planes of kQueryTile doubles: tile[d * kQueryTile
  /// + l] = double(query l's coordinate d). Streams the row-major rows
  /// [row, n) in order; for each row it accumulates (double(p[d]) -
  /// tile[d][l])^2 in dimension order for every lane at once.
  ///
  /// Lanes run in fixed groups (one SIMD register each). After every 8
  /// dimensions, and after the last, a group is abandoned once every lane
  /// in it has a partial sum > thresholds[l] (ordered compare: a NaN partial
  /// or threshold never abandons); an abandoned group stops accumulating.
  /// Sums of squares only grow, so each abandoned lane's push would have
  /// been a no-op. Returns the first row with a group left, with acc[l] the
  /// full squared distance of every lane whose bit is set in *live, or n
  /// when every remaining row was abandoned. The caller pushes the live
  /// lanes, refreshes `thresholds`, and resumes at the next row. Unused
  /// lanes carry threshold -inf, so they always vote to abandon.
  size_t (*query_tile_scan)(const double* tile, const float* rows, size_t row,
                            size_t n, size_t dim, const double* thresholds,
                            double* acc, uint32_t* live);
};

/// The portable query_tile_scan body. Exposed so lanes that have no tuned
/// version of the op (NEON) share it instead of duplicating it.
size_t GenericQueryTileScan(const double* tile, const float* rows, size_t row,
                            size_t n, size_t dim, const double* thresholds,
                            double* acc, uint32_t* live);

/// Portable batched implementation (plain C++, compiler-autovectorized).
/// Always available; never returns null.
const BlockOps* GenericOps();

/// Explicit-ISA tables. Each returns null when its translation unit was not
/// compiled for the target architecture (the TU self-guards on the arch +
/// feature macros its per-file -m flags define); runtime CPU capability is
/// checked separately by KernelModeSupported().
const BlockOps* Avx2Ops();
const BlockOps* Avx512Ops();
const BlockOps* NeonOps();

}  // namespace hdidx::geometry::kernels::isa

#endif  // HDIDX_GEOMETRY_ISA_BLOCK_OPS_H_
