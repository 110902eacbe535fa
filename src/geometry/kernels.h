#ifndef HDIDX_GEOMETRY_KERNELS_H_
#define HDIDX_GEOMETRY_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/thread_annotations.h"
#include "geometry/bounding_box.h"

namespace hdidx::geometry::kernels {

/// Which implementation the dispatching kernel entry points run.
///
/// kScalar is the retained reference oracle: one candidate at a time,
/// exactly the loops the library shipped with. Every other mode evaluates
/// one query against many candidates at once (or, in TiledKthDistanceScan,
/// one row against many queries), vectorizing *across* candidates or
/// queries — never within a single distance reduction — so every
/// individual distance keeps the scalar accumulation order and every
/// count, radius, and assignment is bit-identical to the scalar mode.
/// Early exits only ever use the fact that adding a non-negative term to a
/// non-negative IEEE double is monotone, so abandoning a candidate whose
/// partial sum already exceeds the decision threshold cannot change any
/// decision.
///
/// kGeneric is the portable batched implementation (plain C++, compiler
/// autovectorized — PR 5's "batched" mode). kAvx2/kAvx512/kNeon are
/// explicit-intrinsic lanes in src/geometry/isa/, available only when both
/// the build targets the architecture and the running CPU reports the
/// feature; requesting an unavailable one downgrades (never UB), see
/// ResolveKernelMode().
enum class KernelMode {
  kScalar = 0,
  kGeneric = 1,
  kAvx2 = 2,
  kAvx512 = 3,
  kNeon = 4,
};

/// Number of enumerators in KernelMode (for sweeps).
inline constexpr size_t kNumKernelModes = 5;

/// Whether `mode` can run on this build + CPU (compile-target support and
/// runtime feature detection). kScalar and kGeneric are always supported.
bool KernelModeSupported(KernelMode mode);

/// `mode` if supported, else its deterministic downgrade: kAvx512 falls to
/// kAvx2 then kGeneric; kAvx2 and kNeon fall to kGeneric. The result is
/// always supported.
KernelMode ResolveKernelMode(KernelMode mode);

/// The widest supported mode on this host (never kScalar: kGeneric when no
/// explicit ISA is available).
KernelMode BestKernelMode();

/// All supported modes, deterministic order: kScalar, kGeneric, then any
/// explicit ISAs. The sweep set for equivalence tests and benches.
std::vector<KernelMode> SupportedKernelModes();

/// Stable lowercase name ("scalar", "generic", "avx2", "avx512", "neon") —
/// the accepted HDIDX_KERNEL values.
std::string_view KernelModeName(KernelMode mode);

/// Parses a mode name. Recognized names (plus the legacy alias "batched"
/// for kGeneric) return true and store the named mode, unresolved — the
/// caller decides whether to downgrade. Unknown names return false and
/// store BestKernelMode(), the deterministic fallback ActiveKernelMode()
/// warns about.
bool ParseKernelMode(std::string_view name, KernelMode* mode);

/// The mode the dispatching kernels run in: the process-wide override if one
/// is set (tests/benches), else the HDIDX_KERNEL environment variable (read
/// once; unknown values warn on stderr once and fall back), else
/// BestKernelMode(). Always returns a supported mode — requests for
/// unavailable ISAs resolve through ResolveKernelMode().
KernelMode ActiveKernelMode();

/// Process-wide mode override (A/B tests compare modes in one process).
/// Thread-safe; flip only between queries, not during one.
void SetKernelMode(KernelMode mode);

/// Removes the override, falling back to HDIDX_KERNEL / the default.
void ClearKernelModeOverride();

/// Sentinel for ScanOptions::exclude_row: exclude nothing.
inline constexpr size_t kNoRow = static_cast<size_t>(-1);

/// Structure-of-arrays layout over a set of MBRs: for every dimension d a
/// contiguous plane of lo values and a plane of hi values across all boxes,
/// padded to a multiple of kPlaneStride lanes so kernels process fixed-width
/// blocks without tail branches and every plane starts on a cacheline
/// boundary.
///
/// Storage lives in a common::Arena — either one passed in (a tree placing
/// its directory slabs next to its nodes) or an internally owned one — so
/// planes are 64-byte-aligned and contiguous rather than scattered
/// per-vector heap blocks. The slab writes its planes at build time on the
/// calling thread (first touch), and is immutable afterwards; it is movable
/// but not copyable, like the arena backing it.
///
/// Padding lanes and empty boxes store the sentinel (lo=+inf, hi=-inf):
/// any query coordinate is "outside" by an infinite margin, so their
/// accumulated distance is +inf — exactly SquaredMinDist's value for an
/// empty box — and a box-overlap test fails in every dimension. Padding
/// lanes are additionally excluded from all results by index bound.
class BoxSlab {
 public:
  /// Lanes per kernel block; the padded size is a multiple of this.
  static constexpr size_t kBlock = 8;
  /// Plane padding granularity: 16 floats = one 64-byte cacheline, so
  /// every lo/hi plane is cacheline-aligned inside the arena block.
  static constexpr size_t kPlaneStride = 16;

  /// An empty slab (size() == 0). Dispatching call sites use this as the
  /// "no slab built" placeholder on the scalar path.
  BoxSlab() = default;

  BoxSlab(const BoxSlab&) = delete;
  BoxSlab& operator=(const BoxSlab&) = delete;
  BoxSlab(BoxSlab&&) = default;
  BoxSlab& operator=(BoxSlab&&) = default;

  /// Builds the slab over `boxes` (all of equal dimensionality) into
  /// `arena`, or into an internally owned arena when null.
  HDIDX_BUILD_ONLY explicit BoxSlab(std::span<const BoundingBox> boxes,
                                    common::Arena* arena = nullptr);

  /// Builds the slab over boxes reached through pointers (used by tree
  /// nodes, whose child boxes are not contiguous in memory).
  HDIDX_BUILD_ONLY explicit BoxSlab(std::span<const BoundingBox* const> boxes,
                                    common::Arena* arena = nullptr);

  /// Number of real boxes.
  size_t size() const { return size_; }
  /// Dimensionality (0 for an empty slab).
  size_t dim() const { return dim_; }
  /// size() rounded up to a multiple of kPlaneStride.
  size_t padded_size() const { return padded_; }

  /// Plane of lo (resp. hi) coordinates of dimension `d` across all
  /// padded_size() lanes. 64-byte-aligned.
  const float* lo_plane(size_t d) const { return lo_ + d * padded_; }
  const float* hi_plane(size_t d) const { return hi_ + d * padded_; }

 private:
  HDIDX_BUILD_ONLY void Fill(size_t count, size_t dim,
                             const BoundingBox& (*get)(const void*, size_t),
                             const void* ctx, common::Arena* arena);

  size_t size_ = 0;
  size_t dim_ = 0;
  size_t padded_ = 0;
  float* lo_ = nullptr;  // dim_ planes of padded_ floats each, arena-owned
  float* hi_ = nullptr;
  common::Arena owned_;  // backs lo_/hi_ when no external arena was given
};

/// Number of slab boxes whose SquaredMinDist to `center` is <= r2 — i.e.
/// how many page MBRs a query sphere with squared radius r2 intersects.
/// Decision-identical to testing SquaredMinDist(center, box) <= r2 per box
/// (empty boxes count only when r2 is +inf, matching their infinite
/// SquaredMinDist). The batched paths abandon a block once every lane's
/// partial sum exceeds r2.
HDIDX_CONCURRENT_READ size_t CountSphereHits(std::span<const float> center,
                                             double r2, const BoxSlab& slab);
HDIDX_CONCURRENT_READ size_t CountSphereHits(std::span<const float> center,
                                             double r2, const BoxSlab& slab,
                                             KernelMode mode);

/// Appends (in ascending order) the indices of slab boxes whose
/// SquaredMinDist to `center` is <= r2. The mask variant of CountSphereHits,
/// used by tree traversals that must recurse into the hit children.
HDIDX_CONCURRENT_READ void AppendSphereHits(std::span<const float> center,
                                            double r2, const BoxSlab& slab,
                                            std::vector<uint32_t>* hits);
HDIDX_CONCURRENT_READ void AppendSphereHits(std::span<const float> center,
                                            double r2, const BoxSlab& slab,
                                            std::vector<uint32_t>* hits,
                                            KernelMode mode);

/// Number of slab boxes intersecting `query` (BoundingBox::Intersects
/// semantics: empty boxes intersect nothing).
HDIDX_CONCURRENT_READ size_t CountBoxHits(const BoundingBox& query,
                                          const BoxSlab& slab);
HDIDX_CONCURRENT_READ size_t CountBoxHits(const BoundingBox& query,
                                          const BoxSlab& slab,
                                          KernelMode mode);

/// Index of the first slab box attaining the minimal SquaredMinDist to
/// `point` (ties broken towards the lowest index; containment — distance
/// exactly 0 — short-circuits). Empty boxes are infinitely far and are
/// never chosen unless every box is empty (then index 0). Requires
/// slab.size() > 0.
HDIDX_CONCURRENT_READ size_t NearestBox(std::span<const float> point,
                                        const BoxSlab& slab);
HDIDX_CONCURRENT_READ size_t NearestBox(std::span<const float> point,
                                        const BoxSlab& slab, KernelMode mode);

/// out[i] = SquaredL2(query, rows[i]) for `count` row-major rows, each
/// accumulated in the scalar dimension order (bit-identical to per-row
/// SquaredL2).
HDIDX_CONCURRENT_READ void BatchedSquaredL2(std::span<const float> query,
                                            const float* rows, size_t count,
                                            size_t dim, double* out);
HDIDX_CONCURRENT_READ void BatchedSquaredL2(std::span<const float> query,
                                            const float* rows, size_t count,
                                            size_t dim, double* out,
                                            KernelMode mode);

/// Row-exclusion rules shared by the k-NN scan kernels; mirrors the three
/// scalar loops the kernels replace.
struct ScanOptions {
  /// This row is skipped (kNoRow: none). With exclude_row_only_if_zero the
  /// row is only skipped when its squared distance is <= 0 — the accounted
  /// workload scan's "exclude the query itself, keep duplicates" rule.
  size_t exclude_row = kNoRow;
  bool exclude_row_only_if_zero = false;
  /// Rows at squared distance <= this are skipped (ExactKthDistance's
  /// exclusion band). The default excludes nothing.
  double exclude_within_sq = -std::numeric_limits<double>::infinity();
};

/// k-th smallest squared L2 distance from `query` to the n = rows.size() /
/// dim row-major rows that pass `opts` (+inf when fewer than k qualify).
/// Heap semantics and accumulation order match the scalar KnnHeap loop
/// exactly; the batched paths abandon a row once its partial sum exceeds
/// the current k-th threshold (a no-op push either way).
HDIDX_CONCURRENT_READ double KthDistanceScan(std::span<const float> query,
                                             std::span<const float> rows,
                                             size_t dim, size_t k,
                                             const ScanOptions& opts);
HDIDX_CONCURRENT_READ double KthDistanceScan(std::span<const float> query,
                                             std::span<const float> rows,
                                             size_t dim, size_t k,
                                             const ScanOptions& opts,
                                             KernelMode mode);

/// Queries per tile of TiledKthDistanceScan: two 512-bit (four 256-bit)
/// registers of doubles, and one 128-byte tile plane per dimension.
inline constexpr size_t kQueryTile = 16;

/// A batch of k-NN queries for TiledKthDistanceScan: `points` holds the
/// queries row-major, query i excludes row exclude_rows[i] (kNoRow: none)
/// under `exclude_row_only_if_zero` (ScanOptions' rules).
struct QueryBatch {
  std::span<const float> points;
  std::span<const size_t> exclude_rows;
  bool exclude_row_only_if_zero = false;

  size_t size() const { return exclude_rows.size(); }
};

/// A permutation of the batch's query indices whose consecutive runs of
/// kQueryTile are the tiles TiledKthDistanceScan should scan together.
/// Near queries share a tile, so rows far from all of them are abandoned
/// early. Greedy and deterministic: each tile is the lowest-index query not
/// yet placed plus its kQueryTile - 1 nearest unplaced queries (ties towards
/// lower indices), chosen within consecutive windows of 16 tiles so the
/// cost stays linear in the batch size. Only the order of work depends on
/// it; every radius is the same for any permutation.
std::vector<size_t> GroupQueriesIntoTiles(std::span<const float> points,
                                          size_t dim);

/// out[i] = KthDistanceScan(query i, rows, dim, k, opts_i) bit for bit, for
/// every query index i in `order` (other slots of `out` are not touched),
/// where opts_i holds query i's exclusion rule from `batch`.
///
/// kScalar runs the per-query oracle loop. Every other mode takes the
/// queries kQueryTile at a time in `order`, transposes each tile into
/// dimension-major double planes, and streams the rows once per tile
/// instead of once per query: a row is loaded once and its distance to all
/// tile queries accumulates at once, each in dimension order. A group of
/// lanes stops accumulating a row only when every lane in it has a partial
/// sum above that query's own heap threshold, so every skipped push is a
/// no-op; every other distance goes through the same bounded-heap push as
/// the oracle.
HDIDX_CONCURRENT_READ void TiledKthDistanceScan(const QueryBatch& batch,
                                                std::span<const size_t> order,
                                                std::span<const float> rows,
                                                size_t dim, size_t k,
                                                std::span<double> out);
HDIDX_CONCURRENT_READ void TiledKthDistanceScan(const QueryBatch& batch,
                                                std::span<const size_t> order,
                                                std::span<const float> rows,
                                                size_t dim, size_t k,
                                                std::span<double> out,
                                                KernelMode mode);

/// The k nearest rows as (squared distance, row) pairs in ascending order
/// (ties towards the lower row index — identical to partial_sort over all
/// pairs). Fewer than k pairs when fewer rows qualify.
HDIDX_CONCURRENT_READ std::vector<std::pair<double, size_t>> TopKNeighborScan(
    std::span<const float> query, std::span<const float> rows, size_t dim,
    size_t k, const ScanOptions& opts);
HDIDX_CONCURRENT_READ std::vector<std::pair<double, size_t>> TopKNeighborScan(
    std::span<const float> query, std::span<const float> rows, size_t dim,
    size_t k, const ScanOptions& opts, KernelMode mode);

}  // namespace hdidx::geometry::kernels

#endif  // HDIDX_GEOMETRY_KERNELS_H_
