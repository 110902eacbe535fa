#ifndef HDIDX_WORKLOAD_QUERY_WORKLOAD_H_
#define HDIDX_WORKLOAD_QUERY_WORKLOAD_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "common/thread_annotations.h"
#include "data/dataset.h"
#include "geometry/bounding_box.h"
#include "io/paged_file.h"

namespace hdidx::geometry::kernels {
class BoxSlab;
}  // namespace hdidx::geometry::kernels

namespace hdidx::workload {

/// A batch of query regions tested against page MBRs — the common face of
/// nearest-neighbor (sphere) and range (box) workloads. The paper's
/// prediction pipeline only ever asks one question of a query: does its
/// region intersect this page? Everything downstream of workload
/// construction (predictors, measurement) is therefore written against this
/// interface and serves both query types.
class QueryRegions {
 public:
  virtual ~QueryRegions() = default;

  /// Number of queries in the batch.
  virtual size_t size() const = 0;

  /// True iff query i's region intersects `box` — i.e. an exact search for
  /// query i would read a page with this MBR.
  HDIDX_CONCURRENT_READ virtual bool Intersects(
      size_t i, const geometry::BoundingBox& box) const = 0;

  /// Number of `boxes` query i's region intersects. `slab` is a BoxSlab the
  /// caller built over the same boxes — or an empty slab on the scalar
  /// path, in which case (and for workload types without a batched kernel)
  /// the default per-box Intersects loop runs. Overrides are
  /// decision-identical to that loop for every box.
  HDIDX_CONCURRENT_READ virtual size_t CountIntersections(
      size_t i, std::span<const geometry::BoundingBox> boxes,
      const geometry::kernels::BoxSlab& slab) const;
};

/// A density-biased k-NN query workload: q query points drawn uniformly from
/// the dataset itself (so dense regions receive proportionally more
/// queries, Section 4.2) together with each query's exact k-NN sphere
/// radius computed by a full scan.
///
/// Both measurement and prediction consume the same workload: the number of
/// leaf pages an optimal NN search reads equals the number of leaf MBRs the
/// k-NN sphere intersects, so a fixed sphere per query makes
/// measured-vs-predicted comparisons exact and repeatable.
class QueryWorkload : public QueryRegions {
 public:
  /// Builds a workload of `q` k-NN queries over an in-memory dataset
  /// (no I/O accounting). Exactly the query's own row is excluded from its
  /// neighbor set — duplicates of the query point still count as neighbors —
  /// matching ScanForWorkloadAndSample, so both constructors produce
  /// identical radii for the same query rows.
  ///
  /// `rng` is consumed serially (the row draws), so the random stream is
  /// identical for every thread count. The exact k-NN radii run on the
  /// query-tiled scan: the queries are grouped into tiles of
  /// geometry::kernels::kQueryTile serially, then the tiles fan out on
  /// `ctx`, each streaming the dataset once and writing only its own
  /// queries' radius slots. Radii are therefore bit-identical to the
  /// single-threaded run, and to the per-query scalar oracle.
  static QueryWorkload Create(
      const data::Dataset& data, size_t q, size_t k, common::Rng* rng,
      const common::ExecutionContext& ctx = common::DefaultExecutionContext());

  // QueryRegions: sphere-vs-box intersection with the exact k-NN radius.
  size_t size() const override { return queries_.size(); }
  bool Intersects(size_t i, const geometry::BoundingBox& box) const override;
  size_t CountIntersections(
      size_t i, std::span<const geometry::BoundingBox> boxes,
      const geometry::kernels::BoxSlab& slab) const override;

  size_t num_queries() const { return queries_.size(); }
  size_t k() const { return k_; }
  const data::Dataset& queries() const { return queries_; }
  const std::vector<double>& radii() const { return radii_; }
  double radius(size_t i) const { return radii_[i]; }

  /// Row indices in the source dataset the queries were drawn from.
  const std::vector<size_t>& query_rows() const { return query_rows_; }

  /// Direct constructor for callers that computed radii themselves (the
  /// accounted scan); prefer Create() elsewhere.
  QueryWorkload(data::Dataset queries, std::vector<double> radii,
                std::vector<size_t> rows, size_t k);

 private:
 data::Dataset queries_;
  std::vector<double> radii_;
  std::vector<size_t> query_rows_;
  size_t k_;
};

/// Result of the predictors' combined first pass (Figures 5 and 7, steps
/// 2-4): the query workload plus the upper-tree sample, with all I/O charged
/// to `file`.
struct ScanResult {
  QueryWorkload workload;
  data::Dataset sample;
  /// The sampling ratio actually used: min(sample_size / N, 1).
  double sampling_ratio = 1.0;
};

/// Executes the accounted workload-and-sample pass over the simulated disk
/// file:
///   1. reads `q` query points at random positions — q random accesses,
///      the paper's cost_ReadQueryPoints (Equation 2);
///   2. scans the whole dataset sequentially once — cost_ScanDataset —
///      feeding every query's k-NN heap and extracting a uniform sample of
///      min(sample_size, N) points.
///
/// All I/O charging (the q random reads and the one sequential scan) happens
/// serially on the calling thread exactly as before — the simulated disk's
/// seek/transfer accounting is byte-identical for every thread count. Only
/// the in-memory distance loop fans out on `ctx`, over tiles of
/// geometry::kernels::kQueryTile queries (each tile's heaps are private to
/// its chunk), on the same tiled kernel as QueryWorkload::Create, so radii
/// are bit-identical too.
ScanResult ScanForWorkloadAndSample(
    io::PagedFile* file, size_t q, size_t k, size_t sample_size,
    common::Rng* rng,
    const common::ExecutionContext& ctx = common::DefaultExecutionContext());

}  // namespace hdidx::workload

#endif  // HDIDX_WORKLOAD_QUERY_WORKLOAD_H_
