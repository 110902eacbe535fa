#include "workload/query_workload.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "geometry/distance.h"
#include "geometry/kernels.h"

namespace hdidx::workload {

namespace {

/// Exact k-NN radii of `queries` (drawn from `rows` of `data_rows`) on the
/// query-tiled scan kernel. The tiles are grouped serially, then fanned out
/// on `ctx`: each chunk streams the dataset once per tile and writes only
/// its own tiles' slots, so the radii are bit-identical for every thread
/// count.
std::vector<double> TiledRadii(const data::Dataset& queries,
                               const std::vector<size_t>& rows,
                               bool exclude_row_only_if_zero,
                               std::span<const float> data_rows, size_t k,
                               const common::ExecutionContext& ctx) {
  namespace gk = geometry::kernels;
  const size_t dim = queries.dim();
  const gk::QueryBatch batch{queries.data(), rows, exclude_row_only_if_zero};
  const std::vector<size_t> order =
      gk::GroupQueriesIntoTiles(queries.data(), dim);
  std::vector<double> radii(rows.size());
  const size_t num_tiles = (order.size() + gk::kQueryTile - 1) / gk::kQueryTile;
  ctx.ParallelFor(0, num_tiles, /*grain=*/1, [&](size_t begin, size_t end) {
    const size_t first = begin * gk::kQueryTile;
    const size_t last = std::min(order.size(), end * gk::kQueryTile);
    const std::span<const size_t> tiles(order.data() + first, last - first);
    gk::TiledKthDistanceScan(batch, tiles, data_rows, dim, k, radii);
    for (const size_t i : tiles) radii[i] = std::sqrt(radii[i]);
  });
  return radii;
}

}  // namespace

size_t QueryRegions::CountIntersections(
    size_t i, std::span<const geometry::BoundingBox> boxes,
    const geometry::kernels::BoxSlab& /*slab*/) const {
  size_t hits = 0;
  for (const auto& box : boxes) {
    if (Intersects(i, box)) ++hits;
  }
  return hits;
}

QueryWorkload::QueryWorkload(data::Dataset queries, std::vector<double> radii,
                             std::vector<size_t> rows, size_t k)
    : queries_(std::move(queries)),
      radii_(std::move(radii)),
      query_rows_(std::move(rows)),
      k_(k) {}

bool QueryWorkload::Intersects(size_t i,
                               const geometry::BoundingBox& box) const {
  return geometry::SquaredMinDist(queries_.row(i), box) <=
         radii_[i] * radii_[i];
}

size_t QueryWorkload::CountIntersections(
    size_t i, std::span<const geometry::BoundingBox> boxes,
    const geometry::kernels::BoxSlab& slab) const {
  if (slab.size() != boxes.size() || slab.size() == 0) {
    return QueryRegions::CountIntersections(i, boxes, slab);
  }
  // The caller built the slab, so it already chose a batched path; every
  // non-scalar mode returns identical counts, so re-reading the active mode
  // here cannot change results even if the override flips mid-prediction.
  return geometry::kernels::CountSphereHits(queries_.row(i),
                                            radii_[i] * radii_[i], slab,
                                            geometry::kernels::ActiveKernelMode());
}

QueryWorkload QueryWorkload::Create(const data::Dataset& data, size_t q,
                                    size_t k, common::Rng* rng,
                                    const common::ExecutionContext& ctx) {
  HDIDX_CHECK(!data.empty());
  // The RNG is consumed serially so the draws match the serial run for any
  // thread count.
  std::vector<size_t> rows(q);
  for (size_t i = 0; i < q; ++i) {
    rows[i] = static_cast<size_t>(rng->NextBounded(data.size()));
  }
  data::Dataset queries = data.Select(rows);
  // The query's own row is excluded unconditionally, as in
  // index::ExactKthDistanceExcludingRow.
  std::vector<double> radii =
      TiledRadii(queries, rows, /*exclude_row_only_if_zero=*/false,
                 data.data(), k, ctx);
  return QueryWorkload(std::move(queries), std::move(radii), std::move(rows),
                       k);
}

ScanResult ScanForWorkloadAndSample(io::PagedFile* file, size_t q, size_t k,
                                    size_t sample_size, common::Rng* rng,
                                    const common::ExecutionContext& ctx) {
  const size_t n = file->size();
  const size_t dim = file->dim();
  HDIDX_CHECK(n > 0);

  // Step 1: q random point reads (Equation 2: q * (t_seek + t_xfer)).
  // PagedFile charges a seek per non-adjacent access automatically; reading
  // each query point touches one page.
  std::vector<size_t> rows(q);
  data::Dataset queries(dim);
  queries.Reserve(q);
  std::vector<float> point(dim);
  for (size_t i = 0; i < q; ++i) {
    rows[i] = static_cast<size_t>(rng->NextBounded(n));
    file->ReadPoint(rows[i], point.data());
    queries.Append(point);
  }

  // Choose the sample positions up front so the sequential pass can pick
  // them up in order.
  std::vector<size_t> sample_rows;
  rng->SampleIndices(n, sample_size, &sample_rows);

  // Step 2: one sequential scan feeding every query's k-NN heap and
  // collecting the sample. Memory-chunked in reality; charging the scan as
  // one sequential access is I/O-equivalent (1 seek + N/B transfers). The
  // charge happens serially here, before any compute fans out — the
  // simulated disk sees the exact same accesses as the serial code.
  file->ChargeAccess(0, n);
  const auto raw = file->raw();

  // Sample collection (sample_rows is ascending, so this is the file-order
  // pass the interleaved loop performed).
  data::Dataset sample(dim);
  sample.Reserve(sample_rows.size());
  for (size_t row : sample_rows) {
    sample.Append(raw.subspan(row * dim, dim));
  }

  // The in-memory distance loop on the query-tiled kernel. The exclusion
  // rule is the original one: the query's own row is skipped only at
  // distance zero, so duplicates of the query point still count.
  std::vector<double> radii =
      TiledRadii(queries, rows, /*exclude_row_only_if_zero=*/true, raw, k,
                 ctx);

  ScanResult result{
      QueryWorkload(std::move(queries), std::move(radii), std::move(rows), k),
      std::move(sample),
      std::min(1.0, static_cast<double>(sample_size) / static_cast<double>(n))};
  return result;
}

}  // namespace hdidx::workload
