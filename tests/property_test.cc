/// Parameterized property sweeps: invariants that must hold across a grid
/// of dataset shapes, capacities, and sampling fractions.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "core/compensation.h"
#include "data/generators.h"
#include "geometry/distance.h"
#include "geometry/kernels.h"
#include "gtest/gtest.h"
#include "index/bulk_loader.h"
#include "index/knn.h"
#include "io/paged_file.h"
#include "test_util.h"
#include "workload/query_workload.h"

namespace hdidx {
namespace {

// ---------------------------------------------------------------------------
// Bulk-loader invariants across (n, dim, data_capacity, dir_capacity).
// ---------------------------------------------------------------------------

using TreeParams = std::tuple<size_t, size_t, size_t, size_t>;

class BulkLoadProperty : public ::testing::TestWithParam<TreeParams> {};

TEST_P(BulkLoadProperty, TreeInvariantsHold) {
  const auto [n, dim, data_cap, dir_cap] = GetParam();
  const auto data = testing::SmallClustered(n, dim, 1000 + n + dim);
  const index::TreeTopology topo(n, data_cap, dir_cap);
  index::BulkLoadOptions options;
  options.topology = &topo;
  const index::RTree tree = index::BulkLoadInMemory(data, options);
  testing::ExpectValidTree(tree, data, 1);
  EXPECT_EQ(tree.num_leaves(), topo.NumLeaves());
  for (uint32_t id : tree.leaf_ids()) {
    EXPECT_LE(tree.node(id).count, data_cap);
  }
}

TEST_P(BulkLoadProperty, KnnSearchMatchesScan) {
  const auto [n, dim, data_cap, dir_cap] = GetParam();
  const auto data = testing::SmallClustered(n, dim, 2000 + n + dim);
  const index::TreeTopology topo(n, data_cap, dir_cap);
  index::BulkLoadOptions options;
  options.topology = &topo;
  const index::RTree tree = index::BulkLoadInMemory(data, options);
  common::Rng rng(n + dim);
  for (int trial = 0; trial < 3; ++trial) {
    const auto query = data.row(rng.NextBounded(n));
    const auto result = index::TreeKnnSearch(tree, data, query, 3);
    const double exact = index::ExactKthDistance(data, query, 3, -1.0);
    EXPECT_NEAR(result.kth_distance, exact, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeGrid, BulkLoadProperty,
    ::testing::Values(TreeParams{100, 2, 5, 3}, TreeParams{500, 3, 10, 4},
                      TreeParams{1000, 8, 20, 5}, TreeParams{2000, 16, 16, 8},
                      TreeParams{3000, 4, 50, 12}, TreeParams{777, 5, 7, 2},
                      TreeParams{64, 32, 8, 4}, TreeParams{4096, 6, 32, 16}));

// ---------------------------------------------------------------------------
// Parallel-build invariants for randomized (n, dim, data_cap, dir_cap): a
// build fanned out over a 4-thread pool must leave leaves tiling [0, n)
// exactly once, and — with scale 1 — every page at every level full except
// the rightmost one (the level-wise loader's packing guarantee, which makes
// node counts the topology's ceilings).
// ---------------------------------------------------------------------------

class ParallelBuildProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelBuildProperty, LeavesTileAndOnlyRightmostPagePartial) {
  common::Rng shape_rng(GetParam());
  const size_t n = 50 + shape_rng.NextBounded(4000);
  const size_t dim = 2 + shape_rng.NextBounded(14);
  const size_t data_cap = 2 + shape_rng.NextBounded(38);
  const size_t dir_cap = 2 + shape_rng.NextBounded(12);
  const auto data = testing::SmallClustered(n, dim, GetParam() * 977 + 5);
  const index::TreeTopology topo(n, data_cap, dir_cap);

  common::ThreadPool pool(4);
  const common::ExecutionContext ctx(&pool);
  index::BulkLoadOptions options;
  options.topology = &topo;
  options.exec = &ctx;
  const index::RTree tree = index::BulkLoadInMemory(data, options);
  testing::ExpectValidTree(tree, data, 1);

  // Leaves tile [0, n) exactly once, in leaf_ids (left-to-right) order.
  size_t covered = 0;
  for (const uint32_t id : tree.leaf_ids()) {
    EXPECT_EQ(tree.node(id).start, covered) << "gap/overlap before leaf " << id;
    covered += tree.node(id).count;
  }
  EXPECT_EQ(covered, n);

  // Points under every node, per level, in left-to-right (DFS) order.
  std::vector<std::vector<size_t>> points_at_level(tree.root_level() + 1);
  const auto subtree_points = [&tree, &points_at_level](
                                  const auto& self, uint32_t id) -> size_t {
    const index::RTreeNode& node = tree.node(id);
    size_t points = node.count;
    for (const uint32_t child : node.children) points += self(self, child);
    points_at_level[node.level].push_back(points);
    return points;
  };
  subtree_points(subtree_points, tree.root());

  for (size_t level = 1; level <= tree.root_level(); ++level) {
    // DFS pushes a node after its subtree, which still visits each level
    // left to right.
    const std::vector<size_t>& nodes = points_at_level[level];
    ASSERT_EQ(nodes.size(), topo.NodesAtLevel(level)) << "level " << level;
    const size_t cap = topo.SubtreeCapacity(level);
    for (size_t i = 0; i + 1 < nodes.size(); ++i) {
      EXPECT_EQ(nodes[i], cap)
          << "non-rightmost node " << i << " at level " << level
          << " is not full";
    }
    EXPECT_EQ(nodes.back(), n - (nodes.size() - 1) * cap)
        << "rightmost node at level " << level;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelBuildProperty,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Compensation-factor properties across (capacity, zeta).
// ---------------------------------------------------------------------------

using CompParams = std::tuple<double, double>;

class CompensationProperty : public ::testing::TestWithParam<CompParams> {};

TEST_P(CompensationProperty, GrowthAtLeastOneAndFinite) {
  const auto [capacity, zeta] = GetParam();
  const double g = core::CompensationGrowthPerDim(capacity, zeta);
  EXPECT_GE(g, 1.0);
  EXPECT_LT(g, 5.0);
  EXPECT_TRUE(std::isfinite(g));
}

TEST_P(CompensationProperty, DeltaConsistentWithGrowth) {
  const auto [capacity, zeta] = GetParam();
  for (size_t dim : {1u, 8u, 64u, 617u}) {
    const double g = core::CompensationGrowthPerDim(capacity, zeta);
    const double log_delta = dim * std::log(g);
    if (log_delta > 700.0) continue;  // g^dim overflows a double
    const double delta = core::CompensationDelta(capacity, zeta, dim);
    EXPECT_NEAR(std::log(delta), log_delta, 1e-9 * dim);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CapacityZetaGrid, CompensationProperty,
    ::testing::Combine(::testing::Values(5.0, 33.0, 100.0, 1000.0),
                       ::testing::Values(0.01, 0.1, 0.3, 0.6, 0.95)));

// ---------------------------------------------------------------------------
// MINDIST properties against sampled points: MINDIST is a lower bound on
// the distance to any point in the box, and 0 iff inside.
// ---------------------------------------------------------------------------

class MinDistProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(MinDistProperty, LowerBoundsDistanceToContainedPoints) {
  const size_t dim = GetParam();
  common::Rng rng(dim * 31);
  const auto points = data::GenerateUniform(200, dim, &rng);
  const auto box = points.Bounds();
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> q(dim);
    for (auto& v : q) {
      v = static_cast<float>(rng.NextUniform(-2.0, 3.0));
    }
    const double min_dist = geometry::MinDist(q, box);
    for (size_t i = 0; i < points.size(); i += 17) {
      EXPECT_LE(min_dist, geometry::L2(q, points.row(i)) + 1e-9);
    }
    EXPECT_EQ(min_dist == 0.0, box.Contains(q));
    EXPECT_LE(min_dist, geometry::MaxDist(q, box) + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, MinDistProperty,
                         ::testing::Values(1, 2, 3, 8, 32, 128));

// ---------------------------------------------------------------------------
// Topology properties across (n, caps): counts are consistent ceilings.
// ---------------------------------------------------------------------------

using TopoParams = std::tuple<size_t, size_t, size_t>;

class TopologyProperty : public ::testing::TestWithParam<TopoParams> {};

TEST_P(TopologyProperty, CeilingConsistency) {
  const auto [n, data_cap, dir_cap] = GetParam();
  const index::TreeTopology topo(n, data_cap, dir_cap);
  EXPECT_GE(topo.SubtreeCapacity(topo.height()), n);
  if (topo.height() > 1) {
    EXPECT_LT(topo.SubtreeCapacity(topo.height() - 1), n);
  }
  EXPECT_EQ(topo.NodesAtLevel(topo.height()), 1u);
  for (size_t level = 1; level <= topo.height(); ++level) {
    const size_t nodes = topo.NodesAtLevel(level);
    EXPECT_GE(nodes * topo.SubtreeCapacity(level), n);
    EXPECT_LT((nodes - 1) * topo.SubtreeCapacity(level), n);
    EXPECT_GT(topo.PointsPerSubtree(level), 0.0);
    EXPECT_LE(topo.PointsPerSubtree(level),
              static_cast<double>(topo.SubtreeCapacity(level)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizeGrid, TopologyProperty,
    ::testing::Values(TopoParams{1, 10, 4}, TopoParams{10, 10, 4},
                      TopoParams{11, 10, 4}, TopoParams{100000, 33, 16},
                      TopoParams{275465, 33, 16}, TopoParams{999983, 7, 2},
                      TopoParams{42, 1, 2}, TopoParams{65536, 16, 16}));

// ---------------------------------------------------------------------------
// Kernel equivalence: every batched geometry kernel lane the host can run
// (generic and each reachable SIMD ISA) must be bit-identical to the
// retained scalar reference across every (dimension, slab size)
// combination, including slab sizes straddling the kBlock stride boundary,
// empty boxes mixed into the slab, and degenerate all-identical datasets.
// EXPECT_EQ throughout — on doubles, not EXPECT_NEAR.
// ---------------------------------------------------------------------------

using KernelParams = std::tuple<size_t, size_t>;  // (dim, slab/box count)

class KernelEquivalenceProperty
    : public ::testing::TestWithParam<KernelParams> {};

TEST_P(KernelEquivalenceProperty, SphereAndBoxCountsBitIdentical) {
  namespace gk = geometry::kernels;
  const auto [dim, count] = GetParam();
  common::Rng rng(dim * 131 + count);
  std::vector<geometry::BoundingBox> boxes;
  for (size_t i = 0; i < count; ++i) {
    std::vector<float> lo(dim), hi(dim);
    for (size_t d = 0; d < dim; ++d) {
      const float a = static_cast<float>(rng.NextUniform(-1.0, 2.0));
      const float b = static_cast<float>(rng.NextUniform(-1.0, 2.0));
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    boxes.emplace_back(std::move(lo), std::move(hi));
  }
  // Sprinkle empty boxes (infinitely far sentinels in the slab).
  for (size_t i = 2; i < boxes.size(); i += 5) {
    boxes[i] = geometry::BoundingBox(dim);
  }
  const gk::BoxSlab slab{std::span<const geometry::BoundingBox>(boxes)};
  ASSERT_EQ(slab.size(), count);
  ASSERT_EQ(slab.padded_size() % gk::BoxSlab::kBlock, 0u);

  for (int trial = 0; trial < 8; ++trial) {
    std::vector<float> center(dim);
    for (auto& v : center) {
      v = static_cast<float>(rng.NextUniform(-1.5, 2.5));
    }
    const double r = rng.NextUniform(0.0, 0.5 * std::sqrt(double(dim)));
    const double r2 = r * r;
    size_t brute = 0;
    for (const auto& box : boxes) {
      if (geometry::SquaredMinDist(center, box) <= r2) ++brute;
    }
    std::vector<uint32_t> scalar_hits;
    gk::AppendSphereHits(center, r2, slab, &scalar_hits,
                         gk::KernelMode::kScalar);
    const auto query_box = boxes[rng.NextBounded(boxes.size())];
    size_t box_brute = 0;
    for (const auto& box : boxes) {
      if (query_box.Intersects(box)) ++box_brute;
    }
    const size_t scalar_nearest =
        gk::NearestBox(center, slab, gk::KernelMode::kScalar);
    for (const gk::KernelMode mode : gk::SupportedKernelModes()) {
      SCOPED_TRACE(std::string(gk::KernelModeName(mode)));
      EXPECT_EQ(gk::CountSphereHits(center, r2, slab, mode), brute);
      std::vector<uint32_t> mode_hits;
      gk::AppendSphereHits(center, r2, slab, &mode_hits, mode);
      EXPECT_EQ(mode_hits, scalar_hits);
      EXPECT_EQ(gk::CountBoxHits(query_box, slab, mode), box_brute);
      EXPECT_EQ(gk::NearestBox(center, slab, mode), scalar_nearest);
    }
  }
}

TEST_P(KernelEquivalenceProperty, ScanKernelsBitIdentical) {
  namespace gk = geometry::kernels;
  const auto [dim, n] = GetParam();
  common::Rng rng(dim * 977 + n);
  std::vector<float> rows(n * dim);
  for (auto& v : rows) v = static_cast<float>(rng.NextUniform(-1.0, 1.0));
  const size_t k = 1 + rng.NextBounded(n + 2);  // occasionally k > n
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<float> query(dim);
    for (auto& v : query) v = static_cast<float>(rng.NextUniform(-1.0, 1.0));
    gk::ScanOptions opts;
    switch (trial % 3) {
      case 0:
        break;
      case 1:
        opts.exclude_row = rng.NextBounded(n);
        opts.exclude_row_only_if_zero = (trial % 2) == 1;
        break;
      default:
        opts.exclude_within_sq = 0.0;
        break;
    }
    const double scalar_kth =
        gk::KthDistanceScan(query, rows, dim, k, opts, gk::KernelMode::kScalar);
    const auto scalar_topk = gk::TopKNeighborScan(query, rows, dim, k, opts,
                                                  gk::KernelMode::kScalar);
    for (const gk::KernelMode mode : gk::SupportedKernelModes()) {
      SCOPED_TRACE(std::string(gk::KernelModeName(mode)));
      EXPECT_EQ(gk::KthDistanceScan(query, rows, dim, k, opts, mode),
                scalar_kth);
      EXPECT_EQ(gk::TopKNeighborScan(query, rows, dim, k, opts, mode),
                scalar_topk);
    }
  }

  // All-identical points: every distance ties, the heap keeps the first k
  // rows, and early-exit never fires spuriously.
  std::vector<float> same(n * dim, 0.25f);
  std::vector<float> query(dim, -0.75f);
  const auto scalar = gk::TopKNeighborScan(query, same, dim, k, gk::ScanOptions(),
                                           gk::KernelMode::kScalar);
  for (const gk::KernelMode mode : gk::SupportedKernelModes()) {
    SCOPED_TRACE(std::string(gk::KernelModeName(mode)));
    EXPECT_EQ(gk::TopKNeighborScan(query, same, dim, k, gk::ScanOptions(),
                                   mode),
              scalar);
  }
  for (size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(scalar[i].second, i);  // ties retain the lowest rows, in order
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimSlabGrid, KernelEquivalenceProperty,
    ::testing::Combine(::testing::Values(1, 3, 60, 617),
                       ::testing::Values(1, 7, 8, 9, 16, 17)));

// ---------------------------------------------------------------------------
// Query-tiled k-NN scan: TiledKthDistanceScan in every supported mode, in
// identity and grouped tile order, must equal the per-query scalar oracle
// bit for bit, across query counts straddling the kQueryTile boundary,
// dimensions straddling the 8-dimension abandonment cadence, k up to and
// past the number of qualifying rows (+inf), duplicate and all-identical
// rows, and both exclusion rules. Compared as bit patterns, so +inf and NaN
// results are checked too.
// ---------------------------------------------------------------------------

using TiledParams = std::tuple<size_t, size_t>;  // (queries, dim)

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Checks every mode and both tile orders against the scalar oracle for
/// queries drawn as rows of `rows` (each excluding its own row).
void ExpectTiledMatchesOracle(const std::vector<float>& rows, size_t dim,
                              const std::vector<size_t>& query_rows,
                              size_t k) {
  namespace gk = geometry::kernels;
  const size_t q = query_rows.size();
  std::vector<float> points;
  for (const size_t r : query_rows) {
    points.insert(points.end(), rows.begin() + r * dim,
                  rows.begin() + (r + 1) * dim);
  }
  const std::vector<size_t> identity = [q] {
    std::vector<size_t> order(q);
    std::iota(order.begin(), order.end(), size_t{0});
    return order;
  }();
  const std::vector<size_t> grouped = gk::GroupQueriesIntoTiles(points, dim);
  ASSERT_EQ(grouped.size(), q);
  ASSERT_TRUE(std::is_permutation(grouped.begin(), grouped.end(),
                                  identity.begin()));
  for (const bool only_if_zero : {false, true}) {
    SCOPED_TRACE(only_if_zero ? "exclude only at zero" : "exclude always");
    const gk::QueryBatch batch{points, query_rows, only_if_zero};
    std::vector<double> oracle(q);
    for (size_t i = 0; i < q; ++i) {
      gk::ScanOptions opts;
      opts.exclude_row = query_rows[i];
      opts.exclude_row_only_if_zero = only_if_zero;
      oracle[i] = gk::KthDistanceScan(
          std::span<const float>(points).subspan(i * dim, dim), rows, dim, k,
          opts, gk::KernelMode::kScalar);
      // Fewer than k qualifying rows yields +inf.
      if (k > rows.size() / dim) {
        ASSERT_EQ(oracle[i], std::numeric_limits<double>::infinity());
      }
    }
    for (const gk::KernelMode mode : gk::SupportedKernelModes()) {
      SCOPED_TRACE(std::string(gk::KernelModeName(mode)));
      for (const auto* order : {&identity, &grouped}) {
        std::vector<double> out(q, -1.0);
        gk::TiledKthDistanceScan(batch, *order, rows, dim, k, out, mode);
        for (size_t i = 0; i < q; ++i) {
          ASSERT_EQ(Bits(out[i]), Bits(oracle[i]))
              << "query " << i << " k " << k << ": " << out[i] << " vs "
              << oracle[i];
        }
      }
    }
  }
}

class TiledScanEquivalenceProperty
    : public ::testing::TestWithParam<TiledParams> {};

TEST_P(TiledScanEquivalenceProperty, BitIdenticalToScalarOracle) {
  const auto [q, dim] = GetParam();
  constexpr size_t n = 41;
  common::Rng rng(q * 7919 + dim);
  std::vector<float> rows(n * dim);
  for (auto& v : rows) v = static_cast<float>(rng.NextUniform(-1.0, 1.0));
  // Exact duplicates: row 5 of row 3, row 9 of row 3 again.
  for (const size_t dup : {5, 9}) {
    std::copy_n(rows.begin() + 3 * dim, dim, rows.begin() + dup * dim);
  }
  std::vector<size_t> query_rows(q);
  for (size_t i = 0; i < q; ++i) query_rows[i] = rng.NextBounded(n);
  query_rows[0] = 3;  // a query with duplicates of its own row
  for (const size_t k : {size_t{1}, size_t{10}, n - 1, n, n + 5}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    ExpectTiledMatchesOracle(rows, dim, query_rows, k);
  }

  // All-identical points: every distance is 0, the own row is dropped (or,
  // under the zero rule, dropped for being at distance 0).
  const std::vector<float> same(n * dim, 0.25f);
  for (const size_t k : {size_t{1}, n - 1, n}) {
    SCOPED_TRACE("identical, k=" + std::to_string(k));
    ExpectTiledMatchesOracle(same, dim, query_rows, k);
  }
}

INSTANTIATE_TEST_SUITE_P(
    QueryDimGrid, TiledScanEquivalenceProperty,
    ::testing::Combine(::testing::Values(1, 15, 16, 17, 100),
                       ::testing::Values(1, 3, 16, 60, 617)));

// A NaN coordinate in a row (pushed while the heap is not full, exactly as
// in the oracle) and in a query (every distance NaN) at the kernel level.
TEST(TiledScanNanTest, NanCoordinatesMatchOracleBits) {
  for (const size_t dim : {3, 16, 60}) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    constexpr size_t n = 50;
    common::Rng rng(dim);
    std::vector<float> rows(n * dim);
    for (auto& v : rows) v = static_cast<float>(rng.NextUniform(-1.0, 1.0));
    rows[7 * dim + dim / 2] = std::numeric_limits<float>::quiet_NaN();
    rows[30 * dim] = std::numeric_limits<float>::quiet_NaN();
    std::vector<size_t> query_rows(20);
    for (size_t i = 0; i < query_rows.size(); ++i) {
      query_rows[i] = rng.NextBounded(n);
    }
    query_rows[2] = 7;  // a query with a NaN coordinate
    for (const size_t k : {size_t{1}, size_t{5}, n}) {
      SCOPED_TRACE("k=" + std::to_string(k));
      ExpectTiledMatchesOracle(rows, dim, query_rows, k);
    }
  }
}

// Both workload constructors run on the tiled kernel: in every supported
// mode and at 1, 2 and 8 threads, their radii equal the scalar oracle's.
TEST(TiledScanWorkloadTest, CreateAndScanMatchOracleAtEveryThreadCount) {
  namespace gk = geometry::kernels;
  for (const size_t dim : {16, 60}) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    const auto data = testing::SmallClustered(900, dim, 31 + dim);
    constexpr size_t q = 37;
    constexpr size_t k = 10;
    for (const gk::KernelMode mode : gk::SupportedKernelModes()) {
      SCOPED_TRACE(std::string(gk::KernelModeName(mode)));
      gk::SetKernelMode(mode);
      for (const size_t threads : {1, 2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        common::ThreadPool pool(threads);
        const common::ExecutionContext ctx(&pool);
        common::Rng create_rng(5);
        const auto created =
            workload::QueryWorkload::Create(data, q, k, &create_rng, ctx);
        io::PagedFile file = io::PagedFile::FromDataset(data, io::DiskModel{});
        common::Rng scan_rng(5);
        const auto scanned = workload::ScanForWorkloadAndSample(
            &file, q, k, 100, &scan_rng, ctx);
        for (size_t i = 0; i < q; ++i) {
          gk::ScanOptions always;
          always.exclude_row = created.query_rows()[i];
          EXPECT_EQ(Bits(created.radius(i)),
                    Bits(std::sqrt(gk::KthDistanceScan(
                        created.queries().row(i), data.data(), dim, k,
                        always, gk::KernelMode::kScalar))));
          gk::ScanOptions at_zero;
          at_zero.exclude_row = scanned.workload.query_rows()[i];
          at_zero.exclude_row_only_if_zero = true;
          EXPECT_EQ(Bits(scanned.workload.radius(i)),
                    Bits(std::sqrt(gk::KthDistanceScan(
                        scanned.workload.queries().row(i), data.data(), dim,
                        k, at_zero, gk::KernelMode::kScalar))));
        }
      }
      gk::ClearKernelModeOverride();
    }
  }
}

// ---------------------------------------------------------------------------
// Sphere-counting consistency: leaf accesses counted through the tree match
// a brute-force scan over leaf boxes, for random radii.
// ---------------------------------------------------------------------------

class SphereCountProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(SphereCountProperty, TraversalMatchesBruteForce) {
  const size_t dim = GetParam();
  const auto data = testing::SmallClustered(1500, dim, dim * 7);
  const index::TreeTopology topo(data.size(), 25, 5);
  index::BulkLoadOptions options;
  options.topology = &topo;
  const index::RTree tree = index::BulkLoadInMemory(data, options);

  common::Rng rng(dim * 13);
  for (int trial = 0; trial < 10; ++trial) {
    const auto center = data.row(rng.NextBounded(data.size()));
    const double radius = rng.NextUniform(0.0, 0.5);
    size_t brute = 0;
    for (uint32_t id : tree.leaf_ids()) {
      if (geometry::SphereIntersectsBox(center, radius, tree.node(id).box)) {
        ++brute;
      }
    }
    EXPECT_EQ(tree.CountSphereAccesses(center, radius).leaf_accesses, brute);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, SphereCountProperty,
                         ::testing::Values(2, 4, 8, 24));

}  // namespace
}  // namespace hdidx
