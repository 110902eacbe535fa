#include "geometry/kernels.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <queue>
#include <string_view>

#include "common/check.h"
#include "geometry/distance.h"
#include "geometry/isa/block_ops.h"

namespace hdidx::geometry::kernels {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr size_t kBlock = BoxSlab::kBlock;

static_assert(BoxSlab::kPlaneStride % kBlock == 0,
              "plane padding must cover whole kernel blocks");

// Test/bench override for the kernel mode; -1 = no override, the
// HDIDX_KERNEL environment default applies.
//
// Happens-before: SetKernelMode / ClearKernelModeOverride store with
// release semantics and ActiveKernelMode loads with acquire, so a thread
// that observes an override also observes everything the overriding
// thread did first (e.g. a test arranging slab state before forcing a
// mode). The once-only stderr warning for garbage HDIDX_KERNEL values
// lives in a function-local static below, whose initialization the
// language runs exactly once under its own guard — both pieces of mutable
// kernel-mode state are race-free by construction, not merely unobserved
// by TSan.
std::atomic<int> g_mode_override{-1};  // (hdidx-lint: allow-global)

/// Whether the running CPU has the ISA `mode` needs. Compile-target
/// availability (was the isa/ TU built for this arch?) is a separate check;
/// both must hold for KernelModeSupported.
bool CpuSupportsIsa(KernelMode mode) {
  switch (mode) {
    case KernelMode::kScalar:
    case KernelMode::kGeneric:
      return true;
    case KernelMode::kAvx2:
#if defined(__x86_64__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case KernelMode::kAvx512:
#if defined(__x86_64__)
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
    case KernelMode::kNeon:
      // NEON is architecturally mandatory on aarch64, so compile-target
      // support (NeonOps() != nullptr) implies runtime support.
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

/// The block-op table for `mode` (null for kScalar, which runs the inline
/// oracle loops below). Callers must pass a supported mode.
const isa::BlockOps* OpsFor(KernelMode mode) {
  switch (mode) {
    case KernelMode::kScalar:
      return nullptr;
    case KernelMode::kGeneric:
      return isa::GenericOps();
    case KernelMode::kAvx2:
      return isa::Avx2Ops();
    case KernelMode::kAvx512:
      return isa::Avx512Ops();
    case KernelMode::kNeon:
      return isa::NeonOps();
  }
  return nullptr;
}

/// The per-dimension MINDIST term, branchless: max(0, lo - q, q - hi) as
/// doubles. Bit-identical to the branches in geometry::SquaredMinDist
/// (whichever side is positive is the same subtraction), and the std::max
/// argument order makes a NaN coordinate yield 0 exactly like both scalar
/// branches failing.
inline double MinDistTerm(double q, float lo, float hi) {
  return std::max(std::max(0.0, static_cast<double>(lo) - q),
                  q - static_cast<double>(hi));
}

/// SquaredMinDist of `center` to slab lane `b`, full accumulation in
/// dimension order. Sentinel lanes (empty boxes, padding) accumulate +inf —
/// the value geometry::SquaredMinDist returns for an empty box.
double LaneSquaredMinDist(std::span<const float> center, const BoxSlab& slab,
                          size_t b) {
  double s = 0.0;
  for (size_t d = 0; d < slab.dim(); ++d) {
    const double diff = MinDistTerm(center[d], slab.lo_plane(d)[b],
                                    slab.hi_plane(d)[b]);
    s += diff * diff;
  }
  return s;
}

/// KnnHeap's exact semantics (bounded max-heap of the k smallest squared
/// distances), local so the geometry layer does not depend on index/.
class BoundedDistanceHeap {
 public:
  explicit BoundedDistanceHeap(size_t k) : k_(k) {}

  void Push(double d2) {
    if (heap_.size() < k_) {
      heap_.push(d2);
    } else if (d2 < heap_.top()) {
      heap_.pop();
      heap_.push(d2);
    }
  }

  /// Current k-th smallest squared distance; +inf until k were collected.
  double Threshold() const { return heap_.size() == k_ ? heap_.top() : kInf; }

 private:
  size_t k_;
  std::priority_queue<double> heap_;
};

/// Bounded max-heap of the k smallest (squared distance, row) pairs under
/// pair ordering — retains exactly the first k elements a partial_sort of
/// all pairs would produce (rows are unique, so the order is total).
class BoundedPairHeap {
 public:
  explicit BoundedPairHeap(size_t k) : k_(k) {}

  void Push(double d2, size_t row) {
    const std::pair<double, size_t> p(d2, row);
    if (heap_.size() < k_) {
      heap_.push(p);
    } else if (p < heap_.top()) {
      heap_.pop();
      heap_.push(p);
    }
  }

  double Threshold() const {
    return heap_.size() == k_ ? heap_.top().first : kInf;
  }

  std::vector<std::pair<double, size_t>> TakeSortedAscending() {
    std::vector<std::pair<double, size_t>> result(heap_.size());
    for (size_t i = heap_.size(); i > 0; --i) {
      result[i - 1] = heap_.top();
      heap_.pop();
    }
    return result;
  }

 private:
  size_t k_;
  std::priority_queue<std::pair<double, size_t>> heap_;
};

/// Shared skeleton of the two k-NN scan kernels: streams rows in order,
/// applies the exclusion rules, and feeds `push(d2, row)`. `threshold()`
/// returns the current no-op-push bound (k-th distance once k rows were
/// collected); a batched block abandons once every lane's partial sum
/// exceeds the bound captured at block start — the bound only shrinks, so
/// an abandoned row's push would have been a no-op.
template <typename Heap>
void ScanRows(std::span<const float> query, std::span<const float> rows,
              size_t dim, const ScanOptions& opts, KernelMode mode,
              Heap* heap) {
  HDIDX_CHECK(dim > 0);
  HDIDX_CHECK(rows.size() % dim == 0);
  HDIDX_CHECK(query.size() == dim);
  const size_t n = rows.size() / dim;
  const float* base_ptr = rows.data();

  const auto consider = [&](size_t row, double d2) {
    if (row == opts.exclude_row) {
      // Unconditional exclusion (the query's own row), or the accounted
      // scan's rule: only skip the row when it sits at distance zero, so
      // duplicates of the query point still count as neighbors.
      if (!opts.exclude_row_only_if_zero) return;
      if (d2 <= 0.0) return;
    }
    if (d2 <= opts.exclude_within_sq) return;
    heap->Push(d2, row);
  };

  const auto scalar_row = [&](size_t row) {
    if (row == opts.exclude_row && !opts.exclude_row_only_if_zero) return;
    const float* p = base_ptr + row * dim;
    double d2 = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      const double diff = static_cast<double>(p[d]) - query[d];
      d2 += diff * diff;
    }
    consider(row, d2);
  };

  size_t next = 0;
  if (mode != KernelMode::kScalar) {
    const isa::BlockOps* ops = OpsFor(mode);
    std::array<double, kBlock> acc;
    for (; next + kBlock <= n; next += kBlock) {
      // Abandonment needs a full heap (threshold < +inf), so the skipped
      // pushes were no-ops and the exclusion rules are moot for them too:
      // every abandoned lane has d2 > threshold >= 0.
      if (!ops->row_block(query.data(), base_ptr + next * dim, dim,
                          heap->Threshold(), acc.data())) {
        continue;
      }
      for (size_t l = 0; l < kBlock; ++l) consider(next + l, acc[l]);
    }
  }
  for (; next < n; ++next) scalar_row(next);
}

/// Adapter so BoundedDistanceHeap fits the ScanRows push signature.
struct DistanceHeapAdapter {
  BoundedDistanceHeap heap;
  explicit DistanceHeapAdapter(size_t k) : heap(k) {}
  void Push(double d2, size_t) { heap.Push(d2); }
  double Threshold() const { return heap.Threshold(); }
};

}  // namespace

bool KernelModeSupported(KernelMode mode) {
  switch (mode) {
    case KernelMode::kScalar:
    case KernelMode::kGeneric:
      return true;
    case KernelMode::kAvx2:
    case KernelMode::kAvx512:
    case KernelMode::kNeon:
      return OpsFor(mode) != nullptr && CpuSupportsIsa(mode);
  }
  return false;
}

KernelMode ResolveKernelMode(KernelMode mode) {
  switch (mode) {
    case KernelMode::kScalar:
    case KernelMode::kGeneric:
      return mode;
    case KernelMode::kAvx512:
      if (KernelModeSupported(KernelMode::kAvx512)) {
        return KernelMode::kAvx512;
      }
      [[fallthrough]];
    case KernelMode::kAvx2:
      if (KernelModeSupported(KernelMode::kAvx2)) return KernelMode::kAvx2;
      return KernelMode::kGeneric;
    case KernelMode::kNeon:
      if (KernelModeSupported(KernelMode::kNeon)) return KernelMode::kNeon;
      return KernelMode::kGeneric;
  }
  return KernelMode::kGeneric;
}

KernelMode BestKernelMode() {
  if (KernelModeSupported(KernelMode::kAvx512)) return KernelMode::kAvx512;
  if (KernelModeSupported(KernelMode::kAvx2)) return KernelMode::kAvx2;
  if (KernelModeSupported(KernelMode::kNeon)) return KernelMode::kNeon;
  return KernelMode::kGeneric;
}

std::vector<KernelMode> SupportedKernelModes() {
  std::vector<KernelMode> modes;
  for (const KernelMode mode :
       {KernelMode::kScalar, KernelMode::kGeneric, KernelMode::kAvx2,
        KernelMode::kAvx512, KernelMode::kNeon}) {
    if (KernelModeSupported(mode)) modes.push_back(mode);
  }
  return modes;
}

std::string_view KernelModeName(KernelMode mode) {
  switch (mode) {
    case KernelMode::kScalar:
      return "scalar";
    case KernelMode::kGeneric:
      return "generic";
    case KernelMode::kAvx2:
      return "avx2";
    case KernelMode::kAvx512:
      return "avx512";
    case KernelMode::kNeon:
      return "neon";
  }
  return "unknown";
}

bool ParseKernelMode(std::string_view name, KernelMode* mode) {
  if (name == "scalar") {
    *mode = KernelMode::kScalar;
    return true;
  }
  if (name == "generic" || name == "batched") {  // "batched" = PR 5 name
    *mode = KernelMode::kGeneric;
    return true;
  }
  if (name == "avx2") {
    *mode = KernelMode::kAvx2;
    return true;
  }
  if (name == "avx512") {
    *mode = KernelMode::kAvx512;
    return true;
  }
  if (name == "neon") {
    *mode = KernelMode::kNeon;
    return true;
  }
  *mode = BestKernelMode();
  return false;
}

KernelMode ActiveKernelMode() {
  const int forced = g_mode_override.load(std::memory_order_acquire);
  if (forced >= 0) return ResolveKernelMode(static_cast<KernelMode>(forced));
  static const KernelMode from_env = [] {
    const char* env = std::getenv("HDIDX_KERNEL");
    // An empty value (e.g. `HDIDX_KERNEL= prog`) means unset, not garbage.
    if (env == nullptr || *env == '\0') return BestKernelMode();
    KernelMode parsed = KernelMode::kGeneric;
    if (!ParseKernelMode(env, &parsed)) {
      // Deterministic fallback, never UB: warn once (stderr — stdout is the
      // serving protocol) and run the host's best mode.
      std::cerr << "hdidx: unknown HDIDX_KERNEL value \"" << env
                << "\"; falling back to " << KernelModeName(parsed) << "\n";
    }
    return ResolveKernelMode(parsed);
  }();
  return from_env;
}

void SetKernelMode(KernelMode mode) {
  g_mode_override.store(static_cast<int>(mode), std::memory_order_release);
}

void ClearKernelModeOverride() {
  g_mode_override.store(-1, std::memory_order_release);
}

void BoxSlab::Fill(size_t count, size_t dim,
                   const BoundingBox& (*get)(const void*, size_t),
                   const void* ctx, common::Arena* arena) {
  size_ = count;
  dim_ = dim;
  padded_ = (count + kPlaneStride - 1) / kPlaneStride * kPlaneStride;
  common::Arena* backing = arena != nullptr ? arena : &owned_;
  // Two 64B-aligned arena arrays; padded_ is a multiple of 16 floats, so
  // every per-dimension plane inside them starts on a cacheline boundary.
  // Writing the planes here is the first touch, on the building thread.
  lo_ = backing->AllocateArray<float>(dim_ * padded_);
  hi_ = backing->AllocateArray<float>(dim_ * padded_);
  std::fill_n(lo_, dim_ * padded_, std::numeric_limits<float>::infinity());
  std::fill_n(hi_, dim_ * padded_, -std::numeric_limits<float>::infinity());
  for (size_t b = 0; b < count; ++b) {
    const BoundingBox& box = get(ctx, b);
    HDIDX_CHECK(box.dim() == dim_);
    if (box.empty()) continue;  // keep the sentinel: infinitely far
    for (size_t d = 0; d < dim_; ++d) {
      lo_[d * padded_ + b] = box.lo()[d];
      hi_[d * padded_ + b] = box.hi()[d];
    }
  }
}

BoxSlab::BoxSlab(std::span<const BoundingBox> boxes, common::Arena* arena) {
  if (boxes.empty()) return;
  Fill(
      boxes.size(), boxes[0].dim(),
      [](const void* ctx, size_t i) -> const BoundingBox& {
        return static_cast<const BoundingBox*>(ctx)[i];
      },
      boxes.data(), arena);
}

BoxSlab::BoxSlab(std::span<const BoundingBox* const> boxes,
                 common::Arena* arena) {
  if (boxes.empty()) return;
  Fill(
      boxes.size(), boxes[0]->dim(),
      [](const void* ctx, size_t i) -> const BoundingBox& {
        return *static_cast<const BoundingBox* const*>(ctx)[i];
      },
      boxes.data(), arena);
}

size_t CountSphereHits(std::span<const float> center, double r2,
                       const BoxSlab& slab) {
  return CountSphereHits(center, r2, slab, ActiveKernelMode());
}

size_t CountSphereHits(std::span<const float> center, double r2,
                       const BoxSlab& slab, KernelMode mode) {
  if (slab.size() == 0) return 0;
  HDIDX_CHECK(center.size() == slab.dim());
  mode = ResolveKernelMode(mode);
  size_t count = 0;
  if (mode == KernelMode::kScalar) {
    for (size_t b = 0; b < slab.size(); ++b) {
      if (LaneSquaredMinDist(center, slab, b) <= r2) ++count;
    }
    return count;
  }
  const isa::BlockOps* ops = OpsFor(mode);
  std::array<double, kBlock> acc;
  for (size_t base = 0; base < slab.size(); base += kBlock) {
    const size_t lanes = std::min(kBlock, slab.size() - base);
    if (!ops->sphere_block(center.data(), slab, base, r2, acc.data())) {
      continue;
    }
    for (size_t l = 0; l < lanes; ++l) {
      if (acc[l] <= r2) ++count;
    }
  }
  return count;
}

void AppendSphereHits(std::span<const float> center, double r2,
                      const BoxSlab& slab, std::vector<uint32_t>* hits) {
  AppendSphereHits(center, r2, slab, hits, ActiveKernelMode());
}

void AppendSphereHits(std::span<const float> center, double r2,
                      const BoxSlab& slab, std::vector<uint32_t>* hits,
                      KernelMode mode) {
  if (slab.size() == 0) return;
  HDIDX_CHECK(center.size() == slab.dim());
  mode = ResolveKernelMode(mode);
  if (mode == KernelMode::kScalar) {
    for (size_t b = 0; b < slab.size(); ++b) {
      if (LaneSquaredMinDist(center, slab, b) <= r2) {
        hits->push_back(static_cast<uint32_t>(b));
      }
    }
    return;
  }
  const isa::BlockOps* ops = OpsFor(mode);
  std::array<double, kBlock> acc;
  for (size_t base = 0; base < slab.size(); base += kBlock) {
    const size_t lanes = std::min(kBlock, slab.size() - base);
    if (!ops->sphere_block(center.data(), slab, base, r2, acc.data())) {
      continue;
    }
    for (size_t l = 0; l < lanes; ++l) {
      if (acc[l] <= r2) hits->push_back(static_cast<uint32_t>(base + l));
    }
  }
}

size_t CountBoxHits(const BoundingBox& query, const BoxSlab& slab) {
  return CountBoxHits(query, slab, ActiveKernelMode());
}

size_t CountBoxHits(const BoundingBox& query, const BoxSlab& slab,
                    KernelMode mode) {
  if (slab.size() == 0 || query.empty()) return 0;
  HDIDX_CHECK(query.dim() == slab.dim());
  mode = ResolveKernelMode(mode);
  const size_t dim = slab.dim();
  size_t count = 0;
  if (mode == KernelMode::kScalar) {
    for (size_t b = 0; b < slab.size(); ++b) {
      bool alive = true;
      for (size_t d = 0; d < dim; ++d) {
        if (slab.lo_plane(d)[b] > query.hi()[d] ||
            query.lo()[d] > slab.hi_plane(d)[b]) {
          alive = false;
          break;
        }
      }
      if (alive) ++count;
    }
    return count;
  }
  const isa::BlockOps* ops = OpsFor(mode);
  std::array<bool, kBlock> alive;
  for (size_t base = 0; base < slab.size(); base += kBlock) {
    const size_t lanes = std::min(kBlock, slab.size() - base);
    ops->box_block(query.lo().data(), query.hi().data(), slab, base,
                   alive.data());
    for (size_t l = 0; l < lanes; ++l) {
      if (alive[l]) ++count;
    }
  }
  return count;
}

size_t NearestBox(std::span<const float> point, const BoxSlab& slab) {
  return NearestBox(point, slab, ActiveKernelMode());
}

size_t NearestBox(std::span<const float> point, const BoxSlab& slab,
                  KernelMode mode) {
  HDIDX_CHECK(slab.size() > 0);
  HDIDX_CHECK(point.size() == slab.dim());
  mode = ResolveKernelMode(mode);
  size_t best = 0;
  double best_d2 = kInf;
  if (mode == KernelMode::kScalar) {
    for (size_t b = 0; b < slab.size(); ++b) {
      double d2 = 0.0;
      for (size_t d = 0; d < slab.dim(); ++d) {
        const double diff = MinDistTerm(point[d], slab.lo_plane(d)[b],
                                        slab.hi_plane(d)[b]);
        d2 += diff * diff;
        if (d2 >= best_d2) break;
      }
      if (d2 < best_d2) {
        best_d2 = d2;
        best = b;
        if (d2 == 0.0) break;  // containment: no closer box exists
      }
    }
    return best;
  }
  const isa::BlockOps* ops = OpsFor(mode);
  std::array<double, kBlock> acc;
  for (size_t base = 0; base < slab.size(); base += kBlock) {
    const size_t lanes = std::min(kBlock, slab.size() - base);
    // A lane whose partial sum already reaches best_d2 cannot win (the
    // update is strict <). sphere_block abandons on partial > threshold,
    // so pass the largest double still allowed to win: nextafter(best_d2,
    // 0) — for positive finite best_d2 (0 returns early), acc >
    // nextafter(best_d2, 0) iff acc >= best_d2.
    const double threshold =
        best_d2 == kInf ? kInf : std::nextafter(best_d2, 0.0);
    if (!ops->sphere_block(point.data(), slab, base, threshold, acc.data())) {
      continue;
    }
    for (size_t l = 0; l < lanes; ++l) {
      if (acc[l] < best_d2) {
        best_d2 = acc[l];
        best = base + l;
        if (best_d2 == 0.0) return best;
      }
    }
  }
  return best;
}

void BatchedSquaredL2(std::span<const float> query, const float* rows,
                      size_t count, size_t dim, double* out) {
  BatchedSquaredL2(query, rows, count, dim, out, ActiveKernelMode());
}

void BatchedSquaredL2(std::span<const float> query, const float* rows,
                      size_t count, size_t dim, double* out,
                      KernelMode mode) {
  HDIDX_CHECK(dim > 0);
  HDIDX_CHECK(query.size() == dim);
  mode = ResolveKernelMode(mode);
  size_t next = 0;
  if (mode != KernelMode::kScalar) {
    const isa::BlockOps* ops = OpsFor(mode);
    for (; next + kBlock <= count; next += kBlock) {
      ops->row_block(query.data(), rows + next * dim, dim, kInf, out + next);
    }
  }
  for (; next < count; ++next) {
    const float* p = rows + next * dim;
    double d2 = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      const double diff = static_cast<double>(p[d]) - query[d];
      d2 += diff * diff;
    }
    out[next] = d2;
  }
}

double KthDistanceScan(std::span<const float> query,
                       std::span<const float> rows, size_t dim, size_t k,
                       const ScanOptions& opts) {
  return KthDistanceScan(query, rows, dim, k, opts, ActiveKernelMode());
}

double KthDistanceScan(std::span<const float> query,
                       std::span<const float> rows, size_t dim, size_t k,
                       const ScanOptions& opts, KernelMode mode) {
  HDIDX_CHECK(k > 0);
  DistanceHeapAdapter heap(k);
  ScanRows(query, rows, dim, opts, ResolveKernelMode(mode), &heap);
  return heap.Threshold();
}

std::vector<size_t> GroupQueriesIntoTiles(std::span<const float> points,
                                          size_t dim) {
  HDIDX_CHECK(dim > 0);
  HDIDX_CHECK(points.size() % dim == 0);
  const size_t q = points.size() / dim;
  constexpr size_t kWindow = 16 * kQueryTile;
  std::vector<size_t> order;
  order.reserve(q);
  std::vector<std::pair<double, size_t>> candidates;
  for (size_t window = 0; window < q; window += kWindow) {
    const size_t window_end = std::min(q, window + kWindow);
    std::vector<bool> placed(window_end - window, false);
    for (size_t seed = window; seed < window_end; ++seed) {
      if (placed[seed - window]) continue;
      placed[seed - window] = true;
      order.push_back(seed);
      candidates.clear();
      // Every unplaced query of the window lies past the seed: earlier ones
      // were seeds themselves.
      for (size_t j = seed + 1; j < window_end; ++j) {
        if (placed[j - window]) continue;
        const double d2 = SquaredL2(points.subspan(seed * dim, dim),
                                    points.subspan(j * dim, dim));
        // A NaN distance sorts last, keeping the comparator a strict order.
        candidates.emplace_back(std::isnan(d2) ? kInf : d2, j);
      }
      const size_t take = std::min(kQueryTile - 1, candidates.size());
      std::partial_sort(candidates.begin(), candidates.begin() + take,
                        candidates.end());
      for (size_t t = 0; t < take; ++t) {
        placed[candidates[t].second - window] = true;
        order.push_back(candidates[t].second);
      }
    }
  }
  return order;
}

void TiledKthDistanceScan(const QueryBatch& batch,
                          std::span<const size_t> order,
                          std::span<const float> rows, size_t dim, size_t k,
                          std::span<double> out) {
  TiledKthDistanceScan(batch, order, rows, dim, k, out, ActiveKernelMode());
}

void TiledKthDistanceScan(const QueryBatch& batch,
                          std::span<const size_t> order,
                          std::span<const float> rows, size_t dim, size_t k,
                          std::span<double> out, KernelMode mode) {
  HDIDX_CHECK(k > 0);
  HDIDX_CHECK(dim > 0);
  HDIDX_CHECK(rows.size() % dim == 0);
  HDIDX_CHECK(batch.points.size() == batch.size() * dim);
  HDIDX_CHECK(out.size() == batch.size());
  for (const size_t i : order) HDIDX_CHECK(i < batch.size());
  const auto query = [&](size_t i) {
    return batch.points.subspan(i * dim, dim);
  };
  mode = ResolveKernelMode(mode);
  if (mode == KernelMode::kScalar) {
    for (const size_t i : order) {
      ScanOptions opts;
      opts.exclude_row = batch.exclude_rows[i];
      opts.exclude_row_only_if_zero = batch.exclude_row_only_if_zero;
      out[i] = KthDistanceScan(query(i), rows, dim, k, opts,
                               KernelMode::kScalar);
    }
    return;
  }

  const isa::BlockOps* ops = OpsFor(mode);
  const size_t n = rows.size() / dim;
  // One 64-byte-aligned plane of kQueryTile doubles per dimension.
  struct alignas(64) TilePlane {
    std::array<double, kQueryTile> lane;
  };
  std::vector<TilePlane> tile(dim);
  alignas(64) std::array<double, kQueryTile> thresholds;
  alignas(64) std::array<double, kQueryTile> acc;
  for (size_t first = 0; first < order.size(); first += kQueryTile) {
    const std::span<const size_t> ids =
        order.subspan(first, std::min(kQueryTile, order.size() - first));
    for (size_t l = 0; l < kQueryTile; ++l) {
      const float* p = l < ids.size() ? query(ids[l]).data() : nullptr;
      for (size_t d = 0; d < dim; ++d) {
        tile[d].lane[l] = p != nullptr ? static_cast<double>(p[d]) : 0.0;
      }
      thresholds[l] = p != nullptr ? kInf : -kInf;  // unused lanes never block
    }
    std::vector<BoundedDistanceHeap> heaps(ids.size(), BoundedDistanceHeap(k));
    uint32_t live = 0;
    for (size_t row = 0;
         (row = ops->query_tile_scan(tile[0].lane.data(), rows.data(), row, n,
                                     dim, thresholds.data(), acc.data(),
                                     &live)) < n;
         ++row) {
      for (size_t l = 0; l < ids.size(); ++l) {
        // An abandoned lane's sum exceeded its threshold: a no-op push.
        if (((live >> l) & 1u) == 0) continue;
        // The exclusion rules of ScanRows, per query.
        if (row == batch.exclude_rows[ids[l]]) {
          if (!batch.exclude_row_only_if_zero) continue;
          if (acc[l] <= 0.0) continue;
        }
        heaps[l].Push(acc[l]);
        thresholds[l] = heaps[l].Threshold();
      }
    }
    for (size_t l = 0; l < ids.size(); ++l) out[ids[l]] = heaps[l].Threshold();
  }
}

std::vector<std::pair<double, size_t>> TopKNeighborScan(
    std::span<const float> query, std::span<const float> rows, size_t dim,
    size_t k, const ScanOptions& opts) {
  return TopKNeighborScan(query, rows, dim, k, opts, ActiveKernelMode());
}

std::vector<std::pair<double, size_t>> TopKNeighborScan(
    std::span<const float> query, std::span<const float> rows, size_t dim,
    size_t k, const ScanOptions& opts, KernelMode mode) {
  if (k == 0) return {};
  BoundedPairHeap heap(k);
  ScanRows(query, rows, dim, opts, ResolveKernelMode(mode), &heap);
  return heap.TakeSortedAscending();
}

}  // namespace hdidx::geometry::kernels
