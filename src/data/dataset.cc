#include "data/dataset.h"

#include <cmath>

#include "common/check.h"

namespace hdidx::data {

Dataset::Dataset(size_t dim) : dim_(dim), size_(0) { HDIDX_CHECK(dim > 0); }

Dataset::Dataset(size_t n, size_t dim)
    : dim_(dim), size_(n), values_(n * dim, 0.0f) {
  HDIDX_CHECK(dim > 0);
}

Dataset::Dataset(std::vector<float> values, size_t dim)
    // Copies rather than adopts: the buffer moves into 64B-aligned storage
    // (the incoming vector's default-allocator buffer can't be).
    : dim_(dim), size_(values.size() / dim),
      values_(values.begin(), values.end()) {
  HDIDX_CHECK(dim > 0);
  HDIDX_CHECK(values_.size() % dim_ == 0);
}

void Dataset::Append(std::span<const float> point) {
  HDIDX_CHECK(point.size() == dim_);
  values_.insert(values_.end(), point.begin(), point.end());
  ++size_;
}

void Dataset::Reserve(size_t n) { values_.reserve(n * dim_); }

geometry::BoundingBox Dataset::Bounds() const {
  return geometry::BoundingBox::OfPoints(values_, size_, dim_);
}

Dataset Dataset::Select(const std::vector<size_t>& indices) const {
  Dataset out(dim_);
  out.Reserve(indices.size());
  for (size_t i : indices) {
    HDIDX_CHECK(i < size_);
    out.Append(row(i));
  }
  return out;
}

Dataset Dataset::ProjectPrefix(size_t k) const {
  HDIDX_CHECK(k > 0 && k <= dim_);
  Dataset out(k);
  out.Reserve(size_);
  for (size_t i = 0; i < size_; ++i) {
    out.Append(row(i).subspan(0, k));
  }
  return out;
}

size_t FirstNonFinite(std::span<const float> values) {
  for (size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(values[i])) return i;
  }
  return values.size();
}

}  // namespace hdidx::data
