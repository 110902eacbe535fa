#include "index/topology.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace hdidx::index {

TreeTopology::TreeTopology(size_t num_points, size_t data_capacity,
                           size_t dir_capacity)
    : num_points_(num_points),
      data_capacity_(data_capacity),
      dir_capacity_(dir_capacity) {
  HDIDX_CHECK(num_points > 0);
  HDIDX_CHECK(data_capacity > 0);
  HDIDX_CHECK(dir_capacity >= 2);
  height_ = 1;
  // Grow until a single subtree can hold all points, guarding overflow for
  // huge dir capacities.
  size_t cap = data_capacity_;
  while (cap < num_points_) {
    HDIDX_CHECK(cap <= std::numeric_limits<size_t>::max() / dir_capacity_);
    cap *= dir_capacity_;
    ++height_;
  }
}

namespace {

// One data entry: dim float coordinates plus a 4-byte record id. One
// directory entry: an MBR (2*dim floats) plus a 4-byte child pointer.
size_t DataEntryBytes(size_t dim) { return dim * sizeof(float) + 4; }
size_t DirEntryBytes(size_t dim) { return 2 * dim * sizeof(float) + 4; }

}  // namespace

size_t TreeTopology::MinPageBytes(size_t dim) {
  return std::max(DataEntryBytes(dim), 2 * DirEntryBytes(dim));
}

TreeTopology TreeTopology::FromDisk(size_t num_points, size_t dim,
                                    const io::DiskModel& disk) {
  const size_t data_entry_bytes = DataEntryBytes(dim);
  const size_t dir_entry_bytes = DirEntryBytes(dim);
  size_t data_cap = disk.page_bytes / data_entry_bytes;
  size_t dir_cap = disk.page_bytes / dir_entry_bytes;
  if (data_cap < 1) data_cap = 1;
  if (dir_cap < 2) dir_cap = 2;
  return TreeTopology(num_points, data_cap, dir_cap);
}

size_t TreeTopology::SubtreeCapacity(size_t level) const {
  HDIDX_CHECK(level >= 1 && level <= height_);
  size_t cap = data_capacity_;
  for (size_t l = 2; l <= level; ++l) cap *= dir_capacity_;
  return cap;
}

size_t TreeTopology::NodesAtLevel(size_t level) const {
  const size_t cap = SubtreeCapacity(level);
  return (num_points_ + cap - 1) / cap;
}

double TreeTopology::PointsPerSubtree(size_t level) const {
  return static_cast<double>(num_points_) /
         static_cast<double>(NodesAtLevel(level));
}

double TreeTopology::EffectiveDirCapacity() const {
  if (height_ < 2) return static_cast<double>(data_capacity_);
  // Average fanout over all directory nodes: total children / total parents.
  size_t children = 0;
  size_t parents = 0;
  for (size_t level = 2; level <= height_; ++level) {
    children += NodesAtLevel(level - 1);
    parents += NodesAtLevel(level);
  }
  return static_cast<double>(children) / static_cast<double>(parents);
}

size_t TreeTopology::FanoutFor(size_t level, size_t points_in_subtree) const {
  HDIDX_CHECK(level >= 2);
  const size_t child_cap = SubtreeCapacity(level - 1);
  return (points_in_subtree + child_cap - 1) / child_cap;
}

}  // namespace hdidx::index
