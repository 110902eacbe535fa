#ifndef HDIDX_SERVICE_DATASET_REGISTRY_H_
#define HDIDX_SERVICE_DATASET_REGISTRY_H_

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "data/dataset.h"

namespace hdidx::service {

/// Owns every dataset a prediction service can answer questions about, each
/// loaded from disk exactly once and pinned for the life of the process —
/// the amortization that makes a resident service worth running at all.
///
/// Each dataset is deterministically assigned to one of `num_shards` shard
/// workers by a stable hash of its name, so a given dataset is always served
/// by the shard that owns it (and its cached artifacts), independent of
/// arrival order. The assignment depends only on (name, num_shards) — never
/// on load order — keeping routing reproducible across restarts.
///
/// Thread-safety: registration (LoadFile/Add) must happen while no request
/// is being served (the async server quiesces its shard workers); Find()
/// is safe to call concurrently from shard workers because entries are
/// immutable once registered and never removed.
class DatasetRegistry {
 public:
  /// Registry routing across `num_shards` shards (clamped to >= 1).
  explicit DatasetRegistry(size_t num_shards);

  /// Loads `path` under `name`: .csv files go through the text importer
  /// (default options), anything else through the binary .hdx reader.
  /// Re-registering an existing name is an error (datasets are immutable).
  /// Returns false and fills `*error` on failure.
  HDIDX_BUILD_ONLY bool LoadFile(const std::string& name,
                                 const std::string& path, std::string* error);

  /// Registers an in-memory dataset (tests, benchmarks). Same uniqueness
  /// rule as LoadFile; a dataset with a NaN or infinite coordinate is
  /// refused, whichever way it arrives.
  HDIDX_BUILD_ONLY bool Add(const std::string& name, data::Dataset dataset,
                            std::string* error);

  /// The dataset registered under `name`, or nullptr.
  HDIDX_CONCURRENT_READ const data::Dataset* Find(
      const std::string& name) const;

  /// Shard owning `name`: stable FNV-1a hash of the name mod num_shards.
  /// Defined for any name, registered or not.
  HDIDX_CONCURRENT_READ size_t ShardOf(const std::string& name) const;

  size_t num_shards() const { return num_shards_; }
  size_t size() const { return datasets_.size(); }

  /// Registered names in sorted order.
  std::vector<std::string> Names() const;

 private:
  size_t num_shards_;
  std::map<std::string, std::unique_ptr<data::Dataset>> datasets_;
};

}  // namespace hdidx::service

#endif  // HDIDX_SERVICE_DATASET_REGISTRY_H_
