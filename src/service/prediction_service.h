#ifndef HDIDX_SERVICE_PREDICTION_SERVICE_H_
#define HDIDX_SERVICE_PREDICTION_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/parallel.h"
#include "core/predictor.h"
#include "io/io_stats.h"
#include "io/keyed_lru_cache.h"
#include "service/dataset_registry.h"
#include "workload/query_workload.h"

namespace hdidx::service {

/// One prediction question: "what would a k-NN workload cost on an index
/// over this dataset, predicted by this method under this memory budget?"
struct ServiceRequest {
  /// Caller-chosen identifier echoed in the response (JSON framing assigns
  /// a per-connection running number when absent).
  uint64_t id = 0;
  /// Name of a dataset registered with the service's DatasetRegistry.
  std::string dataset;
  /// Prediction technique: "mini", "cutoff", or "resampled".
  std::string method = "resampled";
  /// Memory budget M in points (mini: sampling fraction min(M/N, 1)).
  size_t memory = 10000;
  /// Number of density-biased k-NN queries in the workload.
  size_t num_queries = 100;
  /// Neighbors per query.
  size_t k = 10;
  /// Base seed: the workload is drawn with Rng(seed), the prediction runs
  /// with seed+1 — exactly hdidx_predict's seeding, so serving a request
  /// reproduces the CLI bit for bit.
  uint64_t seed = 1;
  /// Page size of the modeled disk.
  size_t page_bytes = 8192;
  /// Include the per-query access vector in the serialized response.
  bool per_query = false;
};

/// The deterministic payload plus serving metadata. Everything under
/// `result` (and `result_valid`/`error`) is bit-identical for a given
/// request regardless of shard count, arrival order, or cache state; the
/// remaining fields describe how this particular serving went.
struct ServiceResponse {
  uint64_t id = 0;
  bool ok = false;
  std::string error;

  /// The prediction payload (valid iff ok).
  core::PredictionResult result;

  // --- serving metadata (excluded from the determinism contract) ---
  /// Shard that computed or retrieved the result.
  size_t shard = 0;
  /// Whether the full result came out of the mini-index cache.
  bool cache_hit = false;
  /// Whether the workload came out of the workload cache (mini method).
  bool workload_cache_hit = false;
  /// Simulated I/O actually charged while serving this request: equals
  /// result.io on a cold run, zero on a cache hit — the operational saving
  /// the cache exists for.
  io::IoStats served_io;
  /// Wall-clock serving latency in milliseconds.
  double latency_ms = 0.0;
};

/// Point-in-time counters for monitoring.
struct ServiceMetrics {
  uint64_t requests = 0;
  /// Batch counters: requests are served one at a time, so both read 0.
  /// They keep their slots in the stats frame and stats JSON.
  uint64_t batches = 0;
  uint64_t errors = 0;
  uint64_t result_hits = 0;
  uint64_t result_misses = 0;
  uint64_t result_evictions = 0;
  uint64_t workload_hits = 0;
  uint64_t workload_misses = 0;
  uint64_t workload_evictions = 0;
  double mean_batch_size = 0.0;
  /// Requests refused by async admission control (filled in by
  /// AsyncServer; 0 in PredictionService::Metrics()).
  uint64_t shed_total = 0;

  struct Shard {
    uint64_t requests = 0;
    /// Latency percentiles estimated from a fixed-size log-bucketed
    /// histogram (common::LogHistogram): exact to within one bucket.
    double p50_ms = 0.0;
    double p90_ms = 0.0;
    double p99_ms = 0.0;
    /// Async admission-queue gauges (filled in by AsyncServer).
    size_t queue_depth = 0;
    size_t peak_queue_depth = 0;
    uint64_t shed = 0;
  };
  std::vector<Shard> shards;
};

struct ServiceOptions {
  /// Number of shard workers; each owns the datasets hashed to it.
  size_t num_shards = 1;
  /// Total worker threads split evenly across shards (each shard gets
  /// max(1, total/num_shards)); 0 means common::ThreadCount().
  size_t total_threads = 0;
  /// Capacity, in entries, of each shard's result (mini-index) cache.
  size_t result_cache_entries = 64;
  /// Capacity, in entries, of each shard's workload cache.
  size_t workload_cache_entries = 32;
};

/// A resident, sharded front-end over the library's predictors.
///
/// Datasets are partitioned across shards by the registry's stable hash;
/// each shard owns a ThreadPool-backed ExecutionContext (threads split
/// evenly) plus an LRU cache of built prediction results and generated
/// workloads. Requests are served one at a time per call to ServeOnShard,
/// on the shard that owns the request's dataset; the async server
/// (service/async_server.h) runs one worker per shard that makes those
/// calls.
///
/// Determinism contract: every response's `result` is derived only from the
/// request fields and the registered dataset — workloads are seeded with
/// Rng(request.seed) and predictions with request.seed + 1, and each
/// prediction runs on the shard's ExecutionContext whose ParallelFor is
/// bit-identical for any thread count. A request therefore yields the same
/// bits for 1, 2, or N shards, for any arrival order, and whether it was
/// computed cold or returned from cache.
///
/// Thread-safety: each shard's caches and counters are guarded by a
/// per-shard mutex, so ServeOnShard may be called concurrently from any
/// number of threads. Registry mutation (LoadFile/Add) must be externally
/// quiesced against in-flight serving — see DatasetRegistry's phase
/// contract.
class PredictionService {
 public:
  explicit PredictionService(const ServiceOptions& options);
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  DatasetRegistry& registry() { return registry_; }
  const DatasetRegistry& registry() const { return registry_; }

  size_t num_shards() const { return shards_.size(); }
  size_t threads_per_shard() const;

  /// Serves one request on shard `shard_index`, which must be
  /// `registry().ShardOf(request.dataset)` (checked): validates it, returns
  /// the cached result or computes and caches it, and records the shard's
  /// request count and latency. Safe to call concurrently.
  ServiceResponse ServeOnShard(size_t shard_index,
                               const ServiceRequest& request);

  ServiceMetrics Metrics() const;

  /// Drops all cached artifacts (counters included); datasets stay loaded.
  /// Used by benchmarks to measure the cold path repeatedly.
  void ClearCaches();

 private:
  struct Shard;

  /// The cache-or-compute body; takes the shard mutex only around cache
  /// accesses, never across a prediction.
  ServiceResponse Compute(Shard* shard, const ServiceRequest& request);

  DatasetRegistry registry_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace hdidx::service

#endif  // HDIDX_SERVICE_PREDICTION_SERVICE_H_
