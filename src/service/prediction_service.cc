#include "service/prediction_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/mutex.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/thread_annotations.h"
#include "core/cutoff.h"
#include "core/hupper.h"
#include "core/mini_index.h"
#include "core/resampled.h"
#include "index/topology.h"
#include "io/disk_model.h"
#include "io/paged_file.h"

namespace hdidx::service {

namespace {

/// Everything a cached result is a function of. per_query is serialization
/// only and deliberately absent: the result bits are the same either way.
using ResultKey = std::tuple<std::string /*dataset*/, std::string /*method*/,
                             size_t /*memory*/, size_t /*num_queries*/,
                             size_t /*k*/, uint64_t /*seed*/,
                             size_t /*page_bytes*/>;

/// Workloads depend only on the dataset and the draw parameters — they are
/// shared across methods and memory budgets, which is where the second
/// amortization of a resident service comes from.
using WorkloadKey = std::tuple<std::string /*dataset*/, size_t /*num_queries*/,
                               size_t /*k*/, uint64_t /*seed*/>;

ResultKey KeyOf(const ServiceRequest& r) {
  return {r.dataset, r.method, r.memory, r.num_queries, r.k, r.seed,
          r.page_bytes};
}

}  // namespace

struct PredictionService::Shard {
  explicit Shard(const ServiceOptions& options, size_t threads)
      : pool(threads),
        results(options.result_cache_entries),
        workloads(options.workload_cache_entries) {}

  /// Internally synchronized (its own job mutex + lock-free chunk claim).
  common::ThreadPool pool HDIDX_UNGUARDED;
  common::Mutex mu;
  io::KeyedLruCache<ResultKey, core::PredictionResult> results
      HDIDX_GUARDED_BY(mu);
  io::KeyedLruCache<WorkloadKey, workload::QueryWorkload> workloads
      HDIDX_GUARDED_BY(mu);
  uint64_t requests HDIDX_GUARDED_BY(mu) = 0;
  uint64_t errors HDIDX_GUARDED_BY(mu) = 0;
  common::LogHistogram latency_ms HDIDX_GUARDED_BY(mu);
};

PredictionService::PredictionService(const ServiceOptions& options)
    : registry_(options.num_shards) {
  const size_t num_shards = std::max<size_t>(1, options.num_shards);
  const size_t total = options.total_threads != 0 ? options.total_threads
                                                  : common::ThreadCount();
  const size_t per_shard = std::max<size_t>(1, total / num_shards);
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(options, per_shard));
  }
}

PredictionService::~PredictionService() = default;

size_t PredictionService::threads_per_shard() const {
  return shards_.front()->pool.num_threads();
}

ServiceResponse PredictionService::ServeOnShard(size_t shard_index,
                                                const ServiceRequest& request) {
  HDIDX_CHECK(shard_index == registry_.ShardOf(request.dataset))
      << "request for '" << request.dataset << "' routed to wrong shard "
      << shard_index;
  Shard* shard = shards_[shard_index].get();
  ServiceResponse response = Compute(shard, request);
  response.shard = shard_index;
  common::MutexLock lock(&shard->mu);
  ++shard->requests;
  if (!response.ok) ++shard->errors;
  shard->latency_ms.Add(response.latency_ms);
  return response;
}

ServiceResponse PredictionService::Compute(Shard* shard,
                                           const ServiceRequest& request) {
  ServiceResponse response;
  response.id = request.id;
  const auto started = std::chrono::steady_clock::now();

  const data::Dataset* dataset = registry_.Find(request.dataset);
  if (dataset == nullptr) {
    response.error = "unknown dataset: " + request.dataset;
    return response;
  }
  if (request.method != "mini" && request.method != "cutoff" &&
      request.method != "resampled") {
    response.error = "unknown method: " + request.method;
    return response;
  }
  if (request.num_queries == 0 || request.k == 0 || request.memory == 0 ||
      request.page_bytes == 0) {
    response.error = "num_queries, k, memory, and page_bytes must be > 0";
    return response;
  }
  const size_t min_page_bytes =
      index::TreeTopology::MinPageBytes(dataset->dim());
  if (request.page_bytes < min_page_bytes) {
    response.error = "page_bytes " + std::to_string(request.page_bytes) +
                     " is below " + std::to_string(min_page_bytes) +
                     ", the smallest page that holds one data entry and "
                     "two directory entries at d=" +
                     std::to_string(dataset->dim());
    return response;
  }

  const ResultKey key = KeyOf(request);
  std::shared_ptr<const core::PredictionResult> cached;
  {
    common::MutexLock lock(&shard->mu);
    cached = shard->results.Get(key);
  }
  if (cached != nullptr) {
    // Warm path: the cached result was computed from exactly (request,
    // dataset), so returning it is bit-identical to recomputing — at zero
    // simulated I/O.
    response.ok = true;
    response.result = *cached;
    response.cache_hit = true;
    response.latency_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - started)
                              .count();
    return response;
  }

  io::DiskModel disk;
  disk.page_bytes = request.page_bytes;
  const index::TreeTopology topology =
      index::TreeTopology::FromDisk(dataset->size(), dataset->dim(), disk);
  if (request.method != "mini" && topology.height() < 3) {
    response.error =
        "dataset too small for the " + request.method +
        " method (index height < 3); use method=mini";
    return response;
  }

  const common::ExecutionContext ctx(&shard->pool, request.seed);

  // Workload: drawn with Rng(seed) exactly as hdidx_predict does, shared
  // across methods and memory budgets via the per-shard workload cache.
  const WorkloadKey wkey{request.dataset, request.num_queries, request.k,
                         request.seed};
  std::shared_ptr<const workload::QueryWorkload> workload;
  {
    common::MutexLock lock(&shard->mu);
    workload = shard->workloads.Get(wkey);
  }
  if (workload != nullptr) {
    response.workload_cache_hit = true;
  } else {
    // Created outside the shard mutex — two concurrent misses may both
    // build; both arrive at the same bits, so last-Put-wins is harmless.
    common::Rng rng(request.seed);
    auto fresh = std::make_shared<workload::QueryWorkload>(
        workload::QueryWorkload::Create(*dataset, request.num_queries,
                                        request.k, &rng, ctx));
    common::MutexLock lock(&shard->mu);
    shard->workloads.Put(wkey, fresh);
    workload = std::move(fresh);
  }

  const uint64_t prediction_seed = request.seed + 1;
  if (request.method == "mini") {
    core::MiniIndexParams params;
    params.sampling_fraction =
        std::min(1.0, static_cast<double>(request.memory) /
                          static_cast<double>(dataset->size()));
    params.seed = prediction_seed;
    response.result = core::PredictWithMiniIndex(*dataset, topology,
                                                 *workload, params, ctx);
  } else if (request.method == "cutoff") {
    io::PagedFile file = io::PagedFile::FromDataset(*dataset, disk);
    core::CutoffParams params;
    params.memory_points = request.memory;
    params.h_upper = core::ChooseHupper(topology, request.memory);
    params.seed = prediction_seed;
    response.result =
        core::PredictWithCutoffTree(&file, topology, *workload, params, ctx);
  } else {
    io::PagedFile file = io::PagedFile::FromDataset(*dataset, disk);
    core::ResampledParams params;
    params.memory_points = request.memory;
    params.h_upper = core::ChooseHupper(topology, request.memory);
    params.seed = prediction_seed;
    response.result = core::PredictWithResampledTree(&file, topology,
                                                     *workload, params, ctx);
  }
  response.ok = true;
  response.served_io = response.result.io;
  {
    common::MutexLock lock(&shard->mu);
    shard->results.Put(
        key, std::make_shared<core::PredictionResult>(response.result));
  }
  response.latency_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - started)
                            .count();
  return response;
}

ServiceMetrics PredictionService::Metrics() const {
  ServiceMetrics m;
  for (const auto& shard : shards_) {
    common::MutexLock lock(&shard->mu);
    m.requests += shard->requests;
    m.errors += shard->errors;
    m.result_hits += shard->results.hits();
    m.result_misses += shard->results.misses();
    m.result_evictions += shard->results.evictions();
    m.workload_hits += shard->workloads.hits();
    m.workload_misses += shard->workloads.misses();
    m.workload_evictions += shard->workloads.evictions();
    ServiceMetrics::Shard sm;
    sm.requests = shard->requests;
    sm.p50_ms = shard->latency_ms.Percentile(0.50);
    sm.p90_ms = shard->latency_ms.Percentile(0.90);
    sm.p99_ms = shard->latency_ms.Percentile(0.99);
    m.shards.push_back(sm);
  }
  return m;
}

void PredictionService::ClearCaches() {
  for (auto& shard : shards_) {
    common::MutexLock lock(&shard->mu);
    shard->results.Clear();
    shard->workloads.Clear();
  }
}

}  // namespace hdidx::service
