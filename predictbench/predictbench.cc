// predictbench: end-to-end and per-layer benchmark of the prediction
// service, driven only through the library's public functions.
//
//   predictbench --workload cold_predict|tuning_sweep|warm_serve --seed N
//                --seconds S --trace 0|1 [--out-dir DIR] [--list-requests]
//
// Every workload issues a fixed request list derived from --seed and
// --seconds (never a time-bounded loop), so the same arguments always send
// the same requests and produce the same sample counts.
//
//   --trace 0  runs all three workloads untraced and prints the end-to-end
//              metrics (every run reports every end-to-end metric); each
//              cold and sweep response is then checked against a direct
//              core call with the same seeds, one request per pool thread
//              (each request runs serially, like the service).
//   --trace 1  runs the named workload untraced, then replays the same list
//              single-threaded through direct module calls with a span
//              around each call, checks every response against the replay,
//              and prints the named workload's per-layer metrics plus the
//              tracing overhead (each replayed request also runs with
//              tracing off). Spans are written to --out-dir at exit, one
//              file per workload.
//
// See README.md next to this file for the workloads and the metric map.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/cutoff.h"
#include "core/hupper.h"
#include "core/mini_index.h"
#include "core/predictor.h"
#include "core/resampled.h"
#include "data/generators.h"
#include "geometry/kernels.h"
#include "index/external_build.h"
#include "index/knn.h"
#include "index/rtree.h"
#include "index/topology.h"
#include "io/disk_model.h"
#include "io/paged_file.h"
#include "service/async_server.h"
#include "service/prediction_service.h"
#include "service/protocol.h"
#include "service/wire.h"
#include "workload/query_workload.h"

namespace {

using namespace hdidx;
using Clock = std::chrono::steady_clock;
using service::ServiceRequest;

// --- fixed shape of the three workloads ------------------------------------

constexpr uint64_t kDataSeed = 3;
constexpr size_t kQueries = 100;
constexpr size_t kNeighbors = 10;
constexpr size_t kPageBytes = 8192;
constexpr const char* kMethods[] = {"mini", "cutoff", "resampled"};

// Every dataset fits a core's private 2 MiB L2 cache. On a shared host the
// L3 cache and memory bandwidth belong to other tenants too: identical k-NN
// scans over a 24 MB dataset (texture60, N=100k) drifted 10 percent between
// 15-second windows (18 in another series), while scans over 1 to 2 MB in
// the same windows drifted 2 to 4 percent, like a pure arithmetic loop.

// cold_predict: the texture60 surrogate (0.96 MB), every request a fresh
// seed; M is a tenth of N.
constexpr const char* kColdName = "texture60";
constexpr size_t kColdPoints = 4000;
constexpr size_t kColdDim = 60;
constexpr size_t kColdMemory = 400;
// Every kMeasureEvery-th resampled request is also built and measured.
constexpr size_t kMeasureEvery = 5;

// tuning_sweep: one seed per sweep over methods x memory x page size
// (0.77 MB). Every grid point has index height 3.
constexpr const char* kSweepName = "clustered12k";
constexpr size_t kSweepPoints = 12000;
constexpr size_t kSweepDim = 16;
constexpr std::array<size_t, 2> kSweepMemory = {1000, 2000};
constexpr std::array<size_t, 2> kSweepPages = {4096, 8192};
// The untimed warm-up key: outside the grid, same workload key.
constexpr size_t kSweepWarmupMemory = 800;

// warm_serve: a hot set smaller than the 64-entry result cache.
constexpr const char* kWarmName = "clustered20k";
constexpr size_t kWarmPoints = 20000;
constexpr size_t kWarmDim = 16;
constexpr size_t kWarmMemory = 2000;
constexpr size_t kHotKeys = 32;
constexpr size_t kConnections = 4;
constexpr size_t kWindow = 1;
// warm_serve's client, reactor and shard worker share this many CPUs.
constexpr int kWarmCpus = 2;

// The timed passes run interleaved in this many rounds.
constexpr size_t kRounds = 20;
// A spare set-up runs at the start of every kSetupEvery-th round.
constexpr size_t kSetupEvery = 2;
constexpr int kPollTimeoutMs = 10000;

/// Request counts for a run of `seconds`: fixed multiples, so the list
/// depends only on the arguments. On a 4-vCPU Xeon the three timed windows
/// take roughly 45/20/35 percent of `seconds` together.
struct Counts {
  size_t cold_cycles = 0;
  size_t sweeps = 0;
  size_t warm_requests = 0;
};

Counts CountsFor(int seconds) {
  const auto s = static_cast<size_t>(seconds);
  return {std::max<size_t>(kRounds, s * 40), std::max<size_t>(kRounds, s * 20),
          std::max<size_t>(kHotKeys * kRounds, s * 30000)};
}

// --- command line ----------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string out_dir = ".";
  bool list_requests = false;
};

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty() || text.size() > 19) return false;
  uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

bool ParseOptions(int argc, char** argv, Options* o, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-requests") {
      o->list_requests = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      o->workload = value;
    } else if (flag == "--seed" && ParseUint(value, &n)) {
      o->seed = n;
    } else if (flag == "--seconds" && ParseUint(value, &n) && n >= 1 &&
               n <= 600) {
      o->seconds = static_cast<int>(n);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      o->trace = value == "1" ? 1 : 0;
    } else if (flag == "--out-dir") {
      o->out_dir = value;
    } else {
      *error = "bad flag or value: " + flag + " " + value;
      return false;
    }
  }
  if (o->workload != "cold_predict" && o->workload != "tuning_sweep" &&
      o->workload != "warm_serve") {
    *error = "--workload must be cold_predict, tuning_sweep or warm_serve";
    return false;
  }
  if (o->seconds == 0 || o->trace < 0) {
    *error = "--seconds and --trace are required";
    return false;
  }
  return true;
}

// --- request lists ---------------------------------------------------------

struct Plan {
  /// cold_predict: cycles mini -> cutoff -> resampled.
  std::vector<ServiceRequest> cold;
  /// Indices into `cold` that are also built and measured.
  std::vector<size_t> cold_measured;
  /// tuning_sweep: one untimed warm-up and one grid per sweep.
  std::vector<ServiceRequest> sweep_warmups;
  std::vector<std::vector<ServiceRequest>> sweeps;
  /// warm_serve: the hot set and, per request, its hot-set index.
  std::vector<ServiceRequest> hot;
  std::vector<uint32_t> warm;
};

ServiceRequest MakeRequest(const char* dataset, const char* method,
                           size_t memory, uint64_t seed, size_t page_bytes) {
  ServiceRequest r;
  r.dataset = dataset;
  r.method = method;
  r.memory = memory;
  r.num_queries = kQueries;
  r.k = kNeighbors;
  r.seed = seed;
  r.page_bytes = page_bytes;
  return r;
}

/// A random base with a stride of 2 gives distinct request seeds: the
/// service draws the workload with Rng(seed) and predicts with seed + 1.
uint64_t SeedBase(common::Rng* rng) { return rng->NextU64() >> 16; }

Plan MakePlan(uint64_t seed, const Counts& counts) {
  Plan plan;
  const common::Rng root(seed);
  common::Rng cold_rng = root.Fork(1);
  common::Rng sweep_rng = root.Fork(2);
  common::Rng warm_rng = root.Fork(3);

  const uint64_t cold_base = SeedBase(&cold_rng);
  size_t resampled = 0;
  for (size_t i = 0; i < counts.cold_cycles * 3; ++i) {
    const char* method = kMethods[i % 3];
    plan.cold.push_back(MakeRequest(kColdName, method, kColdMemory,
                                    cold_base + 2 * i, kPageBytes));
    if (i % 3 == 2 && resampled++ % kMeasureEvery == 0) {
      plan.cold_measured.push_back(i);
    }
  }

  const uint64_t sweep_base = SeedBase(&sweep_rng);
  for (size_t s = 0; s < counts.sweeps; ++s) {
    const uint64_t sweep_seed = sweep_base + 2 * s;
    plan.sweep_warmups.push_back(MakeRequest(
        kSweepName, "mini", kSweepWarmupMemory, sweep_seed, kPageBytes));
    std::vector<ServiceRequest> grid;
    for (const char* method : kMethods) {
      for (const size_t memory : kSweepMemory) {
        for (const size_t page : kSweepPages) {
          grid.push_back(
              MakeRequest(kSweepName, method, memory, sweep_seed, page));
        }
      }
    }
    plan.sweeps.push_back(std::move(grid));
  }

  const uint64_t warm_base = SeedBase(&warm_rng);
  for (size_t h = 0; h < kHotKeys; ++h) {
    plan.hot.push_back(MakeRequest(kWarmName, kMethods[h % 3], kWarmMemory,
                                   warm_base + 2 * h, kPageBytes));
  }
  for (size_t i = 0; i < counts.warm_requests; ++i) {
    plan.warm.push_back(static_cast<uint32_t>(warm_rng.NextBounded(kHotKeys)));
  }
  return plan;
}

std::string Describe(const ServiceRequest& r) {
  char line[256];
  std::snprintf(line, sizeof(line), "%s %s memory=%zu q=%zu k=%zu seed=%llu "
                "page=%zu", r.dataset.c_str(), r.method.c_str(), r.memory,
                r.num_queries, r.k, static_cast<unsigned long long>(r.seed),
                r.page_bytes);
  return line;
}

/// Every request of the plan, one line each, in order.
std::string PlanText(const Plan& plan) {
  std::string text;
  for (const auto& r : plan.cold) text += "cold " + Describe(r) + "\n";
  for (const size_t i : plan.cold_measured) {
    text += "measure " + std::to_string(i) + "\n";
  }
  for (size_t s = 0; s < plan.sweeps.size(); ++s) {
    text += "warmup " + Describe(plan.sweep_warmups[s]) + "\n";
    for (const auto& r : plan.sweeps[s]) text += "sweep " + Describe(r) + "\n";
  }
  for (const auto& r : plan.hot) text += "hot " + Describe(r) + "\n";
  for (const uint32_t i : plan.warm) text += "warm " + std::to_string(i) + "\n";
  return text;
}

/// FNV-1a of PlanText.
uint64_t PlanDigest(const Plan& plan) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : PlanText(plan)) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// --- tracing ---------------------------------------------------------------

/// One call into a module: spans of one request share `request`, and a
/// span's `parent` is the span open when it began (all spans are recorded
/// on the benchmark's own thread, so they nest).
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  uint32_t request;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
    if (enabled_) spans_.reserve(1u << 20);
  }

  /// A no-op when disabled, so untraced replays may run on many threads.
  void SetRequest(uint32_t request) {
    if (enabled_) request_ = request;
  }

  int32_t Begin(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back({name, Now(), 0, current_, request_});
    current_ = static_cast<int32_t>(spans_.size() - 1);
    return current_;
  }

  void End(int32_t id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ns = Now();
    current_ = spans_[static_cast<size_t>(id)].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int32_t current_ = -1;
  uint32_t request_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// Name of the outermost span enclosing span `i`.
const char* RootName(const std::vector<Span>& spans, size_t i) {
  while (spans[i].parent >= 0) i = static_cast<size_t>(spans[i].parent);
  return spans[i].name;
}

/// Self time (span minus its children) summed per span name, over the
/// timed requests and the ground truth; untimed warm-ups are left out.
struct LayerTotals {
  struct Entry {
    double self_ms = 0.0;
    size_t calls = 0;
  };
  std::map<std::string, Entry> by_name;

  double MeanMs(const std::string& name) const {
    const auto it = by_name.find(name);
    return it == by_name.end() || it->second.calls == 0
               ? 0.0
               : it->second.self_ms / static_cast<double>(it->second.calls);
  }
  size_t Calls(const std::string& name) const {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0 : it->second.calls;
  }
};

LayerTotals SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  LayerTotals totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(RootName(spans, i), "warmup") == 0) continue;
    auto& entry = totals.by_name[spans[i].name];
    entry.self_ms +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns - child_ns[i]) /
        1e6;
    ++entry.calls;
  }
  return totals;
}

// --- helpers ---------------------------------------------------------------

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/// Bit equality of every deterministic field; the per-query vector only
/// when both sides carry it (wire replies without it are zero-filled).
bool SameResult(const core::PredictionResult& a,
                const core::PredictionResult& b, bool per_query) {
  if (!SameBits(a.avg_leaf_accesses, b.avg_leaf_accesses) ||
      !(a.io == b.io) || a.num_predicted_leaves != b.num_predicted_leaves ||
      a.h_upper != b.h_upper || !SameBits(a.sigma_upper, b.sigma_upper) ||
      !SameBits(a.sigma_lower, b.sigma_lower) ||
      a.per_query_accesses.size() != b.per_query_accesses.size()) {
    return false;
  }
  if (!per_query) return true;
  for (size_t i = 0; i < a.per_query_accesses.size(); ++i) {
    if (!SameBits(a.per_query_accesses[i], b.per_query_accesses[i])) {
      return false;
    }
  }
  return true;
}

io::DiskModel DiskFor(size_t page_bytes) {
  io::DiskModel disk;
  disk.page_bytes = page_bytes;
  return disk;
}

service::ServiceOptions SingleThreadService() {
  service::ServiceOptions options;
  options.num_shards = 1;
  options.total_threads = 1;
  return options;
}

/// The CPUs the process may use, and the subset warm_serve runs on: the
/// last kWarmCpus of them. Threads inherit the creating thread's mask, so
/// pinning the calling thread around AsyncServer::Start pins the server.
/// Measured on a 4-vCPU VM, the warm figures moved least between runs with
/// the client, acceptor, reactor and shard worker sharing two CPUs and one
/// request in flight per connection; one CPU, all four CPUs, or deeper
/// pipelines moved them by 15 to 40 percent from run to run.
struct CpuMasks {
  cpu_set_t all;
  cpu_set_t warm;

  static CpuMasks Detect() {
    CpuMasks masks;
    CPU_ZERO(&masks.all);
    CPU_ZERO(&masks.warm);
    if (::sched_getaffinity(0, sizeof(masks.all), &masks.all) != 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) CPU_SET(cpu, &masks.all);
    }
    int kept = 0;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && kept < kWarmCpus; --cpu) {
      if (CPU_ISSET(cpu, &masks.all)) {
        CPU_SET(cpu, &masks.warm);
        ++kept;
      }
    }
    return masks;
  }
};

void PinCallingThread(const cpu_set_t& mask) {
  ::sched_setaffinity(0, sizeof(mask), &mask);
}

/// Counter movement of a service across one workload's timed window.
struct CacheDelta {
  uint64_t result_hits = 0;
  uint64_t result_misses = 0;
  uint64_t workload_hits = 0;
  uint64_t workload_misses = 0;
  uint64_t evictions = 0;

  static CacheDelta Between(const service::ServiceMetrics& a,
                            const service::ServiceMetrics& b) {
    return {b.result_hits - a.result_hits, b.result_misses - a.result_misses,
            b.workload_hits - a.workload_hits,
            b.workload_misses - a.workload_misses,
            (b.result_evictions + b.workload_evictions) -
                (a.result_evictions + a.workload_evictions)};
  }
  CacheDelta& operator+=(const CacheDelta& d) {
    result_hits += d.result_hits;
    result_misses += d.result_misses;
    workload_hits += d.workload_hits;
    workload_misses += d.workload_misses;
    evictions += d.evictions;
    return *this;
  }
  double ResultHitRatio() const {
    const uint64_t n = result_hits + result_misses;
    return n == 0 ? 0.0 : static_cast<double>(result_hits) / n;
  }
  double WorkloadHitRatio() const {
    const uint64_t n = workload_hits + workload_misses;
    return n == 0 ? 0.0 : static_cast<double>(workload_hits) / n;
  }
};

/// Failures counted against attempts; each message is printed once.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool checks_ok = true;

  void Attempt(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      if (failed < 10) std::fprintf(stderr, "FAIL: %s\n", what.c_str());
      ++failed;
    }
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
      checks_ok = false;
    }
  }
};

// --- set-up ----------------------------------------------------------------

/// The services, the warm server and the warm hot set's cached results.
class World {
 public:
  World() = default;
  ~World() {
    if (server != nullptr) {
      server->Stop();
      server->Wait();
    }
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  std::unique_ptr<service::PredictionService> cold;
  std::unique_ptr<service::PredictionService> sweep;
  std::unique_ptr<service::PredictionService> warm;
  std::unique_ptr<service::AsyncServer> server;
  std::vector<core::PredictionResult> hot_results;
};

struct SetupTimes {
  double generate_s = 0.0;
  double register_s = 0.0;
  double start_s = 0.0;
  double total_s = 0.0;
};

std::unique_ptr<World> BuildWorld(const Plan& plan, const CpuMasks& cpus,
                                  SetupTimes* times, std::string* error) {
  const auto started = Clock::now();
  data::Dataset cold_data =
      data::Texture60Surrogate(kColdPoints, kDataSeed);
  data::ClusteredConfig sweep_config;
  sweep_config.num_points = kSweepPoints;
  sweep_config.dim = kSweepDim;
  common::Rng sweep_rng(kDataSeed);
  data::Dataset sweep_data = data::GenerateClustered(sweep_config, &sweep_rng);
  data::ClusteredConfig warm_config;
  warm_config.num_points = kWarmPoints;
  warm_config.dim = kWarmDim;
  common::Rng warm_rng(kDataSeed);
  data::Dataset warm_data = data::GenerateClustered(warm_config, &warm_rng);
  times->generate_s = SecondsSince(started);

  const auto registered = Clock::now();
  auto world = std::make_unique<World>();
  world->cold =
      std::make_unique<service::PredictionService>(SingleThreadService());
  world->sweep =
      std::make_unique<service::PredictionService>(SingleThreadService());
  world->warm =
      std::make_unique<service::PredictionService>(SingleThreadService());
  if (!world->cold->registry().Add(kColdName, std::move(cold_data), error) ||
      !world->sweep->registry().Add(kSweepName, std::move(sweep_data),
                                    error) ||
      !world->warm->registry().Add(kWarmName, std::move(warm_data), error)) {
    return nullptr;
  }
  times->register_s = SecondsSince(registered);

  const auto start = Clock::now();
  service::AsyncServerOptions server_options;
  server_options.num_reactors = 1;
  world->server =
      std::make_unique<service::AsyncServer>(world->warm.get(), server_options);
  PinCallingThread(cpus.warm);
  const bool started_ok = world->server->Start(error);
  PinCallingThread(cpus.all);
  if (!started_ok) {
    world->server.reset();
    return nullptr;
  }
  times->start_s = SecondsSince(start);

  for (const ServiceRequest& r : plan.hot) {
    const service::ServiceResponse response = world->warm->ServeOnShard(0, r);
    if (!response.ok) {
      *error = "hot-set warm-up failed: " + response.error;
      return nullptr;
    }
    world->hot_results.push_back(response.result);
  }
  times->total_s = SecondsSince(started);
  return world;
}

// --- direct module calls ---------------------------------------------------

workload::QueryWorkload DirectWorkload(const data::Dataset& data,
                                       const ServiceRequest& r,
                                       common::ThreadPool* pool,
                                       Tracer* tracer) {
  ScopedSpan span(tracer, "workload.create");
  const common::ExecutionContext ctx(pool, r.seed);
  common::Rng rng(r.seed);
  return workload::QueryWorkload::Create(data, r.num_queries, r.k, &rng, ctx);
}

/// The service's cold path, one public call at a time, serially like the
/// single-threaded service.
core::PredictionResult DirectPredict(const data::Dataset& data,
                                     const ServiceRequest& r,
                                     const workload::QueryWorkload& queries,
                                     Tracer* tracer, double* copy_bytes) {
  const io::DiskModel disk = DiskFor(r.page_bytes);
  const index::TreeTopology topology =
      index::TreeTopology::FromDisk(data.size(), data.dim(), disk);
  const common::ExecutionContext ctx(nullptr, r.seed);
  const uint64_t prediction_seed = r.seed + 1;
  core::PredictionResult result;
  if (r.method == "mini") {
    core::MiniIndexParams params;
    params.sampling_fraction =
        std::min(1.0, static_cast<double>(r.memory) /
                          static_cast<double>(data.size()));
    params.seed = prediction_seed;
    result.sigma_upper = params.sampling_fraction;
    std::vector<geometry::BoundingBox> leaves;
    {
      ScopedSpan span(tracer, "core.mini_leaves");
      leaves = core::BuildGrownMiniIndexLeaves(data, topology, params, ctx);
    }
    ScopedSpan span(tracer, "core.count");
    core::CountLeafIntersections(leaves, queries, &result, ctx);
    return result;
  }
  io::PagedFile file = [&] {
    ScopedSpan span(tracer, "io.copy");
    return io::PagedFile::FromDataset(data, disk);
  }();
  *copy_bytes += static_cast<double>(file.num_pages() * r.page_bytes);
  const size_t h_upper = core::ChooseHupper(topology, r.memory);
  if (r.method == "cutoff") {
    core::CutoffParams params;
    params.memory_points = r.memory;
    params.h_upper = h_upper;
    params.seed = prediction_seed;
    ScopedSpan span(tracer, "core.cutoff");
    return core::PredictWithCutoffTree(&file, topology, queries, params, ctx);
  }
  core::ResampledParams params;
  params.memory_points = r.memory;
  params.h_upper = h_upper;
  params.seed = prediction_seed;
  ScopedSpan span(tracer, "core.resampled");
  return core::PredictWithResampledTree(&file, topology, queries, params, ctx);
}

/// Ground truth the way `hdidx_predict --measure` takes it: build the index
/// on the simulated disk, then count each query's leaf accesses.
struct GroundTruth {
  double measured = 0.0;
  io::IoStats build_io;
  io::IoStats query_io;
  double measure_ms = 0.0;
};

/// The on-disk index of the cold dataset. It depends only on the dataset
/// and M, so every build yields the same tree (checked by layout digest)
/// and every resampled request can be measured against it.
struct OnDiskIndex {
  index::ExternalBuildResult built;
  uint64_t digest = 0;
  double build_ms = 0.0;
};

OnDiskIndex BuildColdIndex(const data::Dataset& data, Tracer* tracer) {
  const io::DiskModel disk = DiskFor(kPageBytes);
  const index::TreeTopology topology =
      index::TreeTopology::FromDisk(data.size(), data.dim(), disk);
  io::PagedFile file = io::PagedFile::FromDataset(data, disk);
  const common::ExecutionContext serial;
  index::ExternalBuildOptions build;
  build.topology = &topology;
  build.memory_points = kColdMemory;
  build.exec = &serial;
  const auto started = Clock::now();
  index::ExternalBuildResult built = [&] {
    ScopedSpan span(tracer, "index.build");
    return index::BuildOnDisk(&file, build);
  }();
  const double build_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - started)
          .count();
  const uint64_t digest = index::TreeLayoutDigest(built.tree);
  return OnDiskIndex{std::move(built), digest, build_ms};
}

GroundTruth MeasureOnDisk(const OnDiskIndex& on_disk,
                          const workload::QueryWorkload& queries,
                          Tracer* tracer) {
  GroundTruth truth;
  std::vector<double> accesses;
  const auto started = Clock::now();
  {
    ScopedSpan span(tracer, "index.measure");
    accesses = index::CountSphereLeafAccesses(
        on_disk.built.tree, queries.queries(), queries.radii(),
        &truth.query_io, common::ExecutionContext());
  }
  truth.measure_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - started)
          .count();
  truth.measured = common::Mean(accesses);
  truth.build_io = on_disk.built.io;
  return truth;
}

// --- cold_predict and tuning_sweep: service passes -------------------------

struct ServedRequest {
  ServiceRequest request;
  service::ServiceResponse response;
  double latency_ms = 0.0;
};

struct ColdPass {
  std::vector<ServedRequest> served;
  CacheDelta cache;
  /// The measured subset's on-disk index (every build must give the same
  /// tree) and the wall time of each build + measure.
  std::optional<OnDiskIndex> on_disk;
  std::vector<double> build_measure_ms;
};

/// Serves cold requests [begin, end) one after another, then builds and
/// measures the slice's measured requests outside the timed window, so
/// that build + measure samples span the run like the latencies do.
void ServeCold(const Plan& plan, size_t begin, size_t end,
               const data::Dataset& data, service::PredictionService* svc,
               common::ThreadPool* pool, Tracer* tracer, ColdPass* pass,
               Tally* tally) {
  const service::ServiceMetrics before = svc->Metrics();
  for (size_t i = begin; i < end; ++i) {
    const ServiceRequest& r = plan.cold[i];
    const auto t0 = Clock::now();
    service::ServiceResponse response = svc->ServeOnShard(0, r);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    tally->Attempt(response.ok, "cold " + Describe(r) + ": " + response.error);
    pass->served.push_back({r, std::move(response), ms});
  }
  pass->cache += CacheDelta::Between(before, svc->Metrics());

  for (const size_t i : plan.cold_measured) {
    if (i < begin || i >= end) continue;
    tracer->SetRequest(static_cast<uint32_t>(i + 1));
    Tracer off(false);
    const workload::QueryWorkload queries =
        DirectWorkload(data, plan.cold[i], pool, &off);
    ScopedSpan span(tracer, "ground_truth");
    OnDiskIndex fresh = BuildColdIndex(data, tracer);
    const GroundTruth truth = MeasureOnDisk(fresh, queries, tracer);
    pass->build_measure_ms.push_back(fresh.build_ms + truth.measure_ms);
    tally->Check(!pass->on_disk.has_value() ||
                     fresh.digest == pass->on_disk->digest,
                 "on-disk builds of the same dataset differ");
    if (!pass->on_disk.has_value()) pass->on_disk.emplace(std::move(fresh));
  }
}

struct SweepPass {
  std::vector<ServedRequest> served;
  std::vector<double> sweep_ms;
  CacheDelta cache;
};

/// Serves sweeps [begin, end): each an untimed warm-up, then its timed grid.
void ServeSweeps(const Plan& plan, size_t begin, size_t end,
                 service::PredictionService* svc, SweepPass* pass,
                 Tally* tally) {
  for (size_t s = begin; s < end; ++s) {
    const service::ServiceResponse warmup =
        svc->ServeOnShard(0, plan.sweep_warmups[s]);
    tally->Check(warmup.ok, "sweep warm-up failed: " + warmup.error);
    // Only the timed grid requests count toward the cache delta.
    const service::ServiceMetrics grid_before = svc->Metrics();
    const auto started = Clock::now();
    for (const ServiceRequest& r : plan.sweeps[s]) {
      const auto t0 = Clock::now();
      service::ServiceResponse response = svc->ServeOnShard(0, r);
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      tally->Attempt(response.ok,
                     "sweep " + Describe(r) + ": " + response.error);
      pass->served.push_back({r, std::move(response), ms});
    }
    pass->sweep_ms.push_back(SecondsSince(started) * 1e3);
    pass->cache += CacheDelta::Between(grid_before, svc->Metrics());
  }
}

/// Wall time of a replay's requests with the run's tracer and, in a traced
/// run, of the same requests with tracing off. A request's two runs
/// alternate in order, so that neither side always finds the warmer caches
/// and host drift reaches both alike; their difference is the tracing
/// overhead.
struct PairedTimer {
  bool paired = false;
  double traced_s = 0.0;
  double untraced_s = 0.0;
  size_t runs = 0;

  /// Runs fn(Tracer*) and returns what it returns with the given tracer.
  /// Unpaired, it only calls fn, so untraced replays may run it on many
  /// threads.
  template <typename Fn>
  auto Run(Tracer* tracer, Fn&& fn) {
    if (!paired) return fn(tracer);
    Tracer off(false);
    const auto timed = [&fn](Tracer* t, double* total) {
      const auto started = Clock::now();
      auto out = fn(t);
      *total += SecondsSince(started);
      return out;
    };
    const bool off_first = runs++ % 2 == 0;
    if (off_first) timed(&off, &untraced_s);
    auto out = timed(tracer, &traced_s);
    if (!off_first) timed(&off, &untraced_s);
    return out;
  }
};

/// Calls fn(i) for every i in [0, n): in a traced run one at a time on
/// this thread, so that spans nest; otherwise one i per pool thread. Each
/// request runs serially either way, so the bits are the same, and the
/// untraced check replay stays short.
template <typename Fn>
void ForEachRequest(size_t n, bool traced, common::ThreadPool* pool, Fn&& fn) {
  if (traced) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  common::ExecutionContext(pool).ParallelFor(
      0, n, 1, [&fn](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) fn(i);
      });
}

/// One request's direct path: its workload, prediction and copied bytes.
struct Direct {
  std::optional<workload::QueryWorkload> queries;
  core::PredictionResult result;
  double copy_bytes = 0.0;
};

struct Replay {
  PairedTimer timer;
  double copy_bytes = 0.0;
  /// cold_predict: one per resampled request.
  std::vector<GroundTruth> truths;
  std::vector<double> abs_rel_err_pct;
};

/// Replays cold_predict's list through direct calls; every service
/// response must match bit for bit. Each resampled request is measured on
/// the pass's on-disk index.
Replay ReplayCold(const Plan& plan, const ColdPass& pass,
                  const data::Dataset& data, common::ThreadPool* pool,
                  Tracer* tracer, bool traced, Tally* tally) {
  Replay replay;
  replay.timer.paired = traced;
  std::vector<Direct> direct(plan.cold.size());
  ForEachRequest(plan.cold.size(), traced, pool, [&](size_t i) {
    const ServiceRequest& r = plan.cold[i];
    tracer->SetRequest(static_cast<uint32_t>(i + 1));
    direct[i] = replay.timer.Run(tracer, [&](Tracer* t) {
      ScopedSpan span(t, "request");
      Direct d;
      d.queries.emplace(DirectWorkload(data, r, nullptr, t));
      d.result = DirectPredict(data, r, *d.queries, t, &d.copy_bytes);
      return d;
    });
  });
  tally->Check(pass.on_disk.has_value(), "no on-disk index to measure against");
  for (size_t i = 0; i < plan.cold.size(); ++i) {
    const ServiceRequest& r = plan.cold[i];
    const service::ServiceResponse& served = pass.served[i].response;
    replay.copy_bytes += direct[i].copy_bytes;
    tally->Check(served.ok && SameResult(served.result, direct[i].result, true),
                 "cold response differs from the direct core call: " +
                     Describe(r));
    if (r.method != "resampled" || !pass.on_disk.has_value()) continue;
    tracer->SetRequest(static_cast<uint32_t>(i + 1));
    ScopedSpan span(tracer, "ground_truth");
    const GroundTruth truth =
        MeasureOnDisk(*pass.on_disk, *direct[i].queries, tracer);
    replay.abs_rel_err_pct.push_back(
        100.0 * std::fabs(common::RelativeError(
                    direct[i].result.avg_leaf_accesses, truth.measured)));
    replay.truths.push_back(truth);
  }
  return replay;
}

Replay ReplaySweep(const Plan& plan, const SweepPass& pass,
                   const data::Dataset& data, common::ThreadPool* pool,
                   Tracer* tracer, bool traced, Tally* tally) {
  Replay replay;
  replay.timer.paired = traced;
  const size_t grid = plan.sweeps.empty() ? 0 : plan.sweeps[0].size();
  std::vector<Direct> direct(plan.sweeps.size() * grid);
  ForEachRequest(plan.sweeps.size(), traced, pool, [&](size_t s) {
    std::optional<workload::QueryWorkload> queries;
    {
      tracer->SetRequest(0);
      ScopedSpan span(tracer, "warmup");
      queries.emplace(
          DirectWorkload(data, plan.sweep_warmups[s], nullptr, tracer));
    }
    for (size_t g = 0; g < grid; ++g) {
      const ServiceRequest& r = plan.sweeps[s][g];
      tracer->SetRequest(static_cast<uint32_t>(s * grid + g + 1));
      direct[s * grid + g] = replay.timer.Run(tracer, [&](Tracer* t) {
        ScopedSpan span(t, "request");
        Direct d;
        d.result = DirectPredict(data, r, *queries, t, &d.copy_bytes);
        return d;
      });
    }
  });
  for (size_t i = 0; i < direct.size(); ++i) {
    const service::ServiceResponse& response = pass.served[i].response;
    replay.copy_bytes += direct[i].copy_bytes;
    tally->Check(response.ok && SameResult(response.result, direct[i].result,
                                           true),
                 "sweep response differs from the direct core call: " +
                     Describe(pass.served[i].request));
  }
  return replay;
}

// --- warm_serve ------------------------------------------------------------

bool SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = service::wire::HostToNet16(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Closes every socket it holds when it goes out of scope.
class Connections {
 public:
  Connections() = default;
  ~Connections() {
    for (const int fd : fds) ::close(fd);
  }
  Connections(const Connections&) = delete;
  Connections& operator=(const Connections&) = delete;
  std::vector<int> fds;
};

/// Reads frames from `fd` until one arrives; `buffer` keeps any surplus.
bool ReadFrame(int fd, std::string* buffer, service::wire::FrameHeader* header,
               std::string* payload) {
  for (;;) {
    size_t consumed = 0;
    std::string_view view;
    std::string error;
    const auto status = service::wire::NextFrame(
        *buffer, service::wire::kDefaultMaxPayload, &consumed, header, &view,
        &error);
    if (status == service::wire::FrameStatus::kFrame) {
      payload->assign(view);
      buffer->erase(0, consumed);
      return true;
    }
    if (status == service::wire::FrameStatus::kError) return false;
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, kPollTimeoutMs) <= 0) return false;
    char chunk[65536];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

struct WarmPass {
  /// Every request's latency, and the rounds' summed wall time.
  std::vector<double> latency_ms;
  double seconds = 0.0;
  /// Per round: completed predicts per second, latency p50 and p99.
  std::vector<double> round_rps;
  std::vector<double> round_p50_ms;
  std::vector<double> round_p99_ms;
  uint64_t completed = 0;
  CacheDelta cache;
  uint64_t served_seeks = 0;
  uint64_t served_transfers = 0;
  size_t peak_queue_depth = 0;
  uint64_t shed_total = 0;
};

/// warm_serve's client: one thread, kConnections loopback connections,
/// each keeping kWindow predicts in flight (closed loop). The list is
/// served in rounds, each drained before the next, and the client runs on
/// the server's CPU during a round. Stats are read once, by Finish().
class WarmClient {
 public:
  WarmClient(const Plan& plan, const CpuMasks& cpus, World* world,
             Tally* tally)
      : plan_(plan), cpus_(cpus), world_(world), tally_(tally),
        sent_at_(plan.warm.size()), inbox_(kConnections),
        before_(world->warm->Metrics()) {
    for (size_t c = 0; c < kConnections; ++c) {
      const int fd = Connect(world->server->port());
      if (fd < 0) {
        healthy_ = false;
        break;
      }
      conns_.fds.push_back(fd);
      pfds_.push_back({fd, POLLIN, 0});
    }
    tally_->Check(healthy_, "cannot connect to the warm server");
  }

  /// Serves warm requests [begin, end).
  void Round(size_t begin, size_t end) {
    if (!healthy_ || begin >= end) return;
    next_ = begin;
    round_end_ = end;
    latency_ms_.clear();
    PinCallingThread(cpus_.warm);
    const auto started = Clock::now();
    for (size_t c = 0; c < kConnections; ++c) {
      for (size_t w = 0; w < kWindow; ++w) SendNext(c);
    }
    while (healthy_ && pass_.completed < end) {
      if (::poll(pfds_.data(), pfds_.size(), kPollTimeoutMs) <= 0) {
        healthy_ = false;
        break;
      }
      for (size_t c = 0; c < kConnections && healthy_; ++c) {
        if ((pfds_[c].revents & (POLLIN | POLLERR | POLLHUP)) != 0) Drain(c);
      }
    }
    const double round_s = SecondsSince(started);
    PinCallingThread(cpus_.all);
    pass_.round_rps.push_back(static_cast<double>(latency_ms_.size()) /
                              round_s);
    pass_.round_p50_ms.push_back(common::Percentile(latency_ms_, 0.5));
    pass_.round_p99_ms.push_back(common::Percentile(latency_ms_, 0.99));
    pass_.latency_ms.insert(pass_.latency_ms.end(), latency_ms_.begin(),
                            latency_ms_.end());
    pass_.seconds += round_s;
  }

  /// Reads the server's stats once and returns the pass.
  WarmPass Finish() {
    namespace wire = service::wire;
    const size_t n = plan_.warm.size();
    tally_->Check(healthy_, "warm connection failed");
    for (size_t i = pass_.completed; i < n; ++i) {
      tally_->Attempt(false, "warm request " + std::to_string(i + 1) +
                                 " got no reply");
    }
    service::ServiceMetrics stats;
    wire::FrameHeader header;
    std::string payload;
    std::string error;
    const bool stats_ok =
        healthy_ && SendAll(conns_.fds[0], wire::EncodeStatsRequest(n + 1)) &&
        ReadFrame(conns_.fds[0], &inbox_[0], &header, &payload) &&
        wire::DecodeStatsResponse(header, payload, &stats, &error);
    tally_->Check(stats_ok, "warm stats op failed: " + error);
    pass_.cache = CacheDelta::Between(before_, stats);
    pass_.shed_total = stats.shed_total;
    for (const auto& shard : stats.shards) {
      pass_.peak_queue_depth =
          std::max(pass_.peak_queue_depth, shard.peak_queue_depth);
    }
    return pass_;
  }

 private:
  void SendNext(size_t c) {
    if (next_ >= round_end_) return;
    ServiceRequest r = plan_.hot[plan_.warm[next_]];
    r.id = next_ + 1;
    const std::string frame = service::wire::EncodePredictRequest(r);
    sent_at_[next_] = Clock::now();
    ++next_;
    healthy_ = SendAll(conns_.fds[c], frame) && healthy_;
  }

  /// Receives what connection `c` has ready; answers each reply with the
  /// connection's next request.
  void Drain(size_t c) {
    namespace wire = service::wire;
    char chunk[65536];
    const ssize_t got = ::recv(conns_.fds[c], chunk, sizeof(chunk), 0);
    if (got <= 0) {
      healthy_ = false;
      return;
    }
    std::string& buffer = inbox_[c];
    buffer.append(chunk, static_cast<size_t>(got));
    size_t offset = 0;
    for (;;) {
      size_t consumed = 0;
      wire::FrameHeader header;
      std::string_view payload;
      std::string error;
      const auto status = wire::NextFrame(
          std::string_view(buffer).substr(offset), wire::kDefaultMaxPayload,
          &consumed, &header, &payload, &error);
      if (status == wire::FrameStatus::kNeedMore) break;
      if (status == wire::FrameStatus::kError || header.id == 0 ||
          header.id > sent_at_.size()) {
        healthy_ = false;
        break;
      }
      offset += consumed;
      wire::PredictReply reply;
      const bool decoded =
          wire::DecodePredictResponse(header, payload, &reply, &error);
      const auto now = Clock::now();
      const size_t index = header.id - 1;
      latency_ms_.push_back(
          std::chrono::duration<double, std::milli>(now - sent_at_[index])
              .count());
      ++pass_.completed;
      const service::ServiceResponse& response = reply.response;
      pass_.served_seeks += response.served_io.page_seeks;
      pass_.served_transfers += response.served_io.page_transfers;
      tally_->Attempt(
          decoded && !reply.shed && response.ok && response.cache_hit &&
              SameResult(response.result,
                         world_->hot_results[plan_.warm[index]], false),
          "warm reply " + std::to_string(header.id) +
              " does not decode to the cached cold result");
      SendNext(c);
    }
    buffer.erase(0, offset);
  }

  const Plan& plan_;
  const CpuMasks& cpus_;
  World* world_;
  Tally* tally_;
  Connections conns_;
  std::vector<pollfd> pfds_;
  std::vector<Clock::time_point> sent_at_;
  std::vector<std::string> inbox_;
  std::vector<double> latency_ms_;
  const service::ServiceMetrics before_;
  WarmPass pass_;
  size_t next_ = 0;
  size_t round_end_ = 0;
  bool healthy_ = true;
};

/// warm_serve's request list through direct calls: encode, decode, serve,
/// encode, decode — every step the socket path takes besides the socket.
Replay ReplayWarm(const Plan& plan, World* world, Tracer* tracer,
                  Tally* tally) {
  namespace wire = service::wire;
  Replay replay;
  replay.timer.paired = true;
  for (size_t i = 0; i < plan.warm.size(); ++i) {
    tracer->SetRequest(static_cast<uint32_t>(i + 1));
    ServiceRequest r = plan.hot[plan.warm[i]];
    r.id = i + 1;
    const auto [ok, reply] = replay.timer.Run(tracer, [&](Tracer* t) {
      ScopedSpan request_span(t, "request");
      std::string frame;
      {
        ScopedSpan span(t, "wire.encode_request");
        frame = wire::EncodePredictRequest(r);
      }
      size_t consumed = 0;
      wire::FrameHeader header;
      std::string_view payload;
      std::string error;
      service::RequestLine line;
      bool decoded = wire::NextFrame(frame, wire::kDefaultMaxPayload,
                                     &consumed, &header, &payload, &error) ==
                     wire::FrameStatus::kFrame;
      {
        ScopedSpan span(t, "wire.decode_request");
        decoded = decoded && wire::DecodeRequest(header, payload, &line, &error);
      }
      service::ServiceResponse response;
      {
        ScopedSpan span(t, "service.hit");
        response = world->warm->ServeOnShard(0, line.predict);
      }
      std::string reply_frame;
      {
        ScopedSpan span(t, "wire.encode_response");
        reply_frame = wire::EncodePredictResponse(response, false);
      }
      decoded = decoded &&
                wire::NextFrame(reply_frame, wire::kDefaultMaxPayload,
                                &consumed, &header, &payload, &error) ==
                    wire::FrameStatus::kFrame;
      wire::PredictReply decoded_reply;
      {
        ScopedSpan span(t, "wire.decode_response");
        decoded = decoded && wire::DecodePredictResponse(header, payload,
                                                         &decoded_reply, &error);
      }
      return std::pair(decoded, std::move(decoded_reply));
    });
    tally->Check(ok && reply.response.cache_hit &&
                     SameResult(reply.response.result,
                                world->hot_results[plan.warm[i]], false),
                 "warm replay differs from the cached cold result");
  }
  return replay;
}

// --- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void PrintResult(const std::vector<Metric>& metrics, const Tally& tally,
                 const std::string& context) {
  std::printf("# context %s\n", context.c_str());
  std::printf("# %-28s %22s %-8s %8s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    std::printf("# %-28s %22.6f %-8s %8zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("# failed/attempted: %llu/%llu, checks %s\n",
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted),
              tally.checks_ok ? "passed" : "FAILED");
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 && tally.checks_ok ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max<uint64_t>(1, tally.attempted));
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name +
            "\": {\"value\": " + Num(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string JsonSamples(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": " + std::to_string(metrics[i].samples);
  }
  return out + "}";
}

/// Writes the context and every span as [name, start_ns, end_ns, parent,
/// request], with names as indices into "names".
bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                const std::string& context) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::map<std::string, size_t> ids;
  for (const Span& s : spans) ids.emplace(s.name, ids.size());
  std::vector<const std::string*> names(ids.size());
  for (const auto& [name, id] : ids) names[id] = &name;
  std::fprintf(f, "{\"context\": %s,\n\"names\": [", context.c_str());
  for (size_t i = 0; i < names.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i > 0 ? ", " : "", names[i]->c_str());
  }
  std::fprintf(f, "],\n\"spans\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "[%zu,%lld,%lld,%d,%u]%s\n", ids[s.name],
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.request,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double Median(std::vector<double> v) {
  return common::Percentile(std::move(v), 0.5);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string error;
  if (!ParseOptions(argc, argv, &options, &error)) {
    std::fprintf(stderr,
                 "predictbench: %s\nusage: predictbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
                 "[--list-requests]\n",
                 error.c_str());
    return 2;
  }
  const Counts counts = CountsFor(options.seconds);
  const Plan plan = MakePlan(options.seed, counts);
  if (options.list_requests) {
    std::fputs(PlanText(plan).c_str(), stdout);
    return 0;
  }

  const bool traced = options.trace == 1;
  const bool run_cold = !traced || options.workload == "cold_predict";
  const bool run_sweep = !traced || options.workload == "tuning_sweep";
  const bool run_warm = !traced || options.workload == "warm_serve";
  const CpuMasks cpus = CpuMasks::Detect();
  // Like `nproc`: the CPUs this process may run on.
  const size_t nproc = static_cast<size_t>(std::max(1, CPU_COUNT(&cpus.all)));
  // The untraced check replay fans out one request per thread; the traced
  // replay stays on one thread like the timed pass.
  const size_t replay_threads = traced ? 1 : std::min<size_t>(4, nproc);

  // Threads and connections of each component; the warm window runs the
  // client, acceptor, reactor and shard worker at once.
  struct Component {
    const char* name;
    size_t threads;
    size_t connections;
  };
  const Component components[] = {
      {"cold_client", 1, 0},        {"sweep_client", 1, 0},
      {"warm_client", 1, kConnections}, {"server_acceptor", 1, 0},
      {"server_reactor", 1, 0},     {"server_shard_worker", 1, 0},
      {"check_replay", replay_threads, 0}};
  const size_t warm_window_threads = 4;
  Tally tally;
  tally.Check(warm_window_threads <= nproc && replay_threads <= nproc,
              "components need more threads than nproc");

  // Set-up: first the world that serves the run, then a spare one at the
  // start of every kSetupEvery-th later round, so that the set-up samples
  // span the run like the timed passes do.
  std::vector<double> setup_s, generate_s, register_s, start_s;
  const auto set_up = [&]() {
    SetupTimes times;
    std::unique_ptr<World> built = BuildWorld(plan, cpus, &times, &error);
    if (built == nullptr) {
      std::fprintf(stderr, "predictbench: set-up failed: %s\n", error.c_str());
    } else {
      setup_s.push_back(times.total_s);
      generate_s.push_back(times.generate_s);
      register_s.push_back(times.register_s);
      start_s.push_back(times.start_s);
    }
    return built;
  };
  const std::unique_ptr<World> world = set_up();
  if (world == nullptr) return 1;
  const data::Dataset& cold_data = *world->cold->registry().Find(kColdName);
  const data::Dataset& sweep_data = *world->sweep->registry().Find(kSweepName);

  // Untraced timed passes, interleaved in rounds so that each workload's
  // samples span the whole run rather than one slice of it. Only the cold
  // ground truth, outside the timed windows, records spans.
  Tracer tracer(traced);
  common::ThreadPool pool(replay_threads);
  ColdPass cold;
  SweepPass sweep;
  WarmPass warm;
  {
    std::optional<WarmClient> warm_client;
    if (run_warm) warm_client.emplace(plan, cpus, world.get(), &tally);
    for (size_t round = 0; round < kRounds; ++round) {
      if (round > 0 && round % kSetupEvery == 0 && set_up() == nullptr) {
        return 1;
      }
      const auto slice = [round](size_t n) {
        return std::pair<size_t, size_t>{n * round / kRounds,
                                         n * (round + 1) / kRounds};
      };
      if (run_cold) {
        const auto [begin, end] = slice(plan.cold.size());
        ServeCold(plan, begin, end, cold_data, world->cold.get(), &pool,
                  &tracer, &cold, &tally);
      }
      if (run_sweep) {
        const auto [begin, end] = slice(plan.sweeps.size());
        ServeSweeps(plan, begin, end, world->sweep.get(), &sweep, &tally);
      }
      if (run_warm) {
        const auto [begin, end] = slice(plan.warm.size());
        warm_client->Round(begin, end);
      }
    }
    if (run_warm) warm = warm_client->Finish();
  }

  // Checks and the traced replay; a traced run also times each replayed
  // request with tracing off, for the tracing overhead.
  Replay cold_replay;
  Replay sweep_replay;
  Replay warm_replay;
  if (run_cold) {
    cold_replay =
        ReplayCold(plan, cold, cold_data, &pool, &tracer, traced, &tally);
  }
  if (run_sweep) {
    sweep_replay =
        ReplaySweep(plan, sweep, sweep_data, &pool, &tracer, traced, &tally);
  }
  if (traced && run_warm) {
    warm_replay = ReplayWarm(plan, world.get(), &tracer, &tally);
  }

  // Layer-separation checks: each workload must measure its own layers.
  if (run_cold) {
    tally.Check(cold.cache.result_hits == 0 && cold.cache.workload_hits == 0,
                "cold_predict hit a cache");
    tally.Check(cold.cache.evictions > 0 || plan.cold.size() <= 32,
                "cold_predict never evicted");
  }
  if (run_sweep) {
    tally.Check(sweep.cache.result_hits == 0 &&
                    sweep.cache.WorkloadHitRatio() == 1.0,
                "tuning_sweep timed requests are not all workload hits and "
                "result misses");
  }
  if (run_warm) {
    tally.Check(warm.cache.ResultHitRatio() == 1.0 &&
                    warm.served_seeks + warm.served_transfers == 0,
                "warm_serve requests are not all result hits at zero I/O");
  }
  if (traced && run_sweep) {
    const std::vector<Span>& spans = tracer.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      tally.Check(std::strcmp(spans[i].name, "workload.create") != 0 ||
                      std::strcmp(RootName(spans, i), "request") != 0,
                  "tuning_sweep created a workload inside a timed request");
    }
  }

  // Context recorded with every result.
  std::string context = "{\"workload\": \"" + options.workload +
                        "\", \"seed\": " + std::to_string(options.seed) +
                        ", \"seconds\": " + std::to_string(options.seconds) +
                        ", \"trace\": " + std::to_string(options.trace);
  context += ", \"kernel_mode\": \"" +
             std::string(geometry::kernels::KernelModeName(
                 geometry::kernels::ActiveKernelMode())) +
             "\", \"best_kernel_mode\": \"" +
             std::string(geometry::kernels::KernelModeName(
                 geometry::kernels::BestKernelMode())) +
             "\", \"HDIDX_KERNEL\": \"" +
             (std::getenv("HDIDX_KERNEL") != nullptr
                  ? std::string(std::getenv("HDIDX_KERNEL"))
                  : std::string()) +
             "\", \"build_type\": \"" PREDICTBENCH_BUILD_TYPE
             "\", \"nproc\": " +
             std::to_string(nproc);
  context += ", \"components\": [";
  for (size_t i = 0; i < std::size(components); ++i) {
    context += std::string(i > 0 ? ", " : "") + "{\"name\": \"" +
               components[i].name + "\", \"threads\": " +
               std::to_string(components[i].threads) + ", \"connections\": " +
               std::to_string(components[i].connections) + "}";
  }
  context += "], \"warm_window\": {\"connections\": " +
             std::to_string(kConnections) + ", \"window\": " +
             std::to_string(kWindow) + ", \"threads\": " +
             std::to_string(warm_window_threads) + ", \"cpus\": " +
             std::to_string(CPU_COUNT(&cpus.warm)) + "}";
  context += ", \"datasets\": [{\"name\": \"" + std::string(kColdName) +
             "\", \"points\": " + std::to_string(kColdPoints) +
             ", \"dim\": " + std::to_string(kColdDim) +
             ", \"workload\": \"cold_predict\"}, {\"name\": \"" +
             kSweepName + "\", \"points\": " + std::to_string(kSweepPoints) +
             ", \"dim\": " + std::to_string(kSweepDim) +
             ", \"workload\": \"tuning_sweep\"}, {\"name\": \"" + kWarmName +
             "\", \"points\": " + std::to_string(kWarmPoints) +
             ", \"dim\": " + std::to_string(kWarmDim) +
             ", \"workload\": \"warm_serve\"}]";
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(PlanDigest(plan)));
  context += ", \"requests\": {\"cold\": " + std::to_string(plan.cold.size()) +
             ", \"cold_measured\": " +
             std::to_string(plan.cold_measured.size()) +
             ", \"sweeps\": " + std::to_string(plan.sweeps.size()) +
             ", \"sweep_grid\": " +
             std::to_string(plan.sweeps.empty() ? 0 : plan.sweeps[0].size()) +
             ", \"warm\": " + std::to_string(plan.warm.size()) +
             ", \"digest\": \"" + digest + "\"}";

  if (run_warm) {
    const auto list = [](const std::vector<double>& v) {
      std::string out = "[";
      for (size_t i = 0; i < v.size(); ++i) {
        out += (i > 0 ? ", " : "") + Num(v[i]);
      }
      return out + "]";
    };
    context += ", \"warm_rounds\": {\"rps\": " + list(warm.round_rps) +
               ", \"p50_ms\": " + list(warm.round_p50_ms) +
               ", \"p99_ms\": " + list(warm.round_p99_ms) + "}";
  }

  std::vector<Metric> metrics;
  const auto add = [&](const std::string& name, double value,
                       const std::string& unit, size_t samples) {
    metrics.push_back({name, value, unit, samples});
  };
  if (!traced) {
    std::vector<double> by_method[3];
    double sim_s = 0.0;
    for (size_t i = 0; i < cold.served.size(); ++i) {
      by_method[i % 3].push_back(cold.served[i].latency_ms);
      sim_s += cold.served[i].response.result.io.CostSeconds(
          DiskFor(cold.served[i].request.page_bytes));
    }
    double build_sim = 0.0;
    for (const GroundTruth& t : cold_replay.truths) {
      build_sim += (t.build_io + t.query_io).CostSeconds(DiskFor(kPageBytes));
    }
    const size_t truths = cold_replay.truths.size();
    // Cold, build and sweep times are reported as p90s. A shared host runs
    // in a fast and a slow state that switch within seconds. The share of
    // slow time changes from run to run and moves medians with it; the p90
    // reads the slow state's own speed, which changes much less.
    add("cold_p90_ms.mini", common::Percentile(by_method[0], 0.9), "ms",
        by_method[0].size());
    add("cold_p90_ms.cutoff", common::Percentile(by_method[1], 0.9), "ms",
        by_method[1].size());
    add("cold_p90_ms.resampled", common::Percentile(by_method[2], 0.9), "ms",
        by_method[2].size());
    add("build_measure_p90_ms", common::Percentile(cold.build_measure_ms, 0.9),
        "ms", cold.build_measure_ms.size());
    add("predict_sim_s", sim_s / static_cast<double>(cold.served.size()), "s",
        cold.served.size());
    add("build_sim_s", build_sim / static_cast<double>(truths), "s", truths);
    add("pred_err_pct", common::Mean(cold_replay.abs_rel_err_pct), "%",
        truths);
    add("sweep_p90_ms", common::Percentile(sweep.sweep_ms, 0.9), "ms",
        sweep.sweep_ms.size());
    add("warm_rps", static_cast<double>(warm.completed) / warm.seconds,
        "req/s", warm.completed);
    add("warm_p50_ms", common::Percentile(warm.latency_ms, 0.5), "ms",
        warm.latency_ms.size());
    add("warm_p99_ms", common::Percentile(warm.latency_ms, 0.99), "ms",
        warm.latency_ms.size());
    add("setup_s", Median(setup_s), "s", setup_s.size());
  } else {
    // Per-layer metrics of the named workload; layers it does not reach
    // read 0, which is the layer-separation evidence. Only the named
    // workload ran, so the other passes are empty.
    const LayerTotals layers = SelfTimes(tracer.spans());
    const bool is_cold = options.workload == "cold_predict";
    const bool is_sweep = options.workload == "tuning_sweep";
    const bool is_warm = options.workload == "warm_serve";
    const std::vector<ServedRequest>& served =
        is_cold ? cold.served : sweep.served;
    const Replay& replay =
        is_cold ? cold_replay : (is_sweep ? sweep_replay : warm_replay);
    double seeks = 0.0;
    double transfers = 0.0;
    for (const ServedRequest& s : served) {
      seeks += static_cast<double>(s.response.result.io.page_seeks);
      transfers += static_cast<double>(s.response.result.io.page_transfers);
    }
    const double requests =
        static_cast<double>(std::max<size_t>(1, served.size()));
    const size_t copies = layers.Calls("io.copy");
    add("workload.create_ms", layers.MeanMs("workload.create"), "ms",
        layers.Calls("workload.create"));
    add("io.copy_ms", layers.MeanMs("io.copy"), "ms", copies);
    add("io.copy_bytes",
        copies == 0 ? 0.0 : replay.copy_bytes / static_cast<double>(copies),
        "bytes", copies);
    add("io.page_seeks", seeks / requests, "count", served.size());
    add("io.page_transfers", transfers / requests, "count", served.size());
    add("core.mini_leaves_ms", layers.MeanMs("core.mini_leaves"), "ms",
        layers.Calls("core.mini_leaves"));
    add("core.count_ms", layers.MeanMs("core.count"), "ms",
        layers.Calls("core.count"));
    add("core.cutoff_ms", layers.MeanMs("core.cutoff"), "ms",
        layers.Calls("core.cutoff"));
    add("core.resampled_ms", layers.MeanMs("core.resampled"), "ms",
        layers.Calls("core.resampled"));
    double build_seeks = 0.0;
    double build_transfers = 0.0;
    for (const GroundTruth& t : cold_replay.truths) {
      build_seeks += static_cast<double>(t.build_io.page_seeks);
      build_transfers += static_cast<double>(t.build_io.page_transfers);
    }
    const double builds =
        static_cast<double>(std::max<size_t>(1, cold_replay.truths.size()));
    add("index.build_ms", layers.MeanMs("index.build"), "ms",
        layers.Calls("index.build"));
    add("index.measure_ms", layers.MeanMs("index.measure"), "ms",
        layers.Calls("index.measure"));
    add("index.build_seeks", build_seeks / builds, "count",
        layers.Calls("index.build"));
    add("index.build_transfers", build_transfers / builds, "count",
        layers.Calls("index.build"));
    add("service.hit_us", layers.MeanMs("service.hit") * 1e3, "us",
        layers.Calls("service.hit"));
    const CacheDelta& cache =
        is_cold ? cold.cache : (is_sweep ? sweep.cache : warm.cache);
    add("service.result_hit_ratio", cache.ResultHitRatio(), "ratio",
        cache.result_hits + cache.result_misses);
    add("service.workload_hit_ratio", cache.WorkloadHitRatio(), "ratio",
        cache.workload_hits + cache.workload_misses);
    add("service.evictions", static_cast<double>(cache.evictions), "count", 1);
    const double encode_us = (layers.MeanMs("wire.encode_request") +
                              layers.MeanMs("wire.encode_response")) * 1e3;
    const double decode_us = (layers.MeanMs("wire.decode_request") +
                              layers.MeanMs("wire.decode_response")) * 1e3;
    add("wire.encode_us", encode_us, "us", layers.Calls("wire.encode_request"));
    add("wire.decode_us", decode_us, "us", layers.Calls("wire.decode_request"));
    const double socket_us =
        is_warm ? common::Percentile(warm.latency_ms, 0.5) * 1e3 -
                      layers.MeanMs("service.hit") * 1e3 - encode_us -
                      decode_us
                : 0.0;
    add("server.socket_us", socket_us, "us", warm.completed);
    add("server.peak_queue_depth", static_cast<double>(warm.peak_queue_depth),
        "count", is_warm ? 1 : 0);
    add("server.shed_total", static_cast<double>(warm.shed_total), "count",
        is_warm ? 1 : 0);
    add("data.generate_s", Median(generate_s), "s", generate_s.size());
    add("service.register_s", Median(register_s), "s", register_s.size());
    add("server.start_s", Median(start_s), "s", start_s.size());
    add("trace.overhead_pct",
        100.0 * (replay.timer.traced_s - replay.timer.untraced_s) /
            replay.timer.untraced_s,
        "%", tracer.spans().size());

    // One file per workload: the latest traced run replaces the previous.
    const std::string path =
        options.out_dir + "/trace_" + options.workload + ".json";
    tally.Check(WriteTrace(path, tracer.spans(), context),
                "cannot write " + path);
  }
  context += ", \"samples\": " + JsonSamples(metrics) + "}";
  PrintResult(metrics, tally, context);
  return tally.failed == 0 && tally.checks_ok ? 0 : 1;
}
