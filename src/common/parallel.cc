#include "common/parallel.h"

#include <algorithm>
#include <cstdlib>

namespace hdidx::common {

namespace {

/// True while the current thread is executing pool work: nested ParallelFor
/// calls detect this and degrade to inline serial execution instead of
/// waiting on a pool that is busy running their parent job.
thread_local bool tls_in_parallel_section = false;

std::atomic<size_t> g_thread_count_override{0};

size_t EnvThreadCount() {
  const char* env = std::getenv("HDIDX_THREADS");
  if (env == nullptr) return 0;
  const long value = std::strtol(env, nullptr, 10);
  return value > 0 ? static_cast<size_t>(value) : 0;
}

void RunSerial(size_t begin, size_t end, size_t grain,
               const std::function<void(size_t, size_t)>& fn) {
  for (size_t chunk_begin = begin; chunk_begin < end; chunk_begin += grain) {
    fn(chunk_begin, std::min(end, chunk_begin + grain));
  }
}

}  // namespace

size_t ThreadCount() {
  const size_t override =
      g_thread_count_override.load(std::memory_order_relaxed);
  if (override > 0) return override;
  const size_t env = EnvThreadCount();
  if (env > 0) return env;
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

void SetThreadCount(size_t n) {
  g_thread_count_override.store(n, std::memory_order_relaxed);
}

size_t DefaultGrain(size_t n, size_t threads) {
  if (threads <= 1) return std::max<size_t>(1, n);
  return std::max<size_t>(1, n / (threads * 4));
}

ThreadPool::ThreadPool(size_t num_threads)
    : num_threads_(std::max<size_t>(1, num_threads)) {
  workers_.reserve(num_threads_ - 1);
  for (size_t i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& w : workers_) w.join();
  // Workers drain queued tasks before exiting, but a task submitted after
  // the last worker passed its shutdown check would be stranded — run any
  // leftovers here so a Submit-based completion is always signaled.
  std::deque<std::function<void()>> leftover;
  {
    MutexLock lock(&mu_);
    leftover.swap(tasks_);
  }
  for (const auto& task : leftover) RunTask(task);
}

void ThreadPool::WorkerLoop() {
  uint32_t seen_epoch = 0;
  for (;;) {
    size_t num_chunks;
    mu_.Lock();
    while (!shutdown_ && job_epoch_ == seen_epoch && tasks_.empty()) {
      work_cv_.Wait(mu_);
    }
    if (!tasks_.empty()) {
      // Tasks before chunks: a prefetch fill someone may already be
      // blocked on beats stealing one more chunk of a job that has the
      // whole pool on it. Also drains the queue on shutdown.
      std::function<void()> task = std::move(tasks_.front());
      tasks_.pop_front();
      mu_.Unlock();
      RunTask(task);
      continue;
    }
    if (shutdown_) {
      mu_.Unlock();
      return;
    }
    seen_epoch = job_epoch_;
    num_chunks = num_chunks_;
    mu_.Unlock();
    RunChunks(seen_epoch, num_chunks);
  }
}

void ThreadPool::RunTask(const std::function<void()>& task) {
  const bool was_in_section = tls_in_parallel_section;
  tls_in_parallel_section = true;
  task();
  tls_in_parallel_section = was_in_section;
}

void ThreadPool::Submit(std::function<void()> task) {
  if (num_threads_ == 1) {
    RunTask(task);
    return;
  }
  {
    MutexLock lock(&mu_);
    tasks_.push_back(std::move(task));
  }
  work_cv_.NotifyOne();
}

void ThreadPool::RunChunks(uint32_t epoch, size_t num_chunks) {
  const bool was_in_section = tls_in_parallel_section;
  tls_in_parallel_section = true;
  for (;;) {
    const uint64_t claim = claim_.fetch_add(1, std::memory_order_acq_rel);
    const uint32_t claim_epoch = static_cast<uint32_t>(claim >> 32);
    const size_t chunk = static_cast<size_t>(claim & 0xffffffffULL);
    if (claim_epoch != epoch) {
      // A job was published since our last claim. Adopt it only if it is
      // still the current job: the claim may come from a job that already
      // drained, whose ParallelFor may be returning (nulling job_fn_) or
      // publishing the next job's fields right now. Checking the epoch under
      // mu_ orders this read after any such write; a stale claim is simply
      // dropped, and the next claim sees the newer epoch, because
      // publication stores claim_ under the same lock.
      MutexLock lock(&mu_);
      if (job_epoch_ != claim_epoch) continue;
      epoch = claim_epoch;
      num_chunks = num_chunks_;
    }
    if (chunk >= num_chunks) break;
    const size_t chunk_begin = job_begin_ + chunk * job_grain_;
    const size_t chunk_end = std::min(job_end_, chunk_begin + job_grain_);
    try {
      (*job_fn_)(chunk_begin, chunk_end);
    } catch (...) {
      MutexLock lock(&mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    if (chunks_done_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        num_chunks) {
      // Last chunk: wake the thread blocked in ParallelFor.
      MutexLock lock(&mu_);
      done_cv_.NotifyAll();
    }
  }
  tls_in_parallel_section = was_in_section;
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t, size_t)>& fn) {
  if (begin >= end) return;
  grain = std::max<size_t>(1, grain);
  // Serial pool, nested call from inside a parallel section, or a range that
  // fits in one chunk: run inline without fanning out.
  if (num_threads_ == 1 || tls_in_parallel_section || end - begin <= grain) {
    RunSerial(begin, end, grain, fn);
    return;
  }

  MutexLock submit_lock(&submit_mu_);
  uint32_t epoch;
  size_t num_chunks;
  {
    MutexLock lock(&mu_);
    epoch = ++job_epoch_;
    job_fn_ = &fn;
    job_begin_ = begin;
    job_end_ = end;
    job_grain_ = grain;
    num_chunks = num_chunks_ = (end - begin + grain - 1) / grain;
    chunks_done_.store(0, std::memory_order_relaxed);
    first_error_ = nullptr;
    claim_.store(static_cast<uint64_t>(epoch) << 32,
                 std::memory_order_release);
  }
  work_cv_.NotifyAll();

  // The calling thread works too.
  RunChunks(epoch, num_chunks);

  mu_.Lock();
  while (chunks_done_.load(std::memory_order_acquire) != num_chunks) {
    done_cv_.Wait(mu_);
  }
  job_fn_ = nullptr;
  std::exception_ptr error = first_error_;
  first_error_ = nullptr;
  mu_.Unlock();
  if (error) std::rethrow_exception(error);
}

void ExecutionContext::ParallelFor(
    size_t begin, size_t end, size_t grain,
    const std::function<void(size_t, size_t)>& fn) const {
  if (begin >= end) return;
  if (grain == 0) grain = DefaultGrain(end - begin, threads());
  if (pool == nullptr) {
    RunSerial(begin, end, std::max<size_t>(1, grain), fn);
    return;
  }
  pool->ParallelFor(begin, end, grain, fn);
}

const ExecutionContext& DefaultExecutionContext() {
  // Leaked intentionally: worker threads must outlive every static-destruction
  //-order client, and the pool blocks on join in its destructor.
  static ThreadPool* pool = new ThreadPool(ThreadCount());
  static ExecutionContext context(pool);
  return context;
}

}  // namespace hdidx::common
