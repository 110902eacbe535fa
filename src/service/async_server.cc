#include "service/async_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "service/protocol.h"

namespace hdidx::service {

namespace {

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message + ": " + std::strerror(errno);
  return false;
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Every socket write goes through here: MSG_NOSIGNAL turns a peer that
/// vanished mid-response into an EPIPE return (handled at the call site)
/// instead of a process-killing SIGPIPE.
ssize_t SendBytes(int fd, const char* data, size_t size) {
  return ::send(fd, data, size, MSG_NOSIGNAL);
}

/// Writes as much of out[*offset, size) as the socket takes now, advancing
/// *offset. Returns false when the peer vanished mid-write.
bool WriteOut(int fd, const std::string& out, size_t* offset) {
  while (*offset < out.size()) {
    const ssize_t n = SendBytes(fd, out.data() + *offset, out.size() - *offset);
    if (n > 0) {
      *offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  return true;
}

/// Final-flush grace at shutdown: per connection, at most this many
/// POLLOUT waits of kFlushPollMs each before the fd is closed anyway.
constexpr int kFlushPollRounds = 10;
constexpr int kFlushPollMs = 20;

void WakeEventFd(int fd) {
  const uint64_t one = 1;
  // An eventfd write only fails if the counter would overflow, in which
  // case the reader is already signaled — safe to ignore.
  (void)!::write(fd, &one, sizeof(one));
}

void DrainEventFd(int fd) {
  uint64_t value = 0;
  while (::read(fd, &value, sizeof(value)) > 0) {
  }
}

/// One accepted socket. The reactor that owns the connection is the only
/// thread that reads it and the only thread that writes the fd; shard
/// workers hand response bytes over through the mutex-guarded outbound
/// buffer and an eventfd nudge.
struct Connection {
  Connection(int fd_in, size_t reactor_in) : fd(fd_in), reactor(reactor_in) {}

  const int fd;
  /// Index of the owning reactor (fixed at accept time).
  const size_t reactor;

  common::Mutex mu;
  /// Bytes awaiting write; [out_offset, size) is the undrained suffix.
  std::string outbound HDIDX_GUARDED_BY(mu);
  size_t out_offset HDIDX_GUARDED_BY(mu) = 0;
  bool closed HDIDX_GUARDED_BY(mu) = false;
  bool close_after_flush HDIDX_GUARDED_BY(mu) = false;

  /// Read/framing state, touched only by the owning reactor thread.
  std::string inbound HDIDX_UNGUARDED;
  /// Fixed by the first byte: '{' starts JSON lines, anything else the
  /// binary wire protocol, whose magic starts with 0x48.
  std::optional<Framing> framing HDIDX_UNGUARDED;
  /// Next id for a JSON predict line without one.
  uint64_t next_json_id HDIDX_UNGUARDED = 1;
  /// Epoll interest currently registered — owning reactor only.
  uint32_t armed_events HDIDX_UNGUARDED = 0;
  bool reading_paused HDIDX_UNGUARDED = false;
};

/// A predict waiting for its shard worker. A binary predict stays encoded:
/// the reactor only peeks the routing key (dataset → shard), so payload
/// decode cost lands on the worker, not the shared event loop; the payload
/// is copied out of the connection's inbound buffer, which the reactor
/// compacts as soon as the frame is consumed. A JSON predict was parsed on
/// the reactor (its routing key is inside the text) and travels parsed.
struct QueueItem {
  std::shared_ptr<Connection> conn;
  /// Binary framing: the frame, decoded by the worker.
  wire::FrameHeader header;
  std::string payload;
  /// JSON framing: the parsed request (null for a binary frame).
  std::unique_ptr<ServiceRequest> request;
};

/// Bounded admission queue in front of one shard worker. TryPush refuses
/// (and counts a shed) at capacity; Pause/WaitIdle quiesce the worker for
/// registry loads and the deterministic backpressure tests.
class ShardQueue {
 public:
  explicit ShardQueue(size_t capacity) : capacity_(capacity) {}

  /// False (shed counted) when the queue is at capacity or draining.
  bool TryPush(QueueItem&& item) {
    common::MutexLock lock(&mu_);
    if (draining_ || items_.size() >= capacity_) {
      ++shed_;
      return false;
    }
    items_.push_back(std::move(item));
    if (items_.size() > peak_depth_) peak_depth_ = items_.size();
    cv_.NotifyAll();
    return true;
  }

  /// Blocks for the next item; false once Shutdown() was called. The
  /// caller must FinishItem() after serving each popped item.
  bool Pop(QueueItem* out) {
    common::MutexLock lock(&mu_);
    while (shutdown_ ? false : (paused_ || items_.empty())) {
      cv_.Wait(mu_);
    }
    if (shutdown_) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    ++active_;
    return true;
  }

  void FinishItem() {
    common::MutexLock lock(&mu_);
    --active_;
    cv_.NotifyAll();
  }

  void Shutdown() {
    common::MutexLock lock(&mu_);
    shutdown_ = true;
    cv_.NotifyAll();
  }

  void Pause() {
    common::MutexLock lock(&mu_);
    paused_ = true;
  }

  void Resume() {
    common::MutexLock lock(&mu_);
    paused_ = false;
    cv_.NotifyAll();
  }

  /// After this every TryPush sheds — the queue admits no new work, so a
  /// subsequent WaitIdle() has a finite frontier even under sustained
  /// arrivals. Used by the shutdown path; never cleared.
  void BeginDrain() {
    common::MutexLock lock(&mu_);
    draining_ = true;
  }

  /// Blocks until no popped item is still being served. Queued items may
  /// remain: this is the quiesce to pair with Pause(), which parks the
  /// worker and therefore makes waiting for an *empty* queue a deadlock.
  void WaitActiveDrained() {
    common::MutexLock lock(&mu_);
    while (active_ != 0) cv_.Wait(mu_);
  }

  /// Blocks until nothing is queued or being served (responses for all
  /// admitted requests are buffered on their connections by then). The
  /// worker must be running (not paused) for the queue to drain.
  void WaitIdle() {
    common::MutexLock lock(&mu_);
    while (!items_.empty() || active_ != 0) cv_.Wait(mu_);
  }

  /// Fills the queue-depth, peak-depth and shed gauges of `out`.
  void ReadGauges(ServiceMetrics::Shard* out) const {
    common::MutexLock lock(&mu_);
    out->queue_depth = items_.size();
    out->peak_queue_depth = peak_depth_;
    out->shed = shed_;
  }

 private:
  const size_t capacity_;
  mutable common::Mutex mu_;
  common::CondVar cv_;
  std::deque<QueueItem> items_ HDIDX_GUARDED_BY(mu_);
  size_t active_ HDIDX_GUARDED_BY(mu_) = 0;
  size_t peak_depth_ HDIDX_GUARDED_BY(mu_) = 0;
  uint64_t shed_ HDIDX_GUARDED_BY(mu_) = 0;
  bool paused_ HDIDX_GUARDED_BY(mu_) = false;
  bool draining_ HDIDX_GUARDED_BY(mu_) = false;
  bool shutdown_ HDIDX_GUARDED_BY(mu_) = false;
};

/// One epoll event loop. `conns` is owned by the loop thread; other
/// threads communicate through the inbox + eventfd.
struct Reactor {
  Reactor(int epoll_fd_in, int wake_fd_in)
      : epoll_fd(epoll_fd_in), wake_fd(wake_fd_in) {}

  const int epoll_fd;
  const int wake_fd;

  /// Live connections by fd — owning reactor thread only.
  std::unordered_map<int, std::shared_ptr<Connection>> conns HDIDX_UNGUARDED;

  common::Mutex inbox_mu;
  std::vector<std::shared_ptr<Connection>> pending_adds
      HDIDX_GUARDED_BY(inbox_mu);
  std::vector<std::shared_ptr<Connection>> pending_flushes
      HDIDX_GUARDED_BY(inbox_mu);
};

}  // namespace

class AsyncServer::Impl {
 public:
  Impl(PredictionService* service, const AsyncServerOptions& options)
      : service_(service), options_(options) {}

  ~Impl() {
    Stop();
    JoinAll();
  }

  bool Start(std::string* error);
  uint64_t Wait();
  void Stop();

  uint16_t port() const { return port_; }
  uint64_t served() const {
    return served_.load(std::memory_order_relaxed);
  }

  ServiceMetrics MetricsSnapshot() const;
  void PauseServing();
  void ResumeServing();

 private:
  void AcceptLoop();
  void ReactorLoop(size_t index);
  void WorkerLoop(size_t shard);

  /// Serves one dequeued predict and renders the reply in its framing:
  /// the one ServeOnShard call site, shared by both framings.
  std::string Serve(size_t shard, const QueueItem& item);

  void HandleInbox(Reactor& r);
  void ReadConnection(Reactor& r, const std::shared_ptr<Connection>& conn);
  void ProcessInbound(Reactor& r, const std::shared_ptr<Connection>& conn);
  /// Extracts and handles complete frames / lines; returns the number of
  /// inbound bytes consumed (everything when the stream is poisoned).
  size_t ProcessFrames(Reactor& r, const std::shared_ptr<Connection>& conn);
  size_t ProcessJsonLines(Reactor& r,
                          const std::shared_ptr<Connection>& conn);
  void HandleFrame(Reactor& r, const std::shared_ptr<Connection>& conn,
                   const wire::FrameHeader& header, std::string_view payload);
  void HandleJsonLine(Reactor& r, const std::shared_ptr<Connection>& conn,
                      const std::string& line);
  /// Routes a predict to its dataset's shard queue, or answers it at once
  /// with a shed response when the queue is full.
  void Admit(Reactor& r, const std::shared_ptr<Connection>& conn,
             const std::string& dataset, uint64_t id, QueueItem&& item);
  /// Control ops (load/stats/shutdown), decoded from either framing.
  void HandleControl(Reactor& r, const std::shared_ptr<Connection>& conn,
                     uint64_t id, const RequestLine& request);
  void HandleLoad(Reactor& r, const std::shared_ptr<Connection>& conn,
                  uint64_t id, const RequestLine& request);
  void HandleShutdown(Reactor& r, const std::shared_ptr<Connection>& conn,
                      uint64_t id);
  /// True when the handlers closed `conn` (or marked it to close).
  bool Gone(Reactor& r, const std::shared_ptr<Connection>& conn) {
    return r.conns.count(conn->fd) == 0 || IsClosed(conn);
  }

  /// Appends bytes on the reactor's own thread and flushes immediately.
  void ReactorSend(Reactor& r, const std::shared_ptr<Connection>& conn,
                   std::string frame, bool close_after = false);
  /// Appends bytes from a shard worker and nudges the owning reactor.
  void SendFromWorker(const std::shared_ptr<Connection>& conn,
                      std::string frame);
  void FlushConnection(Reactor& r, const std::shared_ptr<Connection>& conn);
  void UpdateInterest(Reactor& r, const std::shared_ptr<Connection>& conn,
                      bool want_write, size_t pending_bytes);
  void CloseConnection(Reactor& r, const std::shared_ptr<Connection>& conn);
  void CleanupReactor(Reactor& r);
  void JoinAll();
  void CloseFds();

  static bool IsClosed(const std::shared_ptr<Connection>& conn) {
    common::MutexLock lock(&conn->mu);
    return conn->closed;
  }

  PredictionService* const service_;
  const AsyncServerOptions options_;

  /// Sockets and thread/queue containers are created in Start() before
  /// any server thread exists and are structurally immutable afterwards.
  int listen_fd_ HDIDX_UNGUARDED = -1;
  int accept_epoll_ HDIDX_UNGUARDED = -1;
  int accept_wake_ HDIDX_UNGUARDED = -1;
  uint16_t port_ HDIDX_UNGUARDED = 0;
  std::vector<std::unique_ptr<Reactor>> reactors_ HDIDX_UNGUARDED;
  std::vector<std::unique_ptr<ShardQueue>> queues_ HDIDX_UNGUARDED;
  std::vector<std::thread> threads_ HDIDX_UNGUARDED;
  /// Acceptor-thread-owned round-robin cursor.
  size_t next_reactor_ HDIDX_UNGUARDED = 0;

  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> joined_{false};

  common::Mutex state_mu_;
  common::CondVar state_cv_;
  bool stop_requested_ HDIDX_GUARDED_BY(state_mu_) = false;

  /// Serializes registry mutation (the `load` op) across reactors.
  common::Mutex load_mu_;
};

bool AsyncServer::Impl::Start(std::string* error) {
  HDIDX_CHECK(threads_.empty()) << "Start() called twice";

  // Every failure past this point releases what was opened so far.
  const auto fail = [&](const std::string& what) {
    Fail(error, what);
    CloseFds();
    return false;
  };
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Fail(error, "socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = wire::HostToNet16(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "bad host address: " + options_.host;
    CloseFds();
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return fail("bind " + options_.host + ":" + std::to_string(options_.port));
  }
  if (::listen(listen_fd_, 128) != 0) return fail("listen");
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return fail("getsockname");
  }
  // HostToNet16 is an involution, so it also converts net->host.
  port_ = wire::HostToNet16(bound.sin_port);
  SetNonBlocking(listen_fd_);

  accept_epoll_ = ::epoll_create1(0);
  accept_wake_ = ::eventfd(0, EFD_NONBLOCK);
  if (accept_epoll_ < 0 || accept_wake_ < 0) return fail("epoll/eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(accept_epoll_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = accept_wake_;
  ::epoll_ctl(accept_epoll_, EPOLL_CTL_ADD, accept_wake_, &ev);

  const size_t num_reactors = std::max<size_t>(1, options_.num_reactors);
  reactors_.reserve(num_reactors);
  for (size_t i = 0; i < num_reactors; ++i) {
    const int epoll_fd = ::epoll_create1(0);
    const int wake_fd = ::eventfd(0, EFD_NONBLOCK);
    if (epoll_fd < 0 || wake_fd < 0) return fail("reactor epoll/eventfd");
    epoll_event wake_ev{};
    wake_ev.events = EPOLLIN;
    wake_ev.data.fd = wake_fd;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &wake_ev);
    reactors_.push_back(std::make_unique<Reactor>(epoll_fd, wake_fd));
  }

  const size_t num_shards = service_->num_shards();
  queues_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    queues_.push_back(std::make_unique<ShardQueue>(
        std::max<size_t>(1, options_.shard_queue_capacity)));
  }

  threads_.emplace_back([this] { AcceptLoop(); });
  for (size_t i = 0; i < num_reactors; ++i) {
    threads_.emplace_back([this, i] { ReactorLoop(i); });
  }
  for (size_t s = 0; s < num_shards; ++s) {
    threads_.emplace_back([this, s] { WorkerLoop(s); });
  }
  return true;
}

uint64_t AsyncServer::Impl::Wait() {
  {
    common::MutexLock lock(&state_mu_);
    while (!stop_requested_) state_cv_.Wait(state_mu_);
  }
  JoinAll();
  return served();
}

void AsyncServer::Impl::Stop() {
  {
    common::MutexLock lock(&state_mu_);
    if (stop_requested_) return;
    stop_requested_ = true;
  }
  stopping_.store(true, std::memory_order_release);
  for (auto& queue : queues_) queue->Shutdown();
  if (accept_wake_ >= 0) WakeEventFd(accept_wake_);
  for (auto& reactor : reactors_) WakeEventFd(reactor->wake_fd);
  {
    common::MutexLock lock(&state_mu_);
    state_cv_.NotifyAll();
  }
}

void AsyncServer::Impl::JoinAll() {
  if (joined_.exchange(true)) return;
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  CloseFds();
}

void AsyncServer::Impl::CloseFds() {
  for (auto& reactor : reactors_) {
    if (reactor->epoll_fd >= 0) ::close(reactor->epoll_fd);
    if (reactor->wake_fd >= 0) ::close(reactor->wake_fd);
  }
  reactors_.clear();
  if (accept_epoll_ >= 0) ::close(accept_epoll_);
  if (accept_wake_ >= 0) ::close(accept_wake_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  accept_epoll_ = accept_wake_ = listen_fd_ = -1;
}

ServiceMetrics AsyncServer::Impl::MetricsSnapshot() const {
  ServiceMetrics m = service_->Metrics();
  HDIDX_DCHECK(m.shards.size() == queues_.size());
  for (size_t s = 0; s < queues_.size() && s < m.shards.size(); ++s) {
    queues_[s]->ReadGauges(&m.shards[s]);
    m.shed_total += m.shards[s].shed;
  }
  return m;
}

void AsyncServer::Impl::PauseServing() {
  for (auto& queue : queues_) queue->Pause();
}

void AsyncServer::Impl::ResumeServing() {
  for (auto& queue : queues_) queue->Resume();
}

void AsyncServer::Impl::AcceptLoop() {
  epoll_event events[8];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(accept_epoll_, events, 8, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == accept_wake_) {
        DrainEventFd(accept_wake_);
        continue;
      }
      while (true) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
          if (errno == EINTR) continue;
          if (errno == ECONNABORTED) continue;  // that peer is gone; next
          if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
              errno == ENOMEM) {
            // Out of descriptors/buffers: the backlog entry stays, so
            // level-triggered epoll re-fires immediately — back off
            // briefly instead of busy-spinning, and retry once existing
            // connections close and free fds.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
          break;  // EAGAIN (backlog drained) or a hard error
        }
        SetNonBlocking(fd);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        const size_t index = next_reactor_ % reactors_.size();
        ++next_reactor_;
        auto conn = std::make_shared<Connection>(fd, index);
        Reactor& r = *reactors_[index];
        {
          common::MutexLock lock(&r.inbox_mu);
          r.pending_adds.push_back(std::move(conn));
        }
        WakeEventFd(r.wake_fd);
      }
    }
  }
}

void AsyncServer::Impl::ReactorLoop(size_t index) {
  Reactor& r = *reactors_[index];
  epoll_event events[64];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(r.epoll_fd, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == r.wake_fd) {
        DrainEventFd(r.wake_fd);
        HandleInbox(r);
        continue;
      }
      const auto it = r.conns.find(events[i].data.fd);
      if (it == r.conns.end()) continue;
      // Copy: handlers may erase the map entry.
      const std::shared_ptr<Connection> conn = it->second;
      const uint32_t mask = events[i].events;
      if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConnection(r, conn);
        continue;
      }
      if ((mask & EPOLLOUT) != 0) FlushConnection(r, conn);
      if ((mask & EPOLLIN) != 0) ReadConnection(r, conn);
    }
  }
  CleanupReactor(r);
}

void AsyncServer::Impl::WorkerLoop(size_t shard) {
  ShardQueue& queue = *queues_[shard];
  QueueItem item;
  while (queue.Pop(&item)) {
    SendFromWorker(item.conn, Serve(shard, item));
    queue.FinishItem();
    // Drop the connection reference before blocking on the next item.
    item = QueueItem{};
  }
}

std::string AsyncServer::Impl::Serve(size_t shard, const QueueItem& item) {
  const Framing framing =
      item.request != nullptr ? Framing::kJson : Framing::kWire;
  RequestLine decoded;
  if (item.request == nullptr) {
    // Decode here, off the reactor. The frame boundary was already sound
    // (NextFrame accepted it), so a decode failure only poisons this
    // request: report against its id and leave the connection serving.
    // Per-shard FIFO keeps the error in admission order relative to the
    // connection's other predicts.
    std::string error;
    if (!wire::DecodeRequest(item.header, item.payload, &decoded, &error)) {
      return Encode<ErrorResponse>(framing, error, item.header.id);
    }
  }
  const ServiceRequest& request =
      item.request != nullptr ? *item.request : decoded.predict;
  PredictReply reply{service_->ServeOnShard(shard, request),
                     request.per_query};
  served_.fetch_add(1, std::memory_order_relaxed);
  return Encode<PredictResponse>(framing, reply);
}

void AsyncServer::Impl::HandleInbox(Reactor& r) {
  std::vector<std::shared_ptr<Connection>> adds;
  std::vector<std::shared_ptr<Connection>> flushes;
  {
    common::MutexLock lock(&r.inbox_mu);
    adds.swap(r.pending_adds);
    flushes.swap(r.pending_flushes);
  }
  for (auto& conn : adds) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn->fd;
    if (::epoll_ctl(r.epoll_fd, EPOLL_CTL_ADD, conn->fd, &ev) != 0) {
      ::close(conn->fd);
      continue;
    }
    conn->armed_events = EPOLLIN;
    r.conns.emplace(conn->fd, std::move(conn));
  }
  for (auto& conn : flushes) {
    if (r.conns.count(conn->fd) != 0) FlushConnection(r, conn);
  }
}

void AsyncServer::Impl::ReadConnection(
    Reactor& r, const std::shared_ptr<Connection>& conn) {
  char buffer[64 * 1024];
  bool peer_done = false;
  while (!conn->reading_paused) {
    const ssize_t n = ::read(conn->fd, buffer, sizeof(buffer));
    if (n > 0) {
      conn->inbound.append(buffer, static_cast<size_t>(n));
      ProcessInbound(r, conn);
      if (r.conns.count(conn->fd) == 0) return;  // handler closed it
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    peer_done = true;  // EOF or hard error
    break;
  }
  if (peer_done) CloseConnection(r, conn);
}

void AsyncServer::Impl::ProcessInbound(
    Reactor& r, const std::shared_ptr<Connection>& conn) {
  if (!conn->framing.has_value()) {
    conn->framing =
        conn->inbound.front() == '{' ? Framing::kJson : Framing::kWire;
  }
  const size_t consumed = conn->framing == Framing::kJson
                              ? ProcessJsonLines(r, conn)
                              : ProcessFrames(r, conn);
  if (consumed > 0) conn->inbound.erase(0, consumed);
}

size_t AsyncServer::Impl::ProcessFrames(
    Reactor& r, const std::shared_ptr<Connection>& conn) {
  size_t offset = 0;
  while (true) {
    wire::FrameHeader header;
    std::string_view payload;
    std::string error;
    size_t consumed = 0;
    const std::string_view rest(conn->inbound.data() + offset,
                                conn->inbound.size() - offset);
    switch (wire::NextFrame(rest, options_.max_frame_payload, &consumed,
                            &header, &payload, &error)) {
      case wire::FrameStatus::kNeedMore:
        return offset;
      case wire::FrameStatus::kFrame:
        offset += consumed;
        HandleFrame(r, conn, header, payload);
        if (Gone(r, conn)) return offset;
        break;
      case wire::FrameStatus::kError:
        // Framing is lost: answer with one protocol-error frame and close
        // once it is flushed. Nothing after this point is parseable.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        ReactorSend(r, conn, Encode<ErrorResponse>(Framing::kWire, error),
                    /*close_after=*/true);
        return conn->inbound.size();
    }
  }
}

size_t AsyncServer::Impl::ProcessJsonLines(
    Reactor& r, const std::shared_ptr<Connection>& conn) {
  const std::string& in = conn->inbound;
  size_t offset = 0;
  while (true) {
    const size_t newline = in.find('\n', offset);
    const size_t length =
        (newline == std::string::npos ? in.size() : newline) - offset;
    if (length > options_.max_frame_payload) {
      // The same bound as a binary frame's payload: past it the line is
      // not buffered further, so the stream is abandoned.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      ReactorSend(r, conn,
                  Encode<ErrorResponse>(
                      Framing::kJson,
                      "line exceeds " +
                          std::to_string(options_.max_frame_payload) +
                          " bytes"),
                  /*close_after=*/true);
      return in.size();
    }
    if (newline == std::string::npos) return offset;
    const std::string line = in.substr(offset, length);
    offset = newline + 1;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    HandleJsonLine(r, conn, line);
    if (Gone(r, conn)) return offset;
  }
}

void AsyncServer::Impl::HandleFrame(Reactor& r,
                                    const std::shared_ptr<Connection>& conn,
                                    const wire::FrameHeader& header,
                                    std::string_view payload) {
  if (header.op == wire::WireOp::kPredict &&
      (header.flags & wire::kFlagResponse) == 0) {
    // Predicts are the hot path: the reactor peeks only the routing key
    // and hands the still-encoded frame to the shard worker, which decodes
    // before serving.
    std::string dataset;
    if (!wire::PeekPredictDataset(payload, &dataset)) {
      // Too short to carry a routing key — no shard to decode it on, so
      // this is the one predict decode error reported from the reactor.
      ReactorSend(r, conn,
                  Encode<ErrorResponse>(Framing::kWire,
                                        "malformed predict payload",
                                        header.id));
      return;
    }
    QueueItem item;
    item.header = header;
    item.payload = std::string(payload);
    Admit(r, conn, dataset, header.id, std::move(item));
    return;
  }
  // Control-plane ops (load/stats/shutdown) are rare and tiny: decode and
  // handle inline on the reactor.
  RequestLine request;
  std::string error;
  if (!wire::DecodeRequest(header, payload, &request, &error)) {
    // The frame boundary was sound, so the stream stays usable: report
    // against this id and keep serving the connection.
    ReactorSend(r, conn,
                Encode<ErrorResponse>(Framing::kWire, error, header.id));
    return;
  }
  HandleControl(r, conn, header.id, request);
}

void AsyncServer::Impl::HandleJsonLine(
    Reactor& r, const std::shared_ptr<Connection>& conn,
    const std::string& line) {
  RequestLine request;
  std::string error;
  if (!ParseRequestLine(line, &request, &error)) {
    // A line boundary is always sound, so the session continues.
    ReactorSend(r, conn, Encode<ErrorResponse>(Framing::kJson, error));
    return;
  }
  if (request.op != RequestLine::Op::kPredict) {
    HandleControl(r, conn, 0, request);
    return;
  }
  const uint64_t sequence = conn->next_json_id++;
  if (!request.has_id) request.predict.id = sequence;
  QueueItem item;
  item.request = std::make_unique<ServiceRequest>(std::move(request.predict));
  const ServiceRequest& predict = *item.request;
  Admit(r, conn, predict.dataset, predict.id, std::move(item));
}

void AsyncServer::Impl::Admit(Reactor& r,
                              const std::shared_ptr<Connection>& conn,
                              const std::string& dataset, uint64_t id,
                              QueueItem&& item) {
  // Admission control stays on the reactor so shed responses are
  // deterministic under backpressure (a full queue answers immediately,
  // in arrival order, regardless of worker progress). `dataset` may live
  // inside `item`, so it is read before the push hands `item` to a worker.
  const size_t shard = service_->registry().ShardOf(dataset);
  item.conn = conn;
  if (queues_[shard]->TryPush(std::move(item))) return;
  PredictReply shed;
  shed.response.id = id;
  shed.response.shard = shard;
  shed.shed = true;
  shed.retry_after_ms = options_.retry_after_ms;
  ReactorSend(r, conn, Encode<PredictResponse>(*conn->framing, shed));
}

void AsyncServer::Impl::HandleControl(
    Reactor& r, const std::shared_ptr<Connection>& conn, uint64_t id,
    const RequestLine& request) {
  switch (request.op) {
    case RequestLine::Op::kPredict:
      // Unreachable: both framings admit predicts before getting here.
      break;
    case RequestLine::Op::kLoad:
      HandleLoad(r, conn, id, request);
      break;
    case RequestLine::Op::kStats:
      ReactorSend(r, conn, Encode<StatsResponse>(*conn->framing,
                                                 MetricsSnapshot(), id));
      break;
    case RequestLine::Op::kShutdown:
      HandleShutdown(r, conn, id);
      break;
  }
}

void AsyncServer::Impl::HandleLoad(Reactor& r,
                                   const std::shared_ptr<Connection>& conn,
                                   uint64_t id, const RequestLine& request) {
  LoadResult result;
  result.dataset = request.load_dataset;
  {
    // Registry mutation is HDIDX_BUILD_ONLY: park every shard worker and
    // wait out the in-flight serves so no Find() races the load. Only
    // in-flight — queued predicts stay queued (a parked worker cannot
    // drain them, so waiting for empty queues here would deadlock the
    // reactor) and are served against the updated registry after Resume.
    // Other reactors keep accepting; their predicts queue up, or shed
    // when the paused queues fill.
    common::MutexLock lock(&load_mu_);
    for (auto& queue : queues_) queue->Pause();
    for (auto& queue : queues_) queue->WaitActiveDrained();
    std::string load_error;
    result.ok = service_->registry().LoadFile(request.load_dataset,
                                              request.load_path, &load_error);
    if (result.ok) {
      const data::Dataset* dataset =
          service_->registry().Find(request.load_dataset);
      result.points = dataset->size();
      result.dims = static_cast<uint32_t>(dataset->dim());
      result.shard = static_cast<uint32_t>(
          service_->registry().ShardOf(request.load_dataset));
    } else {
      result.error = load_error;
    }
    for (auto& queue : queues_) queue->Resume();
  }
  ReactorSend(r, conn, Encode<LoadResponse>(*conn->framing, result, id));
}

void AsyncServer::Impl::HandleShutdown(
    Reactor& r, const std::shared_ptr<Connection>& conn, uint64_t id) {
  // Drain first so every admitted predict's response is buffered on its
  // connection before the ack — a pipelined client that reads to the ack
  // has, by then, every response it was owed. Three things keep the
  // drain finite: BeginDrain sheds new predicts (sustained arrivals from
  // other reactors cannot extend the wait), Resume unparks workers (a
  // test-seam pause would otherwise stall WaitIdle forever), and
  // load_mu_ keeps the Resume from unparking workers in the middle of a
  // concurrent registry load.
  {
    common::MutexLock lock(&load_mu_);
    for (auto& queue : queues_) queue->BeginDrain();
    for (auto& queue : queues_) queue->Resume();
    for (auto& queue : queues_) queue->WaitIdle();
  }
  const uint64_t served = served_.load(std::memory_order_relaxed);
  ReactorSend(r, conn, Encode<ShutdownResponse>(*conn->framing, served, id));
  Stop();
}

void AsyncServer::Impl::ReactorSend(Reactor& r,
                                    const std::shared_ptr<Connection>& conn,
                                    std::string frame, bool close_after) {
  {
    common::MutexLock lock(&conn->mu);
    if (conn->closed) return;
    conn->outbound.append(frame);
    if (close_after) conn->close_after_flush = true;
  }
  FlushConnection(r, conn);
}

void AsyncServer::Impl::SendFromWorker(
    const std::shared_ptr<Connection>& conn, std::string frame) {
  bool was_drained = false;
  {
    common::MutexLock lock(&conn->mu);
    if (conn->closed) return;
    was_drained = conn->out_offset == conn->outbound.size();
    conn->outbound.append(frame);
  }
  if (was_drained) {
    // First bytes since the last full drain: the reactor has neither
    // EPOLLOUT armed nor a flush pending, so nudge it.
    Reactor& r = *reactors_[conn->reactor];
    {
      common::MutexLock lock(&r.inbox_mu);
      r.pending_flushes.push_back(conn);
    }
    WakeEventFd(r.wake_fd);
  }
}

void AsyncServer::Impl::FlushConnection(
    Reactor& r, const std::shared_ptr<Connection>& conn) {
  bool close_now = false;
  bool want_write = false;
  size_t pending = 0;
  {
    common::MutexLock lock(&conn->mu);
    if (conn->closed) return;
    close_now = !WriteOut(conn->fd, conn->outbound, &conn->out_offset);
    if (!close_now) {
      if (conn->out_offset == conn->outbound.size()) {
        conn->outbound.clear();
        conn->out_offset = 0;
        if (conn->close_after_flush) close_now = true;
      } else {
        want_write = true;
      }
      pending = conn->outbound.size() - conn->out_offset;
    }
  }
  if (close_now) {
    CloseConnection(r, conn);
    return;
  }
  UpdateInterest(r, conn, want_write, pending);
}

void AsyncServer::Impl::UpdateInterest(
    Reactor& r, const std::shared_ptr<Connection>& conn, bool want_write,
    size_t pending_bytes) {
  // Backpressure: a peer that stops reading accumulates outbound bytes;
  // past the limit we stop reading *it* until its buffer fully drains, so
  // a slow consumer cannot pin unbounded response memory.
  if (pending_bytes > options_.write_buffer_limit) {
    conn->reading_paused = true;
  } else if (pending_bytes == 0) {
    conn->reading_paused = false;
  }
  const uint32_t wanted = (conn->reading_paused ? 0u : EPOLLIN) |
                          (want_write ? EPOLLOUT : 0u);
  if (wanted == conn->armed_events) return;
  epoll_event ev{};
  ev.events = wanted;
  ev.data.fd = conn->fd;
  if (::epoll_ctl(r.epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
    conn->armed_events = wanted;
  }
}

void AsyncServer::Impl::CloseConnection(
    Reactor& r, const std::shared_ptr<Connection>& conn) {
  const auto it = r.conns.find(conn->fd);
  if (it == r.conns.end()) return;  // already closed
  {
    common::MutexLock lock(&conn->mu);
    conn->closed = true;
  }
  ::epoll_ctl(r.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  r.conns.erase(it);
}

void AsyncServer::Impl::CleanupReactor(Reactor& r) {
  // Deliver what is already buffered (e.g. the shutdown ack) with a
  // bounded best-effort flush, then close everything. The fd stays
  // non-blocking throughout: a peer that stopped reading gets a small
  // POLLOUT grace budget, not a hold on shutdown — an unflushed tail is
  // the peer's loss, a wedged Wait()/JoinAll() would be everyone's.
  for (auto& [fd, conn] : r.conns) {
    common::MutexLock lock(&conn->mu);
    conn->closed = true;
    // Stops when drained, when the peer vanished, or when the grace
    // budget is spent.
    for (int budget = kFlushPollRounds;
         WriteOut(fd, conn->outbound, &conn->out_offset) &&
         conn->out_offset < conn->outbound.size() &&
         budget > 0;
         --budget) {
      pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, kFlushPollMs);
    }
    ::close(fd);
  }
  r.conns.clear();
}

AsyncServer::AsyncServer(PredictionService* service,
                         const AsyncServerOptions& options)
    : impl_(std::make_unique<Impl>(service, options)) {}

AsyncServer::~AsyncServer() = default;

bool AsyncServer::Start(std::string* error) { return impl_->Start(error); }
uint16_t AsyncServer::port() const { return impl_->port(); }
uint64_t AsyncServer::Wait() { return impl_->Wait(); }
void AsyncServer::Stop() { impl_->Stop(); }
uint64_t AsyncServer::served() const { return impl_->served(); }
ServiceMetrics AsyncServer::MetricsSnapshot() const {
  return impl_->MetricsSnapshot();
}
void AsyncServer::PauseServingForTest() { impl_->PauseServing(); }
void AsyncServer::ResumeServingForTest() { impl_->ResumeServing(); }

}  // namespace hdidx::service
