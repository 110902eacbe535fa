#ifndef HDIDX_SERVICE_ASYNC_SERVER_H_
#define HDIDX_SERVICE_ASYNC_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "service/prediction_service.h"
#include "service/wire.h"

namespace hdidx::service {

/// Tuning knobs for the event-driven server.
struct AsyncServerOptions {
  /// IPv4 address to bind (dotted quad).
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Event-loop threads connections are round-robined across.
  size_t num_reactors = 1;
  /// Admission-control bound on each shard's request queue; a predict
  /// arriving at a full queue is answered with a load-shed frame.
  size_t shard_queue_capacity = 64;
  /// Retry-after hint carried by load-shed responses.
  uint32_t retry_after_ms = 50;
  /// Largest accepted binary frame payload, and longest accepted JSON line.
  size_t max_frame_payload = wire::kDefaultMaxPayload;
  /// Per-connection outbound high watermark: above this many buffered
  /// bytes the reactor stops reading the connection (pipelining
  /// backpressure) until the peer drains half of it.
  size_t write_buffer_limit = 4u << 20;
};

/// Epoll-based front-end over a PredictionService — the service's one
/// serving path.
///
/// Framing: a connection's first byte fixes how its bytes are framed. '{'
/// means JSON lines (service/protocol.h): split on '\n', blank lines
/// skipped, a line longer than max_frame_payload answered with an error
/// line and the connection closed; a predict without "id" gets a
/// per-connection running number from 1. Anything else means the binary
/// wire protocol (service/wire.h), whose magic starts with 0x48. Both
/// decode into the same RequestLine and share routing, admission, the
/// shard queues, serving, load and shutdown; every reply is one
/// Encode<Msg>(framing, ...) of the message definitions in protocol.h.
///
/// Architecture: one non-blocking acceptor thread round-robins incoming
/// connections across `num_reactors` epoll event loops; reactors only read
/// and frame requests. A binary predict is routed by peeking its leading
/// dataset string and enqueued still encoded, so its decode runs on the
/// shard worker, not the shared event loop; a JSON predict is parsed on
/// the reactor (its routing key is inside the text). One worker thread per
/// shard serves via PredictionService::ServeOnShard and hands the rendered
/// response back to the owning reactor to write. A request that fails to
/// decode is answered with an error (a kError frame echoing the id, or an
/// {"op":"error"} line) and the connection keeps serving. Control ops
/// (load/stats/shutdown) stay reactor-inline. Connections are fully
/// pipelined: responses are matched by id and may interleave across
/// shards, not within one.
///
/// Admission control: a predict that finds its shard queue full is
/// answered immediately with a shed response carrying retry_after_ms
/// (a kFlagShed frame, or {"op":"predict","id":N,"ok":false,"shed":true,
/// "shard":S,"retry_after_ms":M}); queue depth, peak depth, and shed
/// counts surface per shard through the stats op. A connection whose
/// outbound buffer passes write_buffer_limit stops being read until it
/// drains — slow readers throttle themselves, not the server.
///
/// The deterministic payload of every predict response is bit-identical
/// across framings (doubles travel as raw IEEE-754 bits on the wire).
class AsyncServer {
 public:
  /// `service` must outlive the server.
  AsyncServer(PredictionService* service, const AsyncServerOptions& options);
  ~AsyncServer();

  AsyncServer(const AsyncServer&) = delete;
  AsyncServer& operator=(const AsyncServer&) = delete;

  /// Binds, listens, and spawns the acceptor/reactor/worker threads.
  /// Returns false (with *error set) on socket failures.
  bool Start(std::string* error);

  /// The bound port (valid after Start; the actual port when options.port
  /// was 0).
  uint16_t port() const;

  /// Blocks until the server stops — via Stop() or a shutdown frame —
  /// then joins all threads. Returns the number of predict responses
  /// served (shed responses excluded) over both framings.
  uint64_t Wait();

  /// Signals the server to stop; safe from any thread (including a
  /// reactor). Threads are joined by Wait() or the destructor.
  void Stop();

  /// Predict responses served so far (shed responses excluded).
  uint64_t served() const;

  /// Service metrics plus this server's per-shard queue-depth / peak /
  /// shed gauges and the shed total.
  ServiceMetrics MetricsSnapshot() const;

  /// Test seam: parks every shard worker so queued requests accumulate —
  /// with traffic `shard_queue_capacity + K` deep, exactly K predicts are
  /// shed, deterministically. The `load` op quiesces the same way (pause,
  /// then wait for in-flight serves only — queued predicts stay queued
  /// and run against the updated registry after resume), and a shutdown
  /// frame resumes serving so its drain-before-ack stays finite even if
  /// a pause is in effect.
  void PauseServingForTest();
  void ResumeServingForTest();

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hdidx::service

#endif  // HDIDX_SERVICE_ASYNC_SERVER_H_
