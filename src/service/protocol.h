#ifndef HDIDX_SERVICE_PROTOCOL_H_
#define HDIDX_SERVICE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "service/prediction_service.h"

namespace hdidx::service {

namespace wire {
struct FrameHeader;
}  // namespace wire

/// The service's messages, each defined once and spoken in two framings
/// on one socket (service/async_server.h picks a connection's framing by
/// its first byte): kWire, length-prefixed binary frames (service/wire.h),
/// and kJson, one JSON object per line. Requests are flat JSON objects;
/// responses may nest.
///
/// protocol.cc lists each message's fields once, in wire order, each with
/// its JSON name, struct member, and wire width. Four generic drivers walk
/// the lists at compile time: wire append, wire read, JSON render, JSON
/// read. A difference between the framings is stated in the message's own
/// list; DESIGN.md §6 names them all.
///
/// JSON requests ("op" defaults to "predict"; numeric fields are optional,
/// default to the ServiceRequest defaults, and are read exactly over the
/// full u64 range; "dataset" is required, and "path" for load):
///   {"op":"load","dataset":"d1","path":"/data/d1.hdx"}
///   {"op":"predict","id":7,"dataset":"d1","method":"resampled",
///    "memory":10000,"num_queries":100,"k":10,"seed":1,"page_bytes":8192,
///    "per_query":false}
///   {"op":"stats"}
///   {"op":"shutdown"}
///
/// Each request gets one response. A predict response nests its
/// deterministic payload under "result"; everything outside it is serving
/// metadata. "result" is bit-identical for a given request regardless of
/// shard count, arrival order, cache state, or framing (doubles print as
/// %.17g, which round-trips IEEE doubles exactly).

enum class Framing : uint8_t { kWire, kJson };

/// Longest dataset, method, or path name a request may carry, in bytes
/// (Linux's PATH_MAX). The request readers of both framings refuse longer
/// names, so an error that echoes a name ("unknown dataset: <name>") always
/// fits a u16-prefixed wire string.
inline constexpr size_t kMaxNameBytes = 4096;

/// A parsed request, whatever its framing.
struct RequestLine {
  enum class Op { kLoad, kPredict, kStats, kShutdown };
  Op op = Op::kPredict;
  /// Valid when op == kPredict.
  ServiceRequest predict;
  /// Whether the predict carried an explicit id (always true on the wire).
  bool has_id = false;
  /// Valid when op == kLoad.
  std::string load_dataset;
  std::string load_path;
};

/// Load outcome, both directions.
struct LoadResult {
  bool ok = false;
  std::string dataset;
  uint64_t points = 0;
  uint32_t dims = 0;
  uint32_t shard = 0;
  std::string error;
};

/// A predict response. When `shed`, only id/shard/retry_after_ms are
/// meaningful; otherwise `response` carries every field. Per-query
/// accesses are zero-filled to their count when the array was not sent,
/// so SerializeResult round-trips.
struct PredictReply {
  ServiceResponse response;
  bool per_query = false;
  bool shed = false;
  uint32_t retry_after_ms = 0;
};

// --- the messages ---------------------------------------------------------
// Each tag names one message and the struct that carries it.

struct PredictRequest { using Data = ServiceRequest; };
struct LoadRequest { using Data = RequestLine; };
struct StatsRequest { using Data = RequestLine; };
struct ShutdownRequest { using Data = RequestLine; };
/// Also carries the shed reply (PredictReply::shed).
struct PredictResponse { using Data = PredictReply; };
struct ErrorResponse { using Data = std::string; };
struct LoadResponse { using Data = LoadResult; };
struct StatsResponse { using Data = ServiceMetrics; };
/// The number of predicts served.
struct ShutdownResponse { using Data = uint64_t; };

/// The bytes of `data` as message `Msg` in `framing`: a whole wire frame,
/// or one JSON line with its newline. `id` is the frame header's id for
/// messages that do not carry their own (the control responses echo the
/// request's); JSON drops it for those.
template <class Msg>
std::string Encode(Framing framing, const typename Msg::Data& data,
                   uint64_t id = 0);

/// Reads message `Msg`. For kWire, `header` and `body` are the frame's
/// header and payload; for kJson, `body` is one line and `header` is
/// ignored. Fails with `*error` set on a malformed message or another op.
template <class Msg>
bool Decode(Framing framing, const wire::FrameHeader& header,
            std::string_view body, typename Msg::Data* out,
            std::string* error);

/// Parses a JSON request line. Returns false and fills `*error` on
/// malformed JSON, an unknown op, a missing required field, a wrongly
/// typed value, or a name longer than kMaxNameBytes.
bool ParseRequestLine(std::string_view line, RequestLine* out,
                      std::string* error);

/// The deterministic payload of a predict response as JSON: the "result"
/// object, or an error object when !ok. The byte string the determinism
/// tests compare.
std::string SerializeResult(const ServiceResponse& response, bool per_query);

/// Escapes a string for embedding in JSON output (adds the quotes).
std::string JsonQuote(std::string_view s);

}  // namespace hdidx::service

#endif  // HDIDX_SERVICE_PROTOCOL_H_
