#include "service/wire.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "service/protocol.h"

namespace hdidx::service::wire {
namespace {

constexpr Framing kWire = Framing::kWire;
constexpr Framing kJson = Framing::kJson;

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<uint8_t>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

/// A frame with any header fields, for the malformed-input tests.
std::string EncodeFrame(WireOp op, uint16_t flags, uint64_t id,
                        std::string_view payload) {
  std::string frame(kHeaderBytes, '\0');
  frame.append(payload.data(), payload.size());
  SealFrame(&frame, op, flags, id);
  return frame;
}

/// A load request's data.
RequestLine LoadLine(std::string_view dataset, std::string_view path) {
  RequestLine load;
  load.load_dataset = dataset;
  load.load_path = path;
  return load;
}

/// A shed reply's data.
PredictReply Shed(uint64_t id, size_t shard, uint32_t retry_after_ms) {
  PredictReply shed;
  shed.response.id = id;
  shed.response.shard = shard;
  shed.shed = true;
  shed.retry_after_ms = retry_after_ms;
  return shed;
}

/// Runs the full extract-and-decode path a server/client would on `bytes`
/// and returns the status. Exists so the fuzz tests exercise every decoder
/// on whatever frames fall out of mutated input — the assertion is simply
/// that none of this crashes or over-reads.
FrameStatus ExtractAndDecode(std::string_view bytes) {
  size_t consumed = 0;
  FrameHeader header;
  std::string_view payload;
  std::string error;
  const FrameStatus status = NextFrame(bytes, kDefaultMaxPayload, &consumed,
                                       &header, &payload, &error);
  if (status != FrameStatus::kFrame) return status;
  EXPECT_LE(consumed, bytes.size());
  RequestLine request;
  DecodeRequest(header, payload, &request, &error);
  PredictReply reply;
  DecodePredictResponse(header, payload, &reply, &error);
  LoadResult load;
  Decode<LoadResponse>(kWire, header, payload, &load, &error);
  ServiceMetrics metrics;
  DecodeStatsResponse(header, payload, &metrics, &error);
  uint64_t served = 0;
  Decode<ShutdownResponse>(kWire, header, payload, &served, &error);
  std::string message;
  Decode<ErrorResponse>(kWire, header, payload, &message, &error);
  std::string dataset;
  PeekPredictDataset(payload, &dataset);
  return status;
}

TEST(WireGoldenTest, FrameBytesArePinned) {
  // Byte-exact fixtures: any change to these is a wire-format break and
  // must bump kVersion. Header layout: magic "HD", version, op, flags,
  // reserved, u32 length, u64 id — all little-endian.
  EXPECT_EQ(Hex(EncodeStatsRequest(7)),
            "4844"              // magic 0x4448 -> "HD" on the wire
            "01"                // version 1
            "02"                // op kStats
            "0000"              // flags
            "0000"              // reserved
            "00000000"          // length 0
            "0700000000000000"  // id 7
  );
  EXPECT_EQ(Hex(Encode<ShutdownRequest>(kWire, {}, 0x0102030405060708ull)),
            "484401030000000000000000"
            "0807060504030201");

  ServiceRequest predict;
  predict.id = 9;
  predict.dataset = "d";
  predict.method = "mini";
  predict.memory = 1000;
  predict.num_queries = 25;
  predict.k = 5;
  predict.seed = 3;
  predict.page_bytes = 1024;
  predict.per_query = true;
  EXPECT_EQ(Hex(EncodePredictRequest(predict)),
            "4844"              // magic
            "01"                // version
            "00"                // op kPredict
            "0400"              // flags: kFlagPerQuery
            "0000"              // reserved
            "31000000"          // length 49: 3 + 6 string bytes + 5 u64s
            "0900000000000000"  // id 9
            "010064"            // dataset: len 1, "d"
            "04006d696e69"      // method: len 4, "mini"
            "e803000000000000"  // memory 1000
            "1900000000000000"  // num_queries 25
            "0500000000000000"  // k 5
            "0300000000000000"  // seed 3
            "0004000000000000"  // page_bytes 1024
  );

  EXPECT_EQ(Hex(Encode<LoadRequest>(kWire, LoadLine("d", "/x.hdx"), 1)),
            "4844"
            "01"
            "01"                // op kLoad
            "0000"
            "0000"
            "0b000000"          // length 11: two u16-prefixed strings
            "0100000000000000"  // id 1
            "010064"            // dataset: len 1, "d"
            "06002f782e686478"  // path: len 6, "/x.hdx"
  );

  EXPECT_EQ(Hex(Encode<ErrorResponse>(kWire, "bad", 0)),
            "4844"
            "01"
            "04"                // op kError
            "0100"              // flags: kFlagResponse
            "0000"
            "05000000"          // length: u16 prefix + 3 bytes
            "0000000000000000"
            "0300626164");

  EXPECT_EQ(Hex(Encode<PredictResponse>(kWire, Shed(42, 1, 50))),
            "4844"
            "01"
            "00"                // op kPredict
            "2100"              // flags: kFlagResponse | kFlagShed
            "0000"
            "08000000"          // length 8
            "2a00000000000000"  // id 42
            "01000000"          // shard 1
            "32000000"          // retry_after_ms 50
  );
}

TEST(WireGoldenTest, ResponseBytesArePinned) {
  // ProtocolGoldenTest pins the same values as JSON lines, so the two
  // framings can be read side by side.
  ServiceResponse ok;
  ok.id = 5;
  ok.ok = true;
  ok.shard = 1;
  ok.cache_hit = true;
  ok.latency_ms = 0.5;
  ok.served_io.page_seeks = 3;
  ok.served_io.page_transfers = 4;
  ok.result.avg_leaf_accesses = 2.5;
  ok.result.per_query_accesses = {2.0, 3.0};
  ok.result.num_predicted_leaves = 6;
  ok.result.h_upper = 2;
  ok.result.sigma_upper = 0.25;
  ok.result.sigma_lower = 1.0;
  ok.result.io.page_seeks = 7;
  ok.result.io.page_transfers = 8;
  const std::string ok_payload =
      "01000000"          // shard 1 (u32)
      "000000000000e03f"  // latency_ms 0.5 (before served_* on the wire)
      "0300000000000000"  // served_seeks 3
      "0400000000000000"  // served_transfers 4
      "0000000000000440"  // avg_leaf_accesses 2.5
      "0200000000000000"  // num_queries 2 (the per-query count)
      "0600000000000000"  // num_predicted_leaves 6
      "0200000000000000"  // h_upper 2
      "000000000000d03f"  // sigma_upper 0.25
      "000000000000f03f"  // sigma_lower 1
      "0700000000000000"  // io_seeks 7
      "0800000000000000"; // io_transfers 8
  EXPECT_EQ(Hex(EncodePredictResponse(ok, /*per_query=*/true)),
            "4844"
            "01"
            "00"                // op kPredict
            "0f00"              // flags: response | ok | per_query | cache
            "0000"
            "6c000000"          // length 108
            "0500000000000000"  // id 5
            + ok_payload +
            "0000000000000040"  // per_query[0] 2
            "0000000000000840"  // per_query[1] 3
  );
  EXPECT_EQ(Hex(EncodePredictResponse(ok, /*per_query=*/false)),
            "4844"
            "01"
            "00"
            "0b00"              // flags: response | ok | cache
            "0000"
            "5c000000"          // length 92: no per-query array
            "0500000000000000"
            + ok_payload);

  ServiceResponse failed;
  failed.id = 6;
  failed.latency_ms = 0.125;
  failed.served_io.page_seeks = 9;  // dropped on the wire for errors
  failed.error = "bad \"x\"";
  EXPECT_EQ(Hex(EncodePredictResponse(failed, false)),
            "4844"
            "01"
            "00"
            "0100"              // flags: response
            "0000"
            "15000000"          // length 21
            "0600000000000000"  // id 6
            "00000000"          // shard 0
            "000000000000c03f"  // latency_ms 0.125
            "070062616420227822"  // error: len 7, bad "x"
  );

  ServiceMetrics metrics;
  metrics.requests = 10;
  metrics.errors = 1;
  metrics.result_hits = 4;
  metrics.result_misses = 6;
  metrics.result_evictions = 1;
  metrics.workload_hits = 3;
  metrics.workload_misses = 7;
  metrics.workload_evictions = 2;
  metrics.shed_total = 5;
  metrics.shards.resize(2);
  metrics.shards[0] = {4, 0.5, 1.0, 2.0, 0, 3, 0};
  metrics.shards[1] = {6, 1.5, 2.5, 3.5, 2, 4, 5};
  EXPECT_EQ(Hex(Encode<StatsResponse>(kWire, metrics, 12)),
            "4844"
            "01"
            "02"                // op kStats
            "0300"              // flags: response | ok
            "0000"
            "d0000000"          // length 208: 12 u64/f64 + 2 shard records
            "0c00000000000000"  // id 12
            "0a00000000000000"  // requests 10
            "0000000000000000"  // batches 0
            "0100000000000000"  // errors 1
            "0000000000000000"  // mean_batch_size 0
            "0400000000000000"  // result hits 4
            "0600000000000000"  // result misses 6
            "0100000000000000"  // result evictions 1
            "0300000000000000"  // workload hits 3
            "0700000000000000"  // workload misses 7
            "0200000000000000"  // workload evictions 2
            "0500000000000000"  // shed_total 5
            "0200000000000000"  // shard count 2
            "0400000000000000"  // shard 0: requests 4
            "000000000000e03f"  //   p50_ms 0.5
            "000000000000f03f"  //   p90_ms 1
            "0000000000000040"  //   p99_ms 2
            "0000000000000000"  //   queue_depth 0
            "0300000000000000"  //   peak_queue_depth 3
            "0000000000000000"  //   shed 0
            "0600000000000000"  // shard 1: requests 6
            "000000000000f83f"  //   p50_ms 1.5
            "0000000000000440"  //   p90_ms 2.5
            "0000000000000c40"  //   p99_ms 3.5
            "0200000000000000"  //   queue_depth 2
            "0400000000000000"  //   peak_queue_depth 4
            "0500000000000000"  //   shed 5
  );

  LoadResult loaded;
  loaded.ok = true;
  loaded.dataset = "d";
  loaded.points = 400;
  loaded.dims = 5;
  loaded.shard = 1;
  EXPECT_EQ(Hex(Encode<LoadResponse>(kWire, loaded, 4)),
            "4844"
            "01"
            "01"                // op kLoad
            "0300"              // flags: response | ok
            "0000"
            "13000000"          // length 19
            "0400000000000000"  // id 4
            "010064"            // dataset: len 1, "d"
            "9001000000000000"  // points 400
            "05000000"          // dims 5 (u32)
            "01000000"          // shard 1 (u32)
  );
  LoadResult refused;
  refused.dataset = "d";
  refused.error = "nope";
  EXPECT_EQ(Hex(Encode<LoadResponse>(kWire, refused, 4)),
            "4844"
            "01"
            "01"
            "0100"              // flags: response
            "0000"
            "09000000"          // length 9
            "0400000000000000"
            "010064"            // dataset
            "04006e6f7065"      // error: len 4, "nope"
  );

  EXPECT_EQ(Hex(Encode<ShutdownResponse>(kWire, 16, 2)),
            "4844"
            "01"
            "03"                // op kShutdown
            "0300"              // flags: response | ok
            "0000"
            "08000000"
            "0200000000000000"  // id 2
            "1000000000000000"  // served 16
  );
}

TEST(WireRoundTripTest, RequestsDecodeThroughSharedRequestLine) {
  ServiceRequest predict;
  predict.id = 77;
  predict.dataset = "alpha";
  predict.method = "resampled";
  predict.memory = 4096;
  predict.num_queries = 50;
  predict.k = 10;
  predict.seed = 12345;
  predict.page_bytes = 8192;
  predict.per_query = true;

  for (const std::string& frame :
       {EncodePredictRequest(predict),
        Encode<LoadRequest>(kWire, LoadLine("beta", "/b.hdx"), 5),
        EncodeStatsRequest(6), Encode<ShutdownRequest>(kWire, {}, 7)}) {
    size_t consumed = 0;
    FrameHeader header;
    std::string_view payload;
    std::string error;
    ASSERT_EQ(NextFrame(frame, kDefaultMaxPayload, &consumed, &header,
                        &payload, &error),
              FrameStatus::kFrame)
        << error;
    EXPECT_EQ(consumed, frame.size());
    RequestLine line;
    ASSERT_TRUE(DecodeRequest(header, payload, &line, &error)) << error;
    switch (line.op) {
      case RequestLine::Op::kPredict:
        EXPECT_TRUE(line.has_id);
        EXPECT_EQ(line.predict.id, 77u);
        EXPECT_EQ(line.predict.dataset, "alpha");
        EXPECT_EQ(line.predict.method, "resampled");
        EXPECT_EQ(line.predict.memory, 4096u);
        EXPECT_EQ(line.predict.num_queries, 50u);
        EXPECT_EQ(line.predict.k, 10u);
        EXPECT_EQ(line.predict.seed, 12345u);
        EXPECT_EQ(line.predict.page_bytes, 8192u);
        EXPECT_TRUE(line.predict.per_query);
        break;
      case RequestLine::Op::kLoad:
        EXPECT_EQ(line.load_dataset, "beta");
        EXPECT_EQ(line.load_path, "/b.hdx");
        break;
      case RequestLine::Op::kStats:
      case RequestLine::Op::kShutdown:
        break;
    }
  }
}

TEST(WireRoundTripTest, PredictResponseCarriesEveryResultField) {
  ServiceResponse response;
  response.id = 31;
  response.ok = true;
  response.shard = 2;
  response.cache_hit = true;
  response.workload_cache_hit = true;
  response.latency_ms = 1.25;
  response.served_io.page_seeks = 11;
  response.served_io.page_transfers = 23;
  response.result.avg_leaf_accesses = 3.7500000000000004;  // not exactly
  response.result.per_query_accesses = {1.0, 2.5, 0.0, 7.25};
  response.result.num_predicted_leaves = 9;
  response.result.h_upper = 4;
  response.result.sigma_upper = 1.5;
  response.result.sigma_lower = 0.75;
  response.result.io.page_seeks = 100;
  response.result.io.page_transfers = 200;

  for (const bool per_query : {true, false}) {
    const std::string frame = EncodePredictResponse(response, per_query);
    size_t consumed = 0;
    FrameHeader header;
    std::string_view payload;
    std::string error;
    ASSERT_EQ(NextFrame(frame, kDefaultMaxPayload, &consumed, &header,
                        &payload, &error),
              FrameStatus::kFrame);
    PredictReply reply;
    ASSERT_TRUE(DecodePredictResponse(header, payload, &reply, &error))
        << error;
    EXPECT_FALSE(reply.shed);
    EXPECT_EQ(reply.per_query, per_query);
    EXPECT_TRUE(reply.response.ok);
    EXPECT_TRUE(reply.response.cache_hit);
    EXPECT_TRUE(reply.response.workload_cache_hit);
    EXPECT_EQ(reply.response.id, 31u);
    EXPECT_EQ(reply.response.shard, 2u);
    EXPECT_EQ(reply.response.served_io.page_seeks, 11u);
    EXPECT_EQ(reply.response.served_io.page_transfers, 23u);
    // The determinism contract across transports, stated as bytes: the
    // serialized `result` payload of the decoded binary response equals
    // the JSON transport's serialization of the original.
    EXPECT_EQ(SerializeResult(reply.response, per_query),
              SerializeResult(response, per_query));
    if (per_query) {
      EXPECT_EQ(reply.response.result.per_query_accesses,
                response.result.per_query_accesses);
    } else {
      // The count still round-trips (zero-filled) so size-derived fields
      // serialize identically.
      EXPECT_EQ(reply.response.result.per_query_accesses.size(),
                response.result.per_query_accesses.size());
    }
  }
}

TEST(WireRoundTripTest, ErrorShedLoadStatsShutdownResponses) {
  std::string error;
  size_t consumed = 0;
  FrameHeader header;
  std::string_view payload;

  // Predict error response (ok=false): message round-trips.
  ServiceResponse failed;
  failed.id = 8;
  failed.ok = false;
  failed.shard = 1;
  failed.error = "unknown dataset 'nope'";
  const std::string failed_frame = EncodePredictResponse(failed, false);
  ASSERT_EQ(NextFrame(failed_frame, kDefaultMaxPayload, &consumed, &header,
                      &payload, &error),
            FrameStatus::kFrame);
  PredictReply reply;
  ASSERT_TRUE(DecodePredictResponse(header, payload, &reply, &error));
  EXPECT_FALSE(reply.response.ok);
  EXPECT_EQ(reply.response.error, "unknown dataset 'nope'");
  EXPECT_EQ(SerializeResult(reply.response, false),
            SerializeResult(failed, false));

  // Shed.
  const std::string shed = Encode<PredictResponse>(kWire, Shed(99, 3, 25));
  ASSERT_EQ(NextFrame(shed, kDefaultMaxPayload, &consumed, &header, &payload,
                      &error),
            FrameStatus::kFrame);
  ASSERT_TRUE(DecodePredictResponse(header, payload, &reply, &error));
  EXPECT_TRUE(reply.shed);
  EXPECT_EQ(reply.response.id, 99u);
  EXPECT_EQ(reply.response.shard, 3u);
  EXPECT_EQ(reply.retry_after_ms, 25u);

  // Load, both outcomes.
  LoadResult load;
  load.ok = true;
  load.dataset = "d";
  load.points = 20000;
  load.dims = 16;
  load.shard = 1;
  const std::string load_ok = Encode<LoadResponse>(kWire, load, 4);
  ASSERT_EQ(NextFrame(load_ok, kDefaultMaxPayload, &consumed, &header,
                      &payload, &error),
            FrameStatus::kFrame);
  LoadResult decoded_load;
  ASSERT_TRUE(
      Decode<LoadResponse>(kWire, header, payload, &decoded_load, &error));
  EXPECT_TRUE(decoded_load.ok);
  EXPECT_EQ(decoded_load.points, 20000u);
  EXPECT_EQ(decoded_load.dims, 16u);
  EXPECT_EQ(decoded_load.shard, 1u);

  load.ok = false;
  load.error = "no such file";
  const std::string load_err = Encode<LoadResponse>(kWire, load, 4);
  ASSERT_EQ(NextFrame(load_err, kDefaultMaxPayload, &consumed, &header,
                      &payload, &error),
            FrameStatus::kFrame);
  ASSERT_TRUE(
      Decode<LoadResponse>(kWire, header, payload, &decoded_load, &error));
  EXPECT_FALSE(decoded_load.ok);
  EXPECT_EQ(decoded_load.error, "no such file");

  // Stats: every counter including the new queue gauges.
  ServiceMetrics metrics;
  metrics.requests = 10;
  metrics.batches = 2;
  metrics.errors = 1;
  metrics.mean_batch_size = 5.0;
  metrics.result_hits = 4;
  metrics.result_misses = 6;
  metrics.result_evictions = 1;
  metrics.workload_hits = 3;
  metrics.workload_misses = 7;
  metrics.workload_evictions = 2;
  metrics.shed_total = 5;
  metrics.shards.resize(2);
  metrics.shards[1].requests = 10;
  metrics.shards[1].p50_ms = 1.5;
  metrics.shards[1].p90_ms = 2.5;
  metrics.shards[1].p99_ms = 3.5;
  metrics.shards[1].queue_depth = 2;
  metrics.shards[1].peak_queue_depth = 4;
  metrics.shards[1].shed = 5;
  const std::string stats = Encode<StatsResponse>(kWire, metrics, 12);
  ASSERT_EQ(NextFrame(stats, kDefaultMaxPayload, &consumed, &header, &payload,
                      &error),
            FrameStatus::kFrame);
  ServiceMetrics decoded_metrics;
  ASSERT_TRUE(DecodeStatsResponse(header, payload, &decoded_metrics, &error))
      << error;
  // JSON serialization is a faithful field-by-field readout, so equality of
  // the serialized lines is equality of every field at once.
  EXPECT_EQ(Encode<StatsResponse>(kJson, decoded_metrics),
            Encode<StatsResponse>(kJson, metrics));

  // Shutdown.
  const std::string ack = Encode<ShutdownResponse>(kWire, 16, 2);
  ASSERT_EQ(NextFrame(ack, kDefaultMaxPayload, &consumed, &header, &payload,
                      &error),
            FrameStatus::kFrame);
  uint64_t served = 0;
  ASSERT_TRUE(
      Decode<ShutdownResponse>(kWire, header, payload, &served, &error));
  EXPECT_EQ(served, 16u);

  // Error frame.
  const std::string err =
      Encode<ErrorResponse>(kWire, "malformed predict payload", 6);
  ASSERT_EQ(NextFrame(err, kDefaultMaxPayload, &consumed, &header, &payload,
                      &error),
            FrameStatus::kFrame);
  std::string message;
  ASSERT_TRUE(Decode<ErrorResponse>(kWire, header, payload, &message, &error));
  EXPECT_EQ(header.id, 6u);
  EXPECT_EQ(message, "malformed predict payload");
}

TEST(WireFramingTest, TruncatedPrefixesNeedMoreThenCompleteFrame) {
  const std::string frame =
      EncodeStatsRequest(3) + Encode<ShutdownRequest>(kWire, {}, 4);
  // Every proper prefix of the first frame is kNeedMore — never an error,
  // never a partial decode.
  for (size_t n = 0; n < kHeaderBytes; ++n) {
    size_t consumed = 0;
    FrameHeader header;
    std::string_view payload;
    std::string error;
    EXPECT_EQ(NextFrame(std::string_view(frame).substr(0, n),
                        kDefaultMaxPayload, &consumed, &header, &payload,
                        &error),
              FrameStatus::kNeedMore)
        << "prefix " << n;
  }
  // Both frames extract in sequence.
  size_t consumed = 0;
  FrameHeader header;
  std::string_view payload;
  std::string error;
  std::string_view rest = frame;
  ASSERT_EQ(NextFrame(rest, kDefaultMaxPayload, &consumed, &header, &payload,
                      &error),
            FrameStatus::kFrame);
  EXPECT_EQ(header.op, WireOp::kStats);
  rest.remove_prefix(consumed);
  ASSERT_EQ(NextFrame(rest, kDefaultMaxPayload, &consumed, &header, &payload,
                      &error),
            FrameStatus::kFrame);
  EXPECT_EQ(header.op, WireOp::kShutdown);
  EXPECT_EQ(consumed, rest.size());
}

TEST(WireFramingTest, MalformedHeadersAreUnrecoverableErrors) {
  const std::string good = EncodeStatsRequest(1);
  const auto expect_error = [&](std::string frame, const char* what) {
    size_t consumed = 0;
    FrameHeader header;
    std::string_view payload;
    std::string error;
    EXPECT_EQ(NextFrame(frame, kDefaultMaxPayload, &consumed, &header,
                        &payload, &error),
              FrameStatus::kError)
        << what;
    EXPECT_FALSE(error.empty()) << what;
  };

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  expect_error(bad_magic, "bad magic");

  std::string bad_version = good;
  bad_version[2] = 9;
  expect_error(bad_version, "bad version");

  std::string bad_op = good;
  bad_op[3] = 5;  // one past kError
  expect_error(bad_op, "unknown op");

  std::string bad_reserved = good;
  bad_reserved[6] = 1;
  expect_error(bad_reserved, "nonzero reserved");

  std::string oversized = good;
  oversized[11] = '\x7f';  // length high byte -> ~2 GiB
  expect_error(oversized, "oversized length");

  // The cap is the caller's: the same length passes under a larger one
  // (and then reports kNeedMore for the missing payload).
  std::string big = good;
  big[10] = 1;  // third length byte: length = 65536
  size_t consumed = 0;
  FrameHeader header;
  std::string_view payload;
  std::string error;
  EXPECT_EQ(NextFrame(big, /*max_payload=*/1024, &consumed, &header, &payload,
                      &error),
            FrameStatus::kError);
  EXPECT_EQ(NextFrame(big, /*max_payload=*/1u << 20, &consumed, &header,
                      &payload, &error),
            FrameStatus::kNeedMore);
}

TEST(WireReaderTest, OverrunsFailSticky) {
  std::string payload;
  AppendString(&payload, "ab");
  WireReader reader(payload);
  std::string s;
  EXPECT_TRUE(reader.ReadString(&s));
  EXPECT_EQ(s, "ab");
  EXPECT_TRUE(reader.AtEnd());
  uint64_t v = 0;
  EXPECT_FALSE(reader.ReadU64(&v));  // past the end
  EXPECT_FALSE(reader.ok());
  uint8_t b = 0;
  EXPECT_FALSE(reader.ReadU8(&b));  // sticky

  // A string length prefix overrunning the payload fails without reading.
  std::string lying;
  AppendU16(&lying, 1000);
  lying += "short";
  WireReader liar(lying);
  EXPECT_FALSE(liar.ReadString(&s));
  EXPECT_FALSE(liar.ok());

  // An f64 count larger than the remaining bytes fails before allocating.
  WireReader tiny(std::string_view("\x01\x02\x03", 3));
  std::vector<double> doubles;
  EXPECT_FALSE(tiny.ReadF64Array(1u << 30, &doubles));
  EXPECT_TRUE(doubles.empty());
}

TEST(WirePeekTest, PeekAgreesWithFullDecodeAndFailsOnTruncation) {
  // The reactor routes predicts by peeking only the leading dataset
  // string; the worker then runs the full decode. The two must agree on
  // every well-formed predict frame, and the peek must refuse exactly the
  // payloads too short to carry the routing key.
  ServiceRequest predict;
  predict.id = 21;
  predict.dataset = "texture60";
  predict.method = "resampled";
  const std::string frame = EncodePredictRequest(predict);
  const std::string_view payload(frame.data() + kHeaderBytes,
                                 frame.size() - kHeaderBytes);

  std::string peeked;
  ASSERT_TRUE(PeekPredictDataset(payload, &peeked));
  FrameHeader header;
  header.op = WireOp::kPredict;
  header.id = predict.id;
  RequestLine request;
  std::string error;
  ASSERT_TRUE(DecodeRequest(header, payload, &request, &error));
  EXPECT_EQ(peeked, request.predict.dataset);

  // Every truncation that cuts into the length prefix or the string bytes
  // fails; anything at or past the full string still peeks successfully.
  const size_t need = 2 + predict.dataset.size();
  for (size_t len = 0; len <= payload.size(); ++len) {
    std::string name;
    EXPECT_EQ(PeekPredictDataset(payload.substr(0, len), &name), len >= need)
        << "truncated to " << len;
  }
}

TEST(WirePeekTest, PeekNeverCrashesOnGarbage) {
  common::Rng rng(31);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string bytes;
    const size_t len = rng.NextBounded(40);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.NextBounded(256)));
    }
    std::string dataset;
    PeekPredictDataset(bytes, &dataset);
  }
}

// --- seeded malformed-frame fuzz corpus ---------------------------------
//
// The contract under test: no byte stream — random garbage, truncation,
// or bit-flipped real frames — may crash the extract/decode path. ASan and
// TSan runs of this suite are the memory-safety half of the server's
// "rejects cleanly, never crashes" claim.

/// Valid frames of every kind, used as fuzz seeds.
std::vector<std::string> SeedCorpus() {
  ServiceRequest predict;
  predict.id = 11;
  predict.dataset = "alpha";
  predict.method = "cutoff";
  predict.per_query = true;
  ServiceResponse ok_response;
  ok_response.id = 12;
  ok_response.ok = true;
  ok_response.result.per_query_accesses = {1.0, 2.0, 3.0};
  ServiceResponse err_response;
  err_response.id = 13;
  err_response.error = "boom";
  ServiceMetrics metrics;
  metrics.shards.resize(3);
  LoadResult load;
  load.ok = true;
  load.dataset = "d";
  load.points = 100;
  load.dims = 8;
  return {
      EncodePredictRequest(predict),
      Encode<LoadRequest>(kWire, LoadLine("d", "/tmp/d.hdx"), 1),
      EncodeStatsRequest(2),
      Encode<ShutdownRequest>(kWire, {}, 3),
      EncodePredictResponse(ok_response, /*per_query=*/true),
      EncodePredictResponse(ok_response, /*per_query=*/false),
      EncodePredictResponse(err_response, /*per_query=*/false),
      Encode<PredictResponse>(kWire, Shed(4, 0, 50)),
      Encode<ErrorResponse>(kWire, "bad magic", 0),
      Encode<StatsResponse>(kWire, metrics, 5),
      Encode<LoadResponse>(kWire, load, 6),
      Encode<ShutdownResponse>(kWire, 42, 7),
  };
}

TEST(WireFuzzTest, RandomGarbageNeverCrashesTheDecoder) {
  common::Rng rng(20260809);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string bytes;
    const size_t len = rng.NextBounded(96);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.NextBounded(256)));
    }
    ExtractAndDecode(bytes);
  }
}

TEST(WireFuzzTest, MutatedAndTruncatedRealFramesNeverCrash) {
  const std::vector<std::string> corpus = SeedCorpus();
  common::Rng rng(7);
  for (int iter = 0; iter < 4000; ++iter) {
    std::string frame = corpus[rng.NextBounded(corpus.size())];
    // Flip a few bits anywhere — header fields, length prefixes, payload.
    const size_t flips = 1 + rng.NextBounded(4);
    for (size_t f = 0; f < flips; ++f) {
      frame[rng.NextBounded(frame.size())] ^=
          static_cast<char>(1u << rng.NextBounded(8));
    }
    // Half the time also truncate, so length fields lie about what follows.
    if (rng.NextBernoulli(0.5)) {
      frame.resize(rng.NextBounded(frame.size() + 1));
    }
    ExtractAndDecode(frame);
  }
}

TEST(WireFuzzTest, ValidHeadersWithGarbagePayloadsFailCleanly) {
  // Well-framed garbage: the header passes NextFrame, so every byte of the
  // payload reaches the payload decoders. They must reject without crashing
  // (kStats/kShutdown requests are the exception: their only valid payload
  // is empty, so a non-empty one simply fails DecodeRequest).
  common::Rng rng(99);
  for (int iter = 0; iter < 2000; ++iter) {
    const auto op = static_cast<WireOp>(rng.NextBounded(5));
    const auto flags = static_cast<uint16_t>(rng.NextBounded(64));
    std::string payload;
    const size_t len = rng.NextBounded(64);
    for (size_t i = 0; i < len; ++i) {
      payload.push_back(static_cast<char>(rng.NextBounded(256)));
    }
    const std::string frame =
        EncodeFrame(op, flags, rng.NextU64(), payload);
    EXPECT_EQ(ExtractAndDecode(frame), FrameStatus::kFrame);
  }
}

}  // namespace
}  // namespace hdidx::service::wire
