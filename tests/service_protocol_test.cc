#include "service/protocol.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "service/wire.h"

namespace hdidx::service {
namespace {

constexpr Framing kWire = Framing::kWire;
constexpr Framing kJson = Framing::kJson;

/// A JSON line as the server writes it, without the newline.
template <class Msg>
std::string Line(const typename Msg::Data& data) {
  std::string line = Encode<Msg>(kJson, data);
  EXPECT_EQ(line.back(), '\n');
  line.pop_back();
  return line;
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

TEST(ProtocolParseTest, FlatObjectRoundTrip) {
  // Every scalar kind parses; keys no request reads are skipped.
  RequestLine line;
  std::string error;
  ASSERT_TRUE(ParseRequestLine(
      R"({"dataset":"a\"b\\c\/\u0041","n":-1.5e2,"per_query":true,)"
      R"("f":false,"z":null})",
      &line, &error))
      << error;
  EXPECT_EQ(line.predict.dataset, "a\"b\\c/A");
  EXPECT_TRUE(line.predict.per_query);

  ASSERT_TRUE(ParseRequestLine("  { \"op\" : \"stats\" }  ", &line, &error))
      << error;
  EXPECT_EQ(line.op, RequestLine::Op::kStats);
  // The empty object parses, and is a predict without its dataset.
  EXPECT_FALSE(ParseRequestLine("  { }  ", &line, &error));
  EXPECT_NE(error.find("needs 'dataset'"), std::string::npos) << error;
}

TEST(ProtocolParseTest, MalformedInputsAreRejectedWithReasons) {
  RequestLine line;
  for (const char* malformed :
       {"not json", "{\"a\":1", "{\"a\":1} trailing", "{\"a\":}",
        "{\"a\":\"unterminated}", "{\"a\":\"\\q\"}", "{\"a\":\"\\u00e9\"}"}) {
    std::string error;
    EXPECT_FALSE(ParseRequestLine(malformed, &line, &error)) << malformed;
    EXPECT_FALSE(error.empty()) << malformed;
  }
  // Nested containers are a request-side error by design.
  std::string error;
  EXPECT_FALSE(ParseRequestLine("{\"a\":{\"b\":1}}", &line, &error));
  EXPECT_NE(error.find("nested"), std::string::npos);
  EXPECT_FALSE(ParseRequestLine("{\"a\":[1,2]}", &line, &error));
}

TEST(ProtocolParseTest, PredictRequestFieldsAndDefaults) {
  RequestLine line;
  std::string error;
  ASSERT_TRUE(ParseRequestLine(
      R"({"op":"predict","dataset":"d1","method":"mini","memory":2000,)"
      R"("num_queries":50,"k":7,"seed":42,"page_bytes":4096,"id":9,)"
      R"("per_query":true})",
      &line, &error))
      << error;
  EXPECT_EQ(line.op, RequestLine::Op::kPredict);
  EXPECT_TRUE(line.has_id);
  EXPECT_EQ(line.predict.id, 9u);
  EXPECT_EQ(line.predict.dataset, "d1");
  EXPECT_EQ(line.predict.method, "mini");
  EXPECT_EQ(line.predict.memory, 2000u);
  EXPECT_EQ(line.predict.num_queries, 50u);
  EXPECT_EQ(line.predict.k, 7u);
  EXPECT_EQ(line.predict.seed, 42u);
  EXPECT_EQ(line.predict.page_bytes, 4096u);
  EXPECT_TRUE(line.predict.per_query);

  // Minimal predict: only the dataset; everything else defaults.
  ASSERT_TRUE(ParseRequestLine(R"({"dataset":"d2"})", &line, &error));
  EXPECT_EQ(line.op, RequestLine::Op::kPredict);
  EXPECT_FALSE(line.has_id);
  EXPECT_EQ(line.predict.method, "resampled");
  EXPECT_EQ(line.predict.page_bytes, 8192u);

  // Required / typed fields.
  EXPECT_FALSE(ParseRequestLine(R"({"op":"predict"})", &line, &error));
  EXPECT_FALSE(ParseRequestLine(
      R"({"op":"predict","dataset":"d","k":2.5})", &line, &error));
  EXPECT_FALSE(ParseRequestLine(
      R"({"op":"predict","dataset":"d","k":-3})", &line, &error));
  EXPECT_FALSE(ParseRequestLine(
      R"({"op":"predict","dataset":"d","memory":"lots"})", &line, &error));
  EXPECT_FALSE(ParseRequestLine(R"({"op":"teleport"})", &line, &error));
  EXPECT_NE(error.find("unknown op"), std::string::npos);
}

TEST(ProtocolParseTest, IntegersAreExactOverTheFullU64Range) {
  // 2^53 + 1 has no double; it must not be rounded on its way to the seed.
  RequestLine line;
  std::string error;
  ASSERT_TRUE(ParseRequestLine(
      R"({"dataset":"d","seed":9007199254740993,"id":9007199254740993})",
      &line, &error))
      << error;
  EXPECT_EQ(line.predict.seed, 9007199254740993ull);
  EXPECT_EQ(line.predict.id, 9007199254740993ull);

  // The largest u64 is a valid seed on the wire, so it is one in JSON too,
  // and both framings decode the same request.
  ServiceRequest max;
  max.id = 7;
  max.dataset = "d";
  max.seed = 18446744073709551615ull;
  max.memory = 18446744073709551615ull;
  ASSERT_TRUE(ParseRequestLine(
      R"({"op":"predict","id":7,"dataset":"d","seed":18446744073709551615,)"
      R"("memory":18446744073709551615})",
      &line, &error))
      << error;
  const std::string frame = wire::EncodePredictRequest(max);
  wire::FrameHeader header;
  std::string_view payload;
  size_t consumed = 0;
  ASSERT_EQ(wire::NextFrame(frame, wire::kDefaultMaxPayload, &consumed,
                            &header, &payload, &error),
            wire::FrameStatus::kFrame);
  RequestLine decoded;
  ASSERT_TRUE(wire::DecodeRequest(header, payload, &decoded, &error)) << error;
  EXPECT_EQ(line.predict.seed, decoded.predict.seed);
  EXPECT_EQ(line.predict.memory, decoded.predict.memory);
  EXPECT_EQ(line.predict.id, decoded.predict.id);

  // One past the range, negative, and fractional values are refused.
  for (const char* seed : {"18446744073709551616", "-1", "1.5"}) {
    EXPECT_FALSE(ParseRequestLine(
        std::string(R"({"dataset":"d","seed":)") + seed + "}", &line, &error))
        << seed;
  }
}

TEST(ProtocolParseTest, NamesAreCappedInBothFramings) {
  RequestLine line;
  std::string error;
  const std::string at_cap(kMaxNameBytes, 'n');
  const std::string over_cap(kMaxNameBytes + 1, 'n');
  EXPECT_TRUE(ParseRequestLine("{\"dataset\":\"" + at_cap + "\"}", &line,
                               &error))
      << error;
  EXPECT_FALSE(ParseRequestLine("{\"dataset\":\"" + over_cap + "\"}", &line,
                                &error));
  EXPECT_FALSE(ParseRequestLine(
      "{\"dataset\":\"d\",\"method\":\"" + over_cap + "\"}", &line, &error));
  EXPECT_FALSE(ParseRequestLine(
      "{\"op\":\"load\",\"dataset\":\"d\",\"path\":\"" + over_cap + "\"}",
      &line, &error));
  EXPECT_NE(error.find(std::to_string(kMaxNameBytes)), std::string::npos)
      << error;

  RequestLine load;
  load.load_dataset = over_cap;
  load.load_path = "/x.hdx";
  const std::string frame = Encode<LoadRequest>(kWire, load);
  wire::FrameHeader header;
  std::string_view payload;
  size_t consumed = 0;
  ASSERT_EQ(wire::NextFrame(frame, wire::kDefaultMaxPayload, &consumed,
                            &header, &payload, &error),
            wire::FrameStatus::kFrame);
  EXPECT_FALSE(wire::DecodeRequest(header, payload, &line, &error));
}

TEST(ProtocolParseTest, LoadStatsShutdownOps) {
  RequestLine line;
  std::string error;
  ASSERT_TRUE(ParseRequestLine(
      R"({"op":"load","dataset":"d","path":"/tmp/x.hdx"})", &line, &error));
  EXPECT_EQ(line.op, RequestLine::Op::kLoad);
  EXPECT_EQ(line.load_dataset, "d");
  EXPECT_EQ(line.load_path, "/tmp/x.hdx");
  EXPECT_FALSE(ParseRequestLine(R"({"op":"load","dataset":"d"})", &line,
                                &error));
  ASSERT_TRUE(ParseRequestLine(R"({"op":"stats"})", &line, &error));
  EXPECT_EQ(line.op, RequestLine::Op::kStats);
  ASSERT_TRUE(ParseRequestLine(R"({"op":"shutdown"})", &line, &error));
  EXPECT_EQ(line.op, RequestLine::Op::kShutdown);
}

TEST(ProtocolSerializeTest, QuotingAndErrorResults) {
  EXPECT_EQ(JsonQuote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
  ServiceResponse failed;
  failed.ok = false;
  failed.error = "unknown dataset: \"x\"";
  const std::string serialized = SerializeResult(failed, false);
  EXPECT_EQ(serialized, "{\"error\":\"unknown dataset: \\\"x\\\"\"}");
}

TEST(ProtocolSerializeTest, ResultPayloadIsSelfConsistent) {
  ServiceResponse response;
  response.ok = true;
  response.id = 3;
  response.result.avg_leaf_accesses = 12.5;
  response.result.per_query_accesses = {12.0, 13.0};
  response.result.num_predicted_leaves = 7;
  response.result.h_upper = 2;
  response.result.sigma_upper = 0.25;
  response.result.sigma_lower = 1.0;
  response.result.io.page_seeks = 11;
  response.result.io.page_transfers = 22;
  const std::string payload = SerializeResult(response, true);
  EXPECT_NE(payload.find("\"avg_leaf_accesses\":12.5"), std::string::npos);
  EXPECT_NE(payload.find("\"num_queries\":2"), std::string::npos);
  EXPECT_NE(payload.find("\"per_query\":[12,13]"), std::string::npos);
  EXPECT_NE(payload.find("\"io_seeks\":11"), std::string::npos);

  const std::string full = Line<PredictResponse>({response, false});
  EXPECT_NE(full.find("\"op\":\"predict\""), std::string::npos);
  EXPECT_NE(full.find("\"id\":3"), std::string::npos);
  EXPECT_NE(full.find("\"cache\":\"miss\""), std::string::npos);
  // The metadata wrapper embeds the identical payload bytes.
  EXPECT_NE(full.find(SerializeResult(response, false)), std::string::npos);
}

TEST(ProtocolSerializeTest, ControlAndShedLines) {
  LoadResult loaded;
  loaded.ok = true;
  loaded.dataset = "d";
  loaded.points = 400;
  loaded.dims = 5;
  loaded.shard = 1;
  EXPECT_EQ(Line<LoadResponse>(loaded),
            "{\"op\":\"load\",\"ok\":true,\"dataset\":\"d\",\"points\":400,"
            "\"dims\":5,\"shard\":1}");
  LoadResult refused;
  refused.dataset = "d";
  refused.error = "dataset already registered: d";
  EXPECT_EQ(Line<LoadResponse>(refused),
            "{\"op\":\"load\",\"ok\":false,\"dataset\":\"d\","
            "\"error\":\"dataset already registered: d\"}");
  EXPECT_EQ(Line<ShutdownResponse>(3),
            "{\"op\":\"shutdown\",\"ok\":true,\"served\":3}");
  EXPECT_EQ(Line<ErrorResponse>("expected '{'"),
            "{\"op\":\"error\",\"ok\":false,\"error\":\"expected '{'\"}");
  EXPECT_EQ(Line<PredictResponse>(Shed(7, 2, 50)),
            "{\"op\":\"predict\",\"id\":7,\"ok\":false,\"shed\":true,"
            "\"shard\":2,\"retry_after_ms\":50}");
}

TEST(ProtocolGoldenTest, ResponseLinesArePinned) {
  // Byte-exact JSON lines for the values pinned as wire frames in
  // WireGoldenTest.ResponseBytesArePinned.
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
  const std::string head =
      "{\"op\":\"predict\",\"id\":5,\"ok\":true,\"shard\":1,\"cache\":\"hit\","
      "\"workload_cache\":\"miss\",\"served_seeks\":3,\"served_transfers\":4,"
      "\"latency_ms\":0.5,\"result\":{\"avg_leaf_accesses\":2.5,"
      "\"num_queries\":2,\"num_predicted_leaves\":6,\"h_upper\":2,"
      "\"sigma_upper\":0.25,\"sigma_lower\":1,\"io_seeks\":7,"
      "\"io_transfers\":8";
  EXPECT_EQ(Line<PredictResponse>({ok, /*per_query=*/true}),
            head + ",\"per_query\":[2,3]}}");
  EXPECT_EQ(Line<PredictResponse>({ok, /*per_query=*/false}), head + "}}");

  ServiceResponse failed;
  failed.id = 6;
  failed.latency_ms = 0.125;
  failed.served_io.page_seeks = 9;  // JSON keeps served_* on errors
  failed.error = "bad \"x\"";
  EXPECT_EQ(Line<PredictResponse>({failed, false}),
            "{\"op\":\"predict\",\"id\":6,\"ok\":false,\"shard\":0,"
            "\"cache\":\"miss\",\"workload_cache\":\"miss\","
            "\"served_seeks\":9,\"served_transfers\":0,\"latency_ms\":0.125,"
            "\"result\":{\"error\":\"bad \\\"x\\\"\"}}");

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
  EXPECT_EQ(Line<StatsResponse>(metrics),
            "{\"op\":\"stats\",\"ok\":true,\"requests\":10,\"batches\":0,"
            "\"errors\":1,\"mean_batch_size\":0,"
            "\"result_cache\":{\"hits\":4,\"misses\":6,\"evictions\":1},"
            "\"workload_cache\":{\"hits\":3,\"misses\":7,\"evictions\":2},"
            "\"shed_total\":5,\"shards\":[{\"requests\":4,\"p50_ms\":0.5,"
            "\"p90_ms\":1,\"p99_ms\":2,\"queue_depth\":0,"
            "\"peak_queue_depth\":3,\"shed\":0},{\"requests\":6,"
            "\"p50_ms\":1.5,\"p90_ms\":2.5,\"p99_ms\":3.5,\"queue_depth\":2,"
            "\"peak_queue_depth\":4,\"shed\":5}]}");
}

// --- cross-framing property and JSON fuzz battery ---------------------------
//
// The contract under test: every message, rendered in either framing and
// read back, is the struct it was made from, up to the framing differences
// each message's definition states. Seeded, so a failure reproduces.

/// Strings with every character class a name or message can hold: empty,
/// quotes, backslashes, control characters, and raw UTF-8.
std::string RandomString(common::Rng* rng, bool non_empty) {
  static constexpr std::string_view kAlphabet[] = {
      "a", "Z", "0", "_", "/", " ", "\"", "\\", "\n", "\t", "\r", "\x01",
      "\x1f", "\x7f", "\xc3\xa9", "{", "}", ",", ":"};
  std::string out;
  const size_t length = rng->NextBounded(12) + (non_empty ? 1 : 0);
  for (size_t i = 0; i < length; ++i) {
    out += kAlphabet[rng->NextBounded(std::size(kAlphabet))];
  }
  return out;
}

/// Any finite double, from its bits: subnormals, negatives, huge values.
double RandomDouble(common::Rng* rng) {
  while (true) {
    const double v = std::bit_cast<double>(rng->NextU64());
    if (std::isfinite(v)) return v;
  }
}

/// A u64 from anywhere in the range, edges included.
uint64_t RandomU64(common::Rng* rng) {
  switch (rng->NextBounded(4)) {
    case 0: return 0;
    case 1: return UINT64_MAX;
    case 2: return rng->NextBounded(1000);
    default: return rng->NextU64();
  }
}

/// Encodes `data` as `Msg` in `framing` and decodes it back.
template <class Msg>
typename Msg::Data RoundTrip(Framing framing, const typename Msg::Data& data,
                             uint64_t id = 0) {
  const std::string bytes = Encode<Msg>(framing, data, id);
  wire::FrameHeader header;
  std::string_view body = bytes;
  std::string error;
  if (framing == kWire) {
    size_t consumed = 0;
    EXPECT_EQ(wire::NextFrame(bytes, wire::kDefaultMaxPayload, &consumed,
                              &header, &body, &error),
              wire::FrameStatus::kFrame);
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(header.id, id);
  } else {
    EXPECT_EQ(bytes.find('\n'), bytes.size() - 1) << bytes;
    body.remove_suffix(1);
  }
  typename Msg::Data out;
  EXPECT_TRUE(Decode<Msg>(framing, header, body, &out, &error))
      << error << " in " << bytes;
  return out;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectSameRequest(const ServiceRequest& a, const ServiceRequest& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.dataset, b.dataset);
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.memory, b.memory);
  EXPECT_EQ(a.num_queries, b.num_queries);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.page_bytes, b.page_bytes);
  EXPECT_EQ(a.per_query, b.per_query);
}

void ExpectSameReply(const PredictReply& a, const PredictReply& b) {
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.retry_after_ms, b.retry_after_ms);
  EXPECT_EQ(a.per_query, b.per_query);
  const ServiceResponse& x = a.response;
  const ServiceResponse& y = b.response;
  EXPECT_EQ(x.id, y.id);
  EXPECT_EQ(x.ok, y.ok);
  EXPECT_EQ(x.error, y.error);
  EXPECT_EQ(x.shard, y.shard);
  EXPECT_EQ(x.cache_hit, y.cache_hit);
  EXPECT_EQ(x.workload_cache_hit, y.workload_cache_hit);
  EXPECT_EQ(x.served_io.page_seeks, y.served_io.page_seeks);
  EXPECT_EQ(x.served_io.page_transfers, y.served_io.page_transfers);
  EXPECT_EQ(Bits(x.latency_ms), Bits(y.latency_ms));
  EXPECT_EQ(Bits(x.result.avg_leaf_accesses), Bits(y.result.avg_leaf_accesses));
  ASSERT_EQ(x.result.per_query_accesses.size(),
            y.result.per_query_accesses.size());
  for (size_t i = 0; i < x.result.per_query_accesses.size(); ++i) {
    EXPECT_EQ(Bits(x.result.per_query_accesses[i]),
              Bits(y.result.per_query_accesses[i]));
  }
  EXPECT_EQ(x.result.num_predicted_leaves, y.result.num_predicted_leaves);
  EXPECT_EQ(x.result.h_upper, y.result.h_upper);
  EXPECT_EQ(Bits(x.result.sigma_upper), Bits(y.result.sigma_upper));
  EXPECT_EQ(Bits(x.result.sigma_lower), Bits(y.result.sigma_lower));
  EXPECT_EQ(x.result.io.page_seeks, y.result.io.page_seeks);
  EXPECT_EQ(x.result.io.page_transfers, y.result.io.page_transfers);
}

PredictReply RandomReply(common::Rng* rng) {
  PredictReply reply;
  ServiceResponse& r = reply.response;
  r.id = RandomU64(rng);
  r.shard = rng->NextBounded(1u << 16);
  if (rng->NextBernoulli(0.2)) {
    reply.shed = true;
    reply.retry_after_ms = static_cast<uint32_t>(rng->NextU64());
    return reply;
  }
  reply.per_query = rng->NextBernoulli(0.5);
  r.ok = rng->NextBernoulli(0.7);
  r.cache_hit = rng->NextBernoulli(0.5);
  r.workload_cache_hit = rng->NextBernoulli(0.5);
  r.latency_ms = RandomDouble(rng);
  r.served_io.page_seeks = RandomU64(rng);
  r.served_io.page_transfers = RandomU64(rng);
  if (!r.ok) {
    r.error = RandomString(rng, /*non_empty=*/false);
    return reply;
  }
  r.result.avg_leaf_accesses = RandomDouble(rng);
  r.result.per_query_accesses.resize(rng->NextBounded(5));
  for (double& v : r.result.per_query_accesses) v = RandomDouble(rng);
  r.result.num_predicted_leaves = RandomU64(rng);
  r.result.h_upper = RandomU64(rng);
  r.result.sigma_upper = RandomDouble(rng);
  r.result.sigma_lower = RandomDouble(rng);
  r.result.io.page_seeks = RandomU64(rng);
  r.result.io.page_transfers = RandomU64(rng);
  return reply;
}

TEST(ProtocolPropertyTest, RequestsRoundTripIdenticallyInBothFramings) {
  common::Rng rng(20261020);
  for (int iter = 0; iter < 300; ++iter) {
    ServiceRequest predict;
    predict.id = RandomU64(&rng);
    predict.dataset = RandomString(&rng, /*non_empty=*/true);
    predict.method = RandomString(&rng, /*non_empty=*/false);
    predict.memory = RandomU64(&rng);
    predict.num_queries = RandomU64(&rng);
    predict.k = RandomU64(&rng);
    predict.seed = RandomU64(&rng);
    predict.page_bytes = RandomU64(&rng);
    predict.per_query = rng.NextBernoulli(0.5);
    RequestLine load;
    load.load_dataset = RandomString(&rng, /*non_empty=*/true);
    load.load_path = RandomString(&rng, /*non_empty=*/true);
    for (const Framing framing : {kWire, kJson}) {
      SCOPED_TRACE(framing == kWire ? "wire" : "json");
      ExpectSameRequest(
          RoundTrip<PredictRequest>(framing, predict, predict.id), predict);
      const RequestLine loaded = RoundTrip<LoadRequest>(framing, load, 9);
      EXPECT_EQ(loaded.load_dataset, load.load_dataset);
      EXPECT_EQ(loaded.load_path, load.load_path);
      RoundTrip<StatsRequest>(framing, RequestLine{}, 10);
      RoundTrip<ShutdownRequest>(framing, RequestLine{}, 11);
    }
    // The server's request readers agree across framings too.
    const std::string line = Encode<PredictRequest>(kJson, predict);
    RequestLine from_json;
    std::string error;
    ASSERT_TRUE(ParseRequestLine(line.substr(0, line.size() - 1), &from_json,
                                 &error))
        << error;
    EXPECT_TRUE(from_json.has_id);
    ExpectSameRequest(from_json.predict, predict);
  }
}

TEST(ProtocolPropertyTest, ResponsesRoundTripInBothFramings) {
  common::Rng rng(61);
  for (int iter = 0; iter < 300; ++iter) {
    const PredictReply reply = RandomReply(&rng);

    // The stated framing differences, applied to the expectation: the
    // wire drops served_* on errors and zero-fills an unsent per-query
    // array to its count; JSON has no per_query flag outside an ok
    // result's array.
    PredictReply on_wire = reply;
    if (!reply.shed && !reply.response.ok) on_wire.response.served_io = {};
    if (!reply.per_query) {
      std::fill(on_wire.response.result.per_query_accesses.begin(),
                on_wire.response.result.per_query_accesses.end(), 0.0);
    }
    PredictReply in_json = on_wire;
    in_json.response.served_io = reply.response.served_io;
    in_json.per_query = reply.per_query && reply.response.ok;
    ExpectSameReply(
        RoundTrip<PredictResponse>(kWire, reply, reply.response.id),
        on_wire);
    ExpectSameReply(RoundTrip<PredictResponse>(kJson, reply),
                    in_json);

    const std::string message = RandomString(&rng, /*non_empty=*/false);
    LoadResult load;
    load.ok = rng.NextBernoulli(0.5);
    load.dataset = RandomString(&rng, /*non_empty=*/false);
    if (load.ok) {
      load.points = RandomU64(&rng);
      load.dims = static_cast<uint32_t>(rng.NextU64());
      load.shard = static_cast<uint32_t>(rng.NextU64());
    } else {
      load.error = RandomString(&rng, /*non_empty=*/false);
    }
    ServiceMetrics metrics;
    metrics.requests = RandomU64(&rng);
    metrics.batches = RandomU64(&rng);
    metrics.errors = RandomU64(&rng);
    metrics.mean_batch_size = RandomDouble(&rng);
    metrics.result_hits = RandomU64(&rng);
    metrics.result_misses = RandomU64(&rng);
    metrics.result_evictions = RandomU64(&rng);
    metrics.workload_hits = RandomU64(&rng);
    metrics.workload_misses = RandomU64(&rng);
    metrics.workload_evictions = RandomU64(&rng);
    metrics.shed_total = RandomU64(&rng);
    metrics.shards.resize(rng.NextBounded(4));
    for (ServiceMetrics::Shard& shard : metrics.shards) {
      shard = {RandomU64(&rng), RandomDouble(&rng), RandomDouble(&rng),
               RandomDouble(&rng), RandomU64(&rng), RandomU64(&rng),
               RandomU64(&rng)};
    }
    const uint64_t served = RandomU64(&rng);
    for (const Framing framing : {kWire, kJson}) {
      SCOPED_TRACE(framing == kWire ? "wire" : "json");
      EXPECT_EQ(RoundTrip<ErrorResponse>(framing, message, 3), message);
      const LoadResult got = RoundTrip<LoadResponse>(framing, load, 4);
      EXPECT_EQ(got.ok, load.ok);
      EXPECT_EQ(got.dataset, load.dataset);
      EXPECT_EQ(got.points, load.points);
      EXPECT_EQ(got.dims, load.dims);
      EXPECT_EQ(got.shard, load.shard);
      EXPECT_EQ(got.error, load.error);
      // Stats render as one canonical JSON line, so equal lines are equal
      // structs (every double prints as %.17g and reads back exactly).
      EXPECT_EQ(Line<StatsResponse>(RoundTrip<StatsResponse>(framing,
                                                             metrics, 5)),
                Line<StatsResponse>(metrics));
      EXPECT_EQ(RoundTrip<ShutdownResponse>(framing, served, 6), served);
    }
  }
}

TEST(ProtocolFuzzTest, RandomAndMutatedLinesNeverCrashAndFailWithAnErrorLine) {
  // Valid lines of every kind seed the mutations: requests the server
  // parses, and responses a client decodes.
  common::Rng rng(404);
  std::vector<std::string> corpus;
  for (int i = 0; i < 8; ++i) {
    ServiceRequest predict;
    predict.dataset = RandomString(&rng, /*non_empty=*/true);
    predict.per_query = rng.NextBernoulli(0.5);
    corpus.push_back(Encode<PredictRequest>(kJson, predict));
    corpus.push_back(Encode<PredictResponse>(kJson,
                                             RandomReply(&rng)));
  }
  RequestLine load;
  load.load_dataset = "d";
  load.load_path = "/tmp/d.hdx";
  corpus.push_back(Encode<LoadRequest>(kJson, load));
  corpus.push_back(Encode<StatsRequest>(kJson, RequestLine{}));
  ServiceMetrics metrics;
  metrics.shards.resize(2);
  corpus.push_back(Encode<StatsResponse>(kJson, metrics));
  constexpr std::string_view kJsonBytes = "{}[]\":,\\ tfnul0123456789.eE-+";

  const auto check = [](const std::string& line) {
    RequestLine request;
    std::string error;
    if (!ParseRequestLine(line, &request, &error)) {
      EXPECT_FALSE(error.empty()) << line;
      const std::string reply = Encode<ErrorResponse>(kJson, error);
      EXPECT_EQ(reply.find('\n'), reply.size() - 1) << reply;
    } else if (request.op == RequestLine::Op::kPredict) {
      EXPECT_LE(request.predict.dataset.size(), kMaxNameBytes);
      EXPECT_FALSE(request.predict.dataset.empty());
    }
    // A client's readers must survive the same bytes.
    const wire::FrameHeader unused;
    PredictReply reply;
    Decode<PredictResponse>(kJson, unused, line, &reply, &error);
    ServiceMetrics stats;
    Decode<StatsResponse>(kJson, unused, line, &stats, &error);
    LoadResult loaded;
    Decode<LoadResponse>(kJson, unused, line, &loaded, &error);
  };

  for (int iter = 0; iter < 3000; ++iter) {
    std::string line;
    if (iter % 4 == 0) {
      const size_t length = rng.NextBounded(64);
      for (size_t i = 0; i < length; ++i) {
        line.push_back(rng.NextBernoulli(0.5)
                           ? static_cast<char>(rng.NextBounded(256))
                           : kJsonBytes[rng.NextBounded(kJsonBytes.size())]);
      }
    } else {
      line = corpus[rng.NextBounded(corpus.size())];
      line.pop_back();  // the newline
      const size_t edits = 1 + rng.NextBounded(4);
      for (size_t e = 0; e < edits && !line.empty(); ++e) {
        const size_t at = rng.NextBounded(line.size());
        const char c = kJsonBytes[rng.NextBounded(kJsonBytes.size())];
        switch (rng.NextBounded(4)) {
          case 0: line[at] = c; break;
          case 1: line.erase(at, 1 + rng.NextBounded(4)); break;
          case 2: line.insert(at, 1, c); break;
          default: line.resize(at); break;
        }
      }
    }
    check(line);
  }
  // Deep nesting is refused without recursion.
  check("{\"a\":" + std::string(100000, '[') + "}");
  check(std::string(100000, '{'));
}

}  // namespace
}  // namespace hdidx::service
