#include "service/async_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "data/dataset_io.h"
#include "gtest/gtest.h"
#include "service/prediction_service.h"
#include "service/protocol.h"
#include "service/wire.h"
#include "test_util.h"

namespace hdidx::service {
namespace {

namespace wire = hdidx::service::wire;

constexpr size_t kPageBytes = 1024;

ServiceRequest Req(const std::string& dataset, const std::string& method,
                   uint64_t seed, uint64_t id) {
  ServiceRequest r;
  r.id = id;
  r.dataset = dataset;
  r.method = method;
  r.memory = 500;
  r.num_queries = 25;
  r.k = 5;
  r.seed = seed;
  r.page_bytes = kPageBytes;
  r.per_query = true;
  return r;
}

std::unique_ptr<PredictionService> MakeService(size_t shards) {
  ServiceOptions options;
  options.num_shards = shards;
  options.total_threads = 4;
  auto svc = std::make_unique<PredictionService>(options);
  std::string error;
  uint64_t seed = 11;
  for (const char* name : {"alpha", "beta", "gamma"}) {
    EXPECT_TRUE(svc->registry().Add(
        name, testing::SmallClustered(3000, 8, seed++), &error))
        << error;
  }
  return svc;
}

/// Minimal blocking test client for the wire protocol: one socket, an
/// accumulation buffer, and a 60 s receive timeout so a server bug fails
/// the test instead of hanging it.
class WireClient {
 public:
  ~WireClient() { Close(); }

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval timeout{};
    timeout.tv_sec = 60;
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = wire::HostToNet16(port);
    if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      Close();
      return false;
    }
    return true;
  }

  bool Send(std::string_view bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent,
                               bytes.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Blocks until one whole frame arrives. Returns false on timeout,
  /// transport error, or peer close (`*error` says which).
  bool Read(wire::FrameHeader* header, std::string* payload,
            std::string* error) {
    while (true) {
      size_t consumed = 0;
      std::string_view view;
      const wire::FrameStatus status =
          wire::NextFrame(buffer_, wire::kDefaultMaxPayload, &consumed,
                          header, &view, error);
      if (status == wire::FrameStatus::kError) return false;
      if (status == wire::FrameStatus::kFrame) {
        payload->assign(view);
        buffer_.erase(0, consumed);
        return true;
      }
      if (!Fill(error)) return false;
    }
  }

  /// Blocks until one whole JSON response line arrives (newline stripped).
  bool ReadLine(std::string* line, std::string* error) {
    while (true) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        line->assign(buffer_, 0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      if (!Fill(error)) return false;
    }
  }

  /// True iff the server closes the connection without sending more frames.
  bool ReadClosed() {
    wire::FrameHeader header;
    std::string payload;
    std::string error;
    return !Read(&header, &payload, &error) && error == "closed";
  }

  void Close() {
    if (fd_ >= 0) {
      close(fd_);
      fd_ = -1;
    }
  }

 private:
  /// Appends the next chunk from the socket; false on timeout, transport
  /// error, or peer close ("closed").
  bool Fill(std::string* error) {
    while (true) {
      char chunk[1 << 16];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        *error = std::string("recv: ") + std::strerror(errno);
        return false;
      }
      if (n == 0) {
        *error = "closed";
        return false;
      }
      buffer_.append(chunk, static_cast<size_t>(n));
      return true;
    }
  }

  int fd_ = -1;
  std::string buffer_;
};

/// Sends a shutdown frame, checks the ack, and waits the server down.
/// Returns the served count the ack carried.
uint64_t ShutdownAndWait(WireClient* client, AsyncServer* server) {
  EXPECT_TRUE(client->Send(wire::EncodeShutdownRequest(999)));
  wire::FrameHeader header;
  std::string payload;
  std::string error;
  EXPECT_TRUE(client->Read(&header, &payload, &error)) << error;
  uint64_t served = 0;
  EXPECT_TRUE(
      wire::DecodeShutdownResponse(header, payload, &served, &error))
      << error;
  EXPECT_EQ(header.id, 999u);
  EXPECT_EQ(server->Wait(), served);
  return served;
}

/// The determinism battery: one request per (dataset, method, seed).
std::vector<ServiceRequest> BatteryRequests() {
  std::vector<ServiceRequest> requests;
  uint64_t id = 0;
  for (const char* dataset : {"alpha", "beta", "gamma"}) {
    for (const char* method : {"mini", "cutoff", "resampled"}) {
      for (const uint64_t seed : {1, 2}) {
        requests.push_back(Req(dataset, method, seed, ++id));
      }
    }
  }
  return requests;
}

/// Golden `result` objects of the battery by request id, captured from the
/// stdin line-protocol server that served JSON before the socket framing
/// (1, 2 and 4 shards gave identical bytes). Every framing must reproduce
/// them byte for byte.
constexpr char kBatteryGolden[] = R"golden(1	{"avg_leaf_accesses":6.3200000000000003,"num_queries":25,"num_predicted_leaves":108,"h_upper":0,"sigma_upper":0.16666666666666666,"sigma_lower":1,"io_seeks":0,"io_transfers":0,"per_query":[7,4,6,2,4,7,7,6,3,7,10,1,6,5,10,3,18,12,6,4,6,5,9,6,4]}
2	{"avg_leaf_accesses":5.6399999999999997,"num_queries":25,"num_predicted_leaves":108,"h_upper":0,"sigma_upper":0.16666666666666666,"sigma_lower":1,"io_seeks":0,"io_transfers":0,"per_query":[5,7,3,7,7,5,6,9,4,7,3,4,5,8,2,6,4,4,5,2,6,7,14,6,5]}
3	{"avg_leaf_accesses":3.4399999999999999,"num_queries":25,"num_predicted_leaves":108,"h_upper":2,"sigma_upper":0.16666666666666666,"sigma_lower":1,"io_seeks":26,"io_transfers":119,"per_query":[1,2,1,7,2,1,1,3,2,1,2,3,1,4,2,2,40,2,1,2,2,1,1,1,1]}
4	{"avg_leaf_accesses":4.5999999999999996,"num_queries":25,"num_predicted_leaves":108,"h_upper":2,"sigma_upper":0.16666666666666666,"sigma_lower":1,"io_seeks":26,"io_transfers":119,"per_query":[8,2,4,1,4,2,4,2,2,1,1,2,2,2,4,2,2,2,1,2,1,2,55,3,4]}
5	{"avg_leaf_accesses":7.5999999999999996,"num_queries":25,"num_predicted_leaves":108,"h_upper":2,"sigma_upper":0.16666666666666666,"sigma_lower":1,"io_seeks":88,"io_transfers":459,"per_query":[6,5,5,6,5,9,6,11,5,11,6,5,5,5,7,9,30,13,5,5,5,5,7,8,6]}
6	{"avg_leaf_accesses":8.1199999999999992,"num_queries":25,"num_predicted_leaves":108,"h_upper":2,"sigma_upper":0.16666666666666666,"sigma_lower":1,"io_seeks":88,"io_transfers":460,"per_query":[6,12,4,5,6,7,10,10,7,10,7,6,6,8,6,7,6,5,9,4,5,7,30,9,11]}
7	{"avg_leaf_accesses":8.0800000000000001,"num_queries":25,"num_predicted_leaves":108,"h_upper":0,"sigma_upper":0.16666666666666666,"sigma_lower":1,"io_seeks":0,"io_transfers":0,"per_query":[20,6,7,13,3,10,6,6,7,7,7,10,7,10,7,8,9,7,5,5,6,8,8,5,15]}
8	{"avg_leaf_accesses":7.0800000000000001,"num_queries":25,"num_predicted_leaves":108,"h_upper":0,"sigma_upper":0.16666666666666666,"sigma_lower":1,"io_seeks":0,"io_transfers":0,"per_query":[6,9,3,5,7,2,13,6,5,12,5,8,7,12,12,7,5,5,6,11,6,8,3,9,5]}
9	{"avg_leaf_accesses":4.3600000000000003,"num_queries":25,"num_predicted_leaves":108,"h_upper":2,"sigma_upper":0.16666666666666666,"sigma_lower":1,"io_seeks":26,"io_transfers":119,"per_query":[75,1,1,3,1,2,4,1,1,1,1,2,1,1,1,2,1,2,1,1,1,1,1,2,1]}
10	{"avg_leaf_accesses":1.6000000000000001,"num_queries":25,"num_predicted_leaves":108,"h_upper":2,"sigma_upper":0.16666666666666666,"sigma_lower":1,"io_seeks":26,"io_transfers":119,"per_query":[4,1,1,1,1,1,2,3,2,1,2,1,2,1,2,1,1,4,1,2,2,1,1,1,1]}
11	{"avg_leaf_accesses":8.0399999999999991,"num_queries":25,"num_predicted_leaves":108,"h_upper":2,"sigma_upper":0.16666666666666666,"sigma_lower":1,"io_seeks":88,"io_transfers":457,"per_query":[29,3,9,12,3,6,10,6,6,3,4,14,4,4,4,6,9,6,9,11,11,8,6,7,11]}
12	{"avg_leaf_accesses":7.4000000000000004,"num_queries":25,"num_predicted_leaves":108,"h_upper":2,"sigma_upper":0.16666666666666666,"sigma_lower":1,"io_seeks":88,"io_transfers":461,"per_query":[5,7,5,7,6,5,4,9,5,11,10,7,8,8,10,13,10,6,5,9,7,5,3,15,5]}
13	{"avg_leaf_accesses":5.5599999999999996,"num_queries":25,"num_predicted_leaves":108,"h_upper":0,"sigma_upper":0.16666666666666666,"sigma_lower":1,"io_seeks":0,"io_transfers":0,"per_query":[6,4,6,7,5,5,8,6,5,7,4,5,6,6,3,4,5,6,8,4,4,8,6,5,6]}
14	{"avg_leaf_accesses":6.6399999999999997,"num_queries":25,"num_predicted_leaves":108,"h_upper":0,"sigma_upper":0.16666666666666666,"sigma_lower":1,"io_seeks":0,"io_transfers":0,"per_query":[1,8,5,8,4,7,6,3,5,5,8,4,12,4,8,8,8,6,6,13,7,8,5,5,12]}
15	{"avg_leaf_accesses":1.6000000000000001,"num_queries":25,"num_predicted_leaves":108,"h_upper":2,"sigma_upper":0.16666666666666666,"sigma_lower":1,"io_seeks":26,"io_transfers":119,"per_query":[3,1,1,2,1,1,2,2,2,1,2,1,1,1,5,3,1,1,2,1,1,1,1,2,1]}
16	{"avg_leaf_accesses":2.1600000000000001,"num_queries":25,"num_predicted_leaves":108,"h_upper":2,"sigma_upper":0.16666666666666666,"sigma_lower":1,"io_seeks":26,"io_transfers":119,"per_query":[4,2,2,2,2,2,1,2,1,1,2,1,5,1,1,1,2,1,1,6,2,4,1,2,5]}
17	{"avg_leaf_accesses":6.5999999999999996,"num_queries":25,"num_predicted_leaves":108,"h_upper":2,"sigma_upper":0.16666666666666666,"sigma_lower":1,"io_seeks":88,"io_transfers":460,"per_query":[8,3,3,7,5,8,7,8,9,8,8,7,7,7,6,5,6,8,6,5,6,6,6,10,6]}
18	{"avg_leaf_accesses":7.5999999999999996,"num_queries":25,"num_predicted_leaves":108,"h_upper":2,"sigma_upper":0.16666666666666666,"sigma_lower":1,"io_seeks":88,"io_transfers":460,"per_query":[3,10,12,12,7,11,6,5,6,7,9,3,6,3,5,7,6,8,6,10,11,12,8,7,10]}
)golden";

std::map<uint64_t, std::string> BatteryGolden() {
  std::map<uint64_t, std::string> golden;
  std::istringstream in(kBatteryGolden);
  std::string line;
  while (std::getline(in, line)) {
    const size_t tab = line.find('\t');
    golden[std::stoull(line.substr(0, tab))] = line.substr(tab + 1);
  }
  return golden;
}

/// A JSON predict line carrying every field of `r`.
std::string JsonPredictLine(const ServiceRequest& r) {
  return "{\"op\":\"predict\",\"id\":" + std::to_string(r.id) +
         ",\"dataset\":" + JsonQuote(r.dataset) +
         ",\"method\":" + JsonQuote(r.method) +
         ",\"memory\":" + std::to_string(r.memory) +
         ",\"num_queries\":" + std::to_string(r.num_queries) +
         ",\"k\":" + std::to_string(r.k) +
         ",\"seed\":" + std::to_string(r.seed) +
         ",\"page_bytes\":" + std::to_string(r.page_bytes) +
         ",\"per_query\":" + (r.per_query ? "true" : "false") + "}\n";
}

/// The "id" of a JSON response line (0 when absent).
uint64_t JsonId(const std::string& line) {
  const size_t pos = line.find("\"id\":");
  return pos == std::string::npos ? 0 : std::stoull(line.substr(pos + 5));
}

/// The "result" object of a JSON predict response line.
std::string JsonResult(const std::string& line) {
  const std::string key = ",\"result\":";
  const size_t pos = line.find(key);
  if (pos == std::string::npos || line.back() != '}') return "";
  return line.substr(pos + key.size(),
                     line.size() - pos - key.size() - 1);
}

/// Serves `requests` pipelined over a JSON-lines connection to a fresh
/// `shards`-shard server and returns each `result` object by id.
std::map<uint64_t, std::string> JsonResults(
    size_t shards, const std::vector<ServiceRequest>& requests) {
  auto svc = MakeService(shards);
  AsyncServer server(svc.get(), AsyncServerOptions{});
  std::string error;
  EXPECT_TRUE(server.Start(&error)) << error;
  WireClient client;
  EXPECT_TRUE(client.Connect(server.port()));
  std::string lines;
  for (const ServiceRequest& r : requests) lines += JsonPredictLine(r);
  EXPECT_TRUE(client.Send(lines));
  std::map<uint64_t, std::string> results;
  for (size_t i = 0; i < requests.size(); ++i) {
    std::string line;
    if (!client.ReadLine(&line, &error)) {
      ADD_FAILURE() << error;
      break;
    }
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
    results[JsonId(line)] = JsonResult(line);
  }
  EXPECT_TRUE(client.Send("{\"op\":\"shutdown\"}\n"));
  std::string ack;
  EXPECT_TRUE(client.ReadLine(&ack, &error)) << error;
  EXPECT_EQ(ack, "{\"op\":\"shutdown\",\"ok\":true,\"served\":" +
                     std::to_string(requests.size()) + "}");
  EXPECT_EQ(server.Wait(), requests.size());
  return results;
}

TEST(AsyncServerTest, BinaryMatchesJsonAcrossShardCountsPipelined) {
  const std::vector<ServiceRequest> requests = BatteryRequests();
  const std::map<uint64_t, std::string> reference = BatteryGolden();
  ASSERT_EQ(reference.size(), requests.size());

  for (const size_t shards : {1, 2, 4}) {
    // JSON framing: every result object is the golden one, byte for byte.
    EXPECT_EQ(JsonResults(shards, requests), reference)
        << shards << " shards";

    // Binary framing on a fresh server: the decoded replies re-serialize
    // to the same bytes.
    auto svc = MakeService(shards);
    AsyncServerOptions options;
    options.num_reactors = 2;
    AsyncServer server(svc.get(), options);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;

    WireClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    // Fully pipelined: every request frame on the wire before any response
    // is read. Responses interleave across shards — match by id.
    std::string frames;
    for (const ServiceRequest& r : requests) {
      frames += wire::EncodePredictRequest(r);
    }
    ASSERT_TRUE(client.Send(frames));

    size_t matched = 0;
    for (size_t i = 0; i < requests.size(); ++i) {
      wire::FrameHeader header;
      std::string payload;
      ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
      wire::PredictReply reply;
      ASSERT_TRUE(
          wire::DecodePredictResponse(header, payload, &reply, &error))
          << error;
      ASSERT_TRUE(reply.response.ok) << reply.response.error;
      ASSERT_FALSE(reply.shed);
      const auto it = reference.find(reply.response.id);
      ASSERT_NE(it, reference.end());
      EXPECT_EQ(SerializeResult(reply.response, reply.per_query), it->second)
          << "request id " << reply.response.id << ", " << shards
          << " shards";
      ++matched;
    }
    EXPECT_EQ(matched, requests.size());
    EXPECT_EQ(ShutdownAndWait(&client, &server), requests.size());
  }
}

TEST(AsyncServerTest, BinaryMatchesJsonSerialAndShuffled) {
  std::vector<ServiceRequest> requests = BatteryRequests();
  const std::map<uint64_t, std::string> reference = BatteryGolden();

  // Deterministically shuffled arrival order, strictly serial exchanges
  // (send one, read one) — the other extreme from the pipelined test.
  std::reverse(requests.begin(), requests.end());
  std::rotate(requests.begin(), requests.begin() + requests.size() / 3,
              requests.end());

  auto svc = MakeService(2);
  AsyncServer server(svc.get(), AsyncServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  WireClient json_client;
  ASSERT_TRUE(json_client.Connect(server.port()));

  for (const ServiceRequest& r : requests) {
    ASSERT_TRUE(client.Send(wire::EncodePredictRequest(r)));
    wire::FrameHeader header;
    std::string payload;
    ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
    wire::PredictReply reply;
    ASSERT_TRUE(wire::DecodePredictResponse(header, payload, &reply, &error))
        << error;
    ASSERT_TRUE(reply.response.ok) << reply.response.error;
    EXPECT_EQ(reply.response.id, r.id);  // serial: in-order by construction
    EXPECT_EQ(SerializeResult(reply.response, reply.per_query),
              reference.at(r.id));

    // The same request as a JSON line on a second connection to the same
    // server (now a cache hit): the same result bytes.
    ASSERT_TRUE(json_client.Send(JsonPredictLine(r)));
    std::string line;
    ASSERT_TRUE(json_client.ReadLine(&line, &error)) << error;
    EXPECT_EQ(JsonId(line), r.id);
    EXPECT_EQ(JsonResult(line), reference.at(r.id));
  }
  EXPECT_EQ(ShutdownAndWait(&client, &server), 2 * requests.size());
}

TEST(AsyncServerTest, LoadStatsAndCacheHitsOverSocket) {
  const std::string path = ::testing::TempDir() + "/async_load.hdx";
  std::string error;
  ASSERT_TRUE(data::WriteDataset(testing::SmallClustered(3000, 8, 31), path,
                                 &error))
      << error;

  auto svc = MakeService(2);  // alpha/beta/gamma pre-registered
  AsyncServer server(svc.get(), AsyncServerOptions{});
  ASSERT_TRUE(server.Start(&error)) << error;
  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // Load a fourth dataset over the socket.
  ASSERT_TRUE(client.Send(wire::EncodeLoadRequest(1, "delta", path)));
  wire::FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  wire::LoadResult load;
  ASSERT_TRUE(wire::DecodeLoadResponse(header, payload, &load, &error))
      << error;
  EXPECT_TRUE(load.ok) << load.error;
  EXPECT_EQ(load.dataset, "delta");
  EXPECT_EQ(load.points, 3000u);
  EXPECT_EQ(load.dims, 8u);
  EXPECT_EQ(load.shard, svc->registry().ShardOf("delta"));

  // Loading the same name again fails over the wire, politely.
  ASSERT_TRUE(client.Send(wire::EncodeLoadRequest(2, "delta", path)));
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  ASSERT_TRUE(wire::DecodeLoadResponse(header, payload, &load, &error));
  EXPECT_FALSE(load.ok);
  EXPECT_NE(load.error.find("already registered"), std::string::npos);

  // Same predict twice: the second serving is a cache hit, and both carry
  // byte-identical result payloads.
  const ServiceRequest request = Req("delta", "resampled", 3, 10);
  ASSERT_TRUE(client.Send(wire::EncodePredictRequest(request)));
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  wire::PredictReply cold;
  ASSERT_TRUE(wire::DecodePredictResponse(header, payload, &cold, &error));
  ASSERT_TRUE(cold.response.ok) << cold.response.error;
  EXPECT_FALSE(cold.response.cache_hit);

  ASSERT_TRUE(client.Send(wire::EncodePredictRequest(request)));
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  wire::PredictReply warm;
  ASSERT_TRUE(wire::DecodePredictResponse(header, payload, &warm, &error));
  ASSERT_TRUE(warm.response.ok);
  EXPECT_TRUE(warm.response.cache_hit);
  EXPECT_EQ(SerializeResult(warm.response, true),
            SerializeResult(cold.response, true));

  // Stats reflect the session.
  ASSERT_TRUE(client.Send(wire::EncodeStatsRequest(20)));
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  ServiceMetrics metrics;
  ASSERT_TRUE(wire::DecodeStatsResponse(header, payload, &metrics, &error))
      << error;
  EXPECT_EQ(metrics.requests, 2u);
  EXPECT_EQ(metrics.result_hits, 1u);
  EXPECT_EQ(metrics.result_misses, 1u);
  EXPECT_EQ(metrics.shed_total, 0u);
  ASSERT_EQ(metrics.shards.size(), 2u);

  EXPECT_EQ(ShutdownAndWait(&client, &server), 2u);
  std::remove(path.c_str());
}

TEST(AsyncServerTest, BackpressureShedsExactlyTheOverflow) {
  auto svc = MakeService(1);
  AsyncServerOptions options;
  options.shard_queue_capacity = 3;
  options.retry_after_ms = 25;
  AsyncServer server(svc.get(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // Park the shard workers, then over-fill the queue: of 5 predicts, ids
  // 1..3 are admitted and 4..5 must be shed — deterministically, because
  // nothing drains the queue while paused.
  server.PauseServingForTest();
  std::string frames;
  for (uint64_t id = 1; id <= 5; ++id) {
    frames += wire::EncodePredictRequest(Req("alpha", "mini", 1, id));
  }
  ASSERT_TRUE(client.Send(frames));

  wire::FrameHeader header;
  std::string payload;
  for (const uint64_t expected_id : {4, 5}) {
    ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
    wire::PredictReply reply;
    ASSERT_TRUE(wire::DecodePredictResponse(header, payload, &reply, &error))
        << error;
    EXPECT_TRUE(reply.shed);
    EXPECT_EQ(reply.response.id, expected_id);
    EXPECT_EQ(reply.retry_after_ms, 25u);
  }

  // The stats op is served by the reactor, not the parked workers: the
  // queue gauges are visible mid-backpressure.
  ASSERT_TRUE(client.Send(wire::EncodeStatsRequest(50)));
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  ServiceMetrics metrics;
  ASSERT_TRUE(wire::DecodeStatsResponse(header, payload, &metrics, &error));
  EXPECT_EQ(metrics.shed_total, 2u);
  const size_t shard = svc->registry().ShardOf("alpha");
  ASSERT_LT(shard, metrics.shards.size());
  EXPECT_EQ(metrics.shards[shard].queue_depth, 3u);
  EXPECT_EQ(metrics.shards[shard].peak_queue_depth, 3u);
  EXPECT_EQ(metrics.shards[shard].shed, 2u);

  // Resume: the three admitted requests complete, in admission order.
  server.ResumeServingForTest();
  for (const uint64_t expected_id : {1, 2, 3}) {
    ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
    wire::PredictReply reply;
    ASSERT_TRUE(wire::DecodePredictResponse(header, payload, &reply, &error))
        << error;
    EXPECT_FALSE(reply.shed);
    ASSERT_TRUE(reply.response.ok) << reply.response.error;
    EXPECT_EQ(reply.response.id, expected_id);
  }

  ASSERT_TRUE(client.Send(wire::EncodeStatsRequest(51)));
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  ASSERT_TRUE(wire::DecodeStatsResponse(header, payload, &metrics, &error));
  EXPECT_EQ(metrics.shards[shard].queue_depth, 0u);
  EXPECT_EQ(metrics.shards[shard].peak_queue_depth, 3u);
  EXPECT_EQ(metrics.shed_total, 2u);  // sheds are not retried server-side

  EXPECT_EQ(ShutdownAndWait(&client, &server), 3u);
}

TEST(AsyncServerTest, LoadWithQueuedPredictsDoesNotDeadlock) {
  const std::string path = ::testing::TempDir() + "/async_load_busy.hdx";
  std::string error;
  ASSERT_TRUE(data::WriteDataset(testing::SmallClustered(3000, 8, 47), path,
                                 &error))
      << error;

  auto svc = MakeService(1);
  AsyncServer server(svc.get(), AsyncServerOptions{});
  ASSERT_TRUE(server.Start(&error)) << error;
  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // Park the workers, queue three predicts, then ask for a load. The
  // load's quiesce must wait out *in-flight* serves only: parked workers
  // can never drain the queue, so a quiesce that waited for empty queues
  // (the pre-fix behavior) deadlocked the reactor here — wedging every
  // connection and leaving the queues paused forever.
  server.PauseServingForTest();
  std::string frames;
  for (uint64_t id = 1; id <= 3; ++id) {
    frames += wire::EncodePredictRequest(Req("alpha", "mini", 1, id));
  }
  frames += wire::EncodeLoadRequest(9, "delta", path);
  ASSERT_TRUE(client.Send(frames));

  // The load acks and its Resume unparks the workers, so the queued
  // predicts complete too (in admission order; the ack may interleave
  // with them, since workers restart as soon as the registry settles).
  bool load_acked = false;
  std::vector<uint64_t> predict_ids;
  for (int i = 0; i < 4; ++i) {
    wire::FrameHeader header;
    std::string payload;
    ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
    if (header.id == 9) {
      wire::LoadResult load;
      ASSERT_TRUE(wire::DecodeLoadResponse(header, payload, &load, &error))
          << error;
      EXPECT_TRUE(load.ok) << load.error;
      EXPECT_EQ(load.dataset, "delta");
      load_acked = true;
    } else {
      wire::PredictReply reply;
      ASSERT_TRUE(
          wire::DecodePredictResponse(header, payload, &reply, &error))
          << error;
      ASSERT_TRUE(reply.response.ok) << reply.response.error;
      EXPECT_FALSE(reply.shed);
      predict_ids.push_back(reply.response.id);
    }
  }
  EXPECT_TRUE(load_acked);
  EXPECT_EQ(predict_ids, (std::vector<uint64_t>{1, 2, 3}));

  // The loaded dataset serves over the same connection.
  ASSERT_TRUE(
      client.Send(wire::EncodePredictRequest(Req("delta", "mini", 2, 20))));
  wire::FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  wire::PredictReply reply;
  ASSERT_TRUE(wire::DecodePredictResponse(header, payload, &reply, &error));
  EXPECT_TRUE(reply.response.ok) << reply.response.error;

  EXPECT_EQ(ShutdownAndWait(&client, &server), 4u);
  std::remove(path.c_str());
}

TEST(AsyncServerTest, ShutdownDrainsQueuedPredictsEvenWhilePaused) {
  auto svc = MakeService(1);
  AsyncServer server(svc.get(), AsyncServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // Queue predicts against parked workers, then request shutdown in the
  // same pipelined breath. Shutdown overrides the pause: it stops
  // admitting predicts, resumes the workers, and acks only once every
  // admitted response is buffered — so the wire carries exactly 1..3 and
  // then the ack, instead of the pre-fix indefinite stall.
  server.PauseServingForTest();
  std::string frames;
  for (uint64_t id = 1; id <= 3; ++id) {
    frames += wire::EncodePredictRequest(Req("alpha", "mini", 1, id));
  }
  frames += wire::EncodeShutdownRequest(999);
  ASSERT_TRUE(client.Send(frames));

  for (const uint64_t expected_id : {1, 2, 3}) {
    wire::FrameHeader header;
    std::string payload;
    ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
    wire::PredictReply reply;
    ASSERT_TRUE(wire::DecodePredictResponse(header, payload, &reply, &error))
        << error;
    ASSERT_TRUE(reply.response.ok) << reply.response.error;
    EXPECT_FALSE(reply.shed);
    EXPECT_EQ(reply.response.id, expected_id);
  }
  wire::FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  uint64_t served = 0;
  ASSERT_TRUE(wire::DecodeShutdownResponse(header, payload, &served, &error))
      << error;
  EXPECT_EQ(header.id, 999u);
  EXPECT_EQ(served, 3u);
  EXPECT_EQ(server.Wait(), 3u);
}

TEST(AsyncServerTest, ClientsVanishingMidResponseDontKillTheServer) {
  const std::vector<ServiceRequest> requests = BatteryRequests();
  auto svc = MakeService(2);
  AsyncServer server(svc.get(), AsyncServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Pipeline the whole battery, then vanish without reading a byte: the
  // server's response writes land on a reset connection. Without
  // MSG_NOSIGNAL the second write after the RST raises SIGPIPE and kills
  // the process (the healthy session below would fail to connect); with
  // it the write returns EPIPE and the connection is simply closed.
  std::string frames;
  for (const ServiceRequest& r : requests) {
    frames += wire::EncodePredictRequest(r);
  }
  for (int round = 0; round < 4; ++round) {
    WireClient vanisher;
    ASSERT_TRUE(vanisher.Connect(server.port()));
    ASSERT_TRUE(vanisher.Send(frames));
    vanisher.Close();
  }

  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(
      client.Send(wire::EncodePredictRequest(Req("alpha", "mini", 1, 500))));
  wire::FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  wire::PredictReply reply;
  ASSERT_TRUE(wire::DecodePredictResponse(header, payload, &reply, &error))
      << error;
  EXPECT_TRUE(reply.response.ok) << reply.response.error;
  ShutdownAndWait(&client, &server);
}

TEST(AsyncServerTest, MalformedStreamsRejectedWithoutTakingTheServerDown) {
  auto svc = MakeService(1);
  AsyncServer server(svc.get(), AsyncServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // A stream that is not the protocol at all: one kError frame with id 0,
  // then the connection is closed.
  {
    WireClient garbage;
    ASSERT_TRUE(garbage.Connect(server.port()));
    ASSERT_TRUE(garbage.Send("GET / HTTP/1.1\r\nHost: nope\r\n\r\n"));
    wire::FrameHeader header;
    std::string payload;
    ASSERT_TRUE(garbage.Read(&header, &payload, &error)) << error;
    std::string message;
    ASSERT_TRUE(wire::DecodeErrorFrame(header, payload, &message, &error))
        << error;
    EXPECT_EQ(header.id, 0u);
    EXPECT_NE(message.find("bad magic"), std::string::npos);
    EXPECT_TRUE(garbage.ReadClosed());
  }

  // A well-framed but undecodable payload: the error echoes the id and the
  // connection keeps serving.
  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send(
      wire::EncodeFrame(wire::WireOp::kPredict, 0, 77, "junk")));
  wire::FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  std::string message;
  ASSERT_TRUE(wire::DecodeErrorFrame(header, payload, &message, &error));
  EXPECT_EQ(header.id, 77u);

  ASSERT_TRUE(client.Send(wire::EncodePredictRequest(Req("alpha", "mini", 1,
                                                         78))));
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  wire::PredictReply reply;
  ASSERT_TRUE(wire::DecodePredictResponse(header, payload, &reply, &error));
  EXPECT_TRUE(reply.response.ok) << reply.response.error;
  EXPECT_EQ(reply.response.id, 78u);

  EXPECT_EQ(ShutdownAndWait(&client, &server), 1u);
}

TEST(AsyncServerTest, WorkerDecodeErrorsKeepIdAndOrderAndSkipServedCount) {
  // Predict payloads are decoded on the shard worker, not the reactor.
  // A payload that routes fine (valid leading dataset string) but fails
  // the full decode must still produce a kError echoing the id, ordered
  // FIFO against the same connection's other predicts on that shard, and
  // the connection must keep serving. Interleave bad and good predicts and
  // check ids come back in admission order.
  auto svc = MakeService(1);
  AsyncServer server(svc.get(), AsyncServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // Routing key present, rest of the payload truncated: the reactor's
  // peek succeeds, the worker's DecodeRequest fails.
  std::string bad_payload;
  wire::AppendString(&bad_payload, "alpha");
  ASSERT_TRUE(client.Send(
      wire::EncodeFrame(wire::WireOp::kPredict, 0, 101, bad_payload)));
  ASSERT_TRUE(client.Send(wire::EncodePredictRequest(Req("alpha", "mini", 1,
                                                         102))));
  ASSERT_TRUE(client.Send(
      wire::EncodeFrame(wire::WireOp::kPredict, 0, 103, bad_payload)));
  ASSERT_TRUE(client.Send(wire::EncodePredictRequest(Req("alpha", "mini", 2,
                                                         104))));

  for (const uint64_t expected_id : {101, 102, 103, 104}) {
    wire::FrameHeader header;
    std::string payload;
    ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
    EXPECT_EQ(header.id, expected_id);
    if (expected_id % 2 == 1) {
      std::string message;
      ASSERT_TRUE(
          wire::DecodeErrorFrame(header, payload, &message, &error))
          << error;
      EXPECT_NE(message.find("predict"), std::string::npos) << message;
    } else {
      wire::PredictReply reply;
      ASSERT_TRUE(
          wire::DecodePredictResponse(header, payload, &reply, &error))
          << error;
      EXPECT_TRUE(reply.response.ok) << reply.response.error;
    }
  }

  // Only the two well-formed predicts count as served.
  EXPECT_EQ(ShutdownAndWait(&client, &server), 2u);
}

TEST(AsyncServerFuzzTest, RandomStreamsNeverCrashTheServer) {
  auto svc = MakeService(2);
  AsyncServer server(svc.get(), AsyncServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // The socket-level half of the malformed-frame corpus: seeded random
  // streams — pure garbage, truncated real frames, real frames with bytes
  // flipped — thrown at live connections. The server must answer or close
  // each one and stay healthy throughout (checked with a real session at
  // the end; ASan/TSan runs make this a memory/race check too).
  common::Rng rng(20260809);
  const std::string real = wire::EncodePredictRequest(Req("alpha", "mini", 1,
                                                          1));
  for (int iter = 0; iter < 30; ++iter) {
    WireClient attacker;
    ASSERT_TRUE(attacker.Connect(server.port()));
    std::string bytes;
    switch (iter % 3) {
      case 0: {  // pure garbage
        const size_t len = 1 + rng.NextBounded(200);
        for (size_t i = 0; i < len; ++i) {
          bytes.push_back(static_cast<char>(rng.NextBounded(256)));
        }
        break;
      }
      case 1:  // truncated real frame
        bytes = real.substr(0, rng.NextBounded(real.size()));
        break;
      default: {  // real frame with header bytes flipped (payload flips
                  // would make a *valid* request with garbage parameters —
                  // that is the decoders' fuzz suite's job, not a framing
                  // concern)
        bytes = real;
        for (size_t f = 0; f < 1 + rng.NextBounded(4); ++f) {
          bytes[rng.NextBounded(wire::kHeaderBytes)] ^=
              static_cast<char>(1u << rng.NextBounded(8));
        }
        break;
      }
    }
    ASSERT_TRUE(attacker.Send(bytes));
    attacker.Close();  // abandon mid-exchange half the time the frame was fine
  }

  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(
      client.Send(wire::EncodePredictRequest(Req("beta", "resampled", 2,
                                                 5))));
  wire::FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  wire::PredictReply reply;
  ASSERT_TRUE(wire::DecodePredictResponse(header, payload, &reply, &error))
      << error;
  EXPECT_TRUE(reply.response.ok) << reply.response.error;
  ShutdownAndWait(&client, &server);
}

TEST(AsyncServerTest, JsonShedLineCarriesShardAndRetryHint) {
  auto svc = MakeService(1);
  AsyncServerOptions options;
  options.shard_queue_capacity = 1;
  options.retry_after_ms = 25;
  AsyncServer server(svc.get(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // Parked workers, capacity 1: the first predict is admitted, the second
  // is shed at once with the JSON shed line.
  server.PauseServingForTest();
  ASSERT_TRUE(client.Send(JsonPredictLine(Req("alpha", "mini", 1, 1)) +
                          JsonPredictLine(Req("alpha", "mini", 2, 2))));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line, &error)) << error;
  EXPECT_EQ(line,
            "{\"op\":\"predict\",\"id\":2,\"ok\":false,\"shed\":true,"
            "\"shard\":0,\"retry_after_ms\":25}");

  server.ResumeServingForTest();
  ASSERT_TRUE(client.ReadLine(&line, &error)) << error;
  EXPECT_EQ(JsonId(line), 1u);
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;

  ASSERT_TRUE(client.Send("{\"op\":\"shutdown\"}\n"));
  ASSERT_TRUE(client.ReadLine(&line, &error)) << error;
  EXPECT_EQ(line, "{\"op\":\"shutdown\",\"ok\":true,\"served\":1}");
  EXPECT_EQ(server.Wait(), 1u);
}

TEST(AsyncServerTest, PageTooSmallForOneEntryIsAnErrorInBothFramings) {
  auto svc = MakeService(1);
  std::string error;
  ASSERT_TRUE(svc->registry().Add("flat", testing::SmallClustered(500, 2, 5),
                                  &error))
      << error;
  AsyncServer server(svc.get(), AsyncServerOptions{});
  ASSERT_TRUE(server.Start(&error)) << error;

  // 8 bytes hold one 2-d point (12 bytes) not even once, let alone two
  // directory entries (2 * 20 bytes): refused, not silently clamped.
  ServiceRequest tiny = Req("flat", "mini", 1, 7);
  tiny.page_bytes = 8;

  WireClient binary;
  ASSERT_TRUE(binary.Connect(server.port()));
  ASSERT_TRUE(binary.Send(wire::EncodePredictRequest(tiny)));
  wire::FrameHeader header;
  std::string payload;
  ASSERT_TRUE(binary.Read(&header, &payload, &error)) << error;
  wire::PredictReply reply;
  ASSERT_TRUE(wire::DecodePredictResponse(header, payload, &reply, &error))
      << error;
  EXPECT_FALSE(reply.response.ok);
  EXPECT_NE(reply.response.error.find("page_bytes 8"), std::string::npos)
      << reply.response.error;

  WireClient json;
  ASSERT_TRUE(json.Connect(server.port()));
  ASSERT_TRUE(json.Send(JsonPredictLine(tiny)));
  std::string line;
  ASSERT_TRUE(json.ReadLine(&line, &error)) << error;
  EXPECT_NE(line.find("\"ok\":false"), std::string::npos) << line;
  EXPECT_EQ(JsonResult(line), SerializeResult(reply.response, false));

  // The smallest page that fits is served.
  tiny.page_bytes = 40;
  ASSERT_TRUE(json.Send(JsonPredictLine(tiny)));
  ASSERT_TRUE(json.ReadLine(&line, &error)) << error;
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;

  EXPECT_EQ(ShutdownAndWait(&binary, &server), 3u);
}

TEST(ServerLoopTest, JsonSessionServesAndShutsDownCleanly) {
  ServiceOptions options;
  options.num_shards = 2;
  options.total_threads = 2;
  PredictionService svc(options);
  std::string error;
  ASSERT_TRUE(svc.registry().Add(
      "d", testing::SmallClustered(1200, 6, 21), &error))
      << error;
  AsyncServer server(&svc, AsyncServerOptions{});
  ASSERT_TRUE(server.Start(&error)) << error;
  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // page_bytes=1024 keeps the tree height >= 3 at this size; method mini
  // works regardless. No "id": the connection numbers predicts from 1.
  const std::string first =
      "{\"op\":\"predict\",\"dataset\":\"d\",\"method\":\"mini\","
      "\"memory\":200,\"num_queries\":10,\"k\":3,\"page_bytes\":1024}\n";
  const std::string second =
      "{\"op\":\"predict\",\"dataset\":\"d\",\"method\":\"mini\","
      "\"memory\":300,\"num_queries\":10,\"k\":3,\"page_bytes\":1024}\n";
  std::string line;
  // Blank lines are skipped, not answered.
  ASSERT_TRUE(client.Send(first + "\n  \r\n" + second));
  for (const uint64_t expected_id : {1, 2}) {
    ASSERT_TRUE(client.ReadLine(&line, &error)) << error;
    EXPECT_EQ(JsonId(line), expected_id) << line;  // one shard: FIFO
    EXPECT_NE(line.find("\"cache\":\"miss\""), std::string::npos) << line;
  }

  // A repeat of the first request is a cache hit, numbered 3.
  ASSERT_TRUE(client.Send(first));
  ASSERT_TRUE(client.ReadLine(&line, &error)) << error;
  EXPECT_EQ(JsonId(line), 3u);
  EXPECT_NE(line.find("\"cache\":\"hit\""), std::string::npos) << line;

  // A bad line is answered with an error line; the session continues.
  ASSERT_TRUE(client.Send("this is not json\n"));
  ASSERT_TRUE(client.ReadLine(&line, &error)) << error;
  EXPECT_EQ(line.rfind("{\"op\":\"error\",\"ok\":false,\"error\":", 0), 0u)
      << line;

  ASSERT_TRUE(client.Send("{\"op\":\"stats\"}\n"));
  ASSERT_TRUE(client.ReadLine(&line, &error)) << error;
  EXPECT_EQ(line.rfind("{\"op\":\"stats\",\"ok\":true,\"requests\":3,"
                       "\"batches\":0,\"errors\":0,\"mean_batch_size\":0,"
                       "\"result_cache\":{\"hits\":1,",
                       0),
            0u)
      << line;

  ASSERT_TRUE(client.Send("{\"op\":\"shutdown\"}\n"));
  ASSERT_TRUE(client.ReadLine(&line, &error)) << error;
  EXPECT_EQ(line, "{\"op\":\"shutdown\",\"ok\":true,\"served\":3}");
  EXPECT_EQ(server.Wait(), 3u);

  const ServiceMetrics metrics = svc.Metrics();
  EXPECT_EQ(metrics.requests, 3u);
  EXPECT_EQ(metrics.batches, 0u);
  EXPECT_EQ(metrics.result_hits, 1u);
}

TEST(ServerLoopTest, LoadOpLoadsFromDiskOnce) {
  ServiceOptions options;
  PredictionService svc(options);
  const std::string path =
      ::testing::TempDir() + "/service_protocol_load.hdx";
  std::string error;
  ASSERT_TRUE(data::WriteDataset(testing::SmallClustered(400, 5, 33), path,
                                 &error))
      << error;
  AsyncServer server(&svc, AsyncServerOptions{});
  ASSERT_TRUE(server.Start(&error)) << error;
  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  const std::string load = "{\"op\":\"load\",\"dataset\":\"disk\",\"path\":" +
                           JsonQuote(path) + "}\n";
  std::string line;
  ASSERT_TRUE(client.Send(load));
  ASSERT_TRUE(client.ReadLine(&line, &error)) << error;
  EXPECT_EQ(line, "{\"op\":\"load\",\"ok\":true,\"dataset\":\"disk\","
                  "\"points\":400,\"dims\":5,\"shard\":0}");
  // The second load of the same name is refused: datasets load once.
  ASSERT_TRUE(client.Send(load));
  ASSERT_TRUE(client.ReadLine(&line, &error)) << error;
  EXPECT_EQ(line.rfind("{\"op\":\"load\",\"ok\":false,\"dataset\":\"disk\","
                       "\"error\":",
                       0),
            0u)
      << line;
  EXPECT_NE(line.find("already registered"), std::string::npos) << line;

  ASSERT_TRUE(client.Send("{\"op\":\"shutdown\"}\n"));
  ASSERT_TRUE(client.ReadLine(&line, &error)) << error;
  EXPECT_EQ(line, "{\"op\":\"shutdown\",\"ok\":true,\"served\":0}");
  EXPECT_EQ(server.Wait(), 0u);
  EXPECT_EQ(svc.registry().size(), 1u);
  std::remove(path.c_str());
}

TEST(AsyncServerFuzzTest, JsonLeadingStreamsNeverCrashTheServer) {
  auto svc = MakeService(2);
  AsyncServerOptions options;
  options.max_frame_payload = 1024;
  AsyncServer server(svc.get(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // '{' fixes the JSON framing; what follows is seeded garbage split into
  // lines. Every complete line is answered with an error line and the
  // session lives on.
  common::Rng rng(20261019);
  for (int iter = 0; iter < 20; ++iter) {
    WireClient attacker;
    ASSERT_TRUE(attacker.Connect(server.port()));
    std::string bytes = "{";
    const size_t len = 1 + rng.NextBounded(300);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(rng.NextBounded(16) == 0
                          ? '\n'
                          : static_cast<char>(rng.NextBounded(256)));
    }
    ASSERT_TRUE(attacker.Send(bytes));
    if (iter % 2 == 0) {
      attacker.Close();  // abandon mid-exchange
      continue;
    }
    // Terminate the last garbage line and ask for stats: every garbage
    // line's answer precedes the stats line, and the stats line arrives.
    ASSERT_TRUE(attacker.Send("\n{\"op\":\"stats\"}\n"));
    std::string line;
    do {
      ASSERT_TRUE(attacker.ReadLine(&line, &error)) << error;
    } while (line.rfind("{\"op\":\"stats\"", 0) != 0);
  }

  // An over-long line: one error line, then the server closes.
  {
    WireClient attacker;
    ASSERT_TRUE(attacker.Connect(server.port()));
    ASSERT_TRUE(attacker.Send("{" + std::string(2000, 'x')));
    std::string line;
    ASSERT_TRUE(attacker.ReadLine(&line, &error)) << error;
    EXPECT_EQ(line,
              "{\"op\":\"error\",\"ok\":false,\"error\":\"line exceeds 1024 "
              "bytes\"}");
    EXPECT_FALSE(attacker.ReadLine(&line, &error));
    EXPECT_EQ(error, "closed");
  }

  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send(JsonPredictLine(Req("beta", "resampled", 2, 5))));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line, &error)) << error;
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  EXPECT_EQ(JsonId(line), 5u);
  ASSERT_TRUE(client.Send("{\"op\":\"shutdown\"}\n"));
  ASSERT_TRUE(client.ReadLine(&line, &error)) << error;
  EXPECT_EQ(server.Wait(), 1u);
}

}  // namespace
}  // namespace hdidx::service
