#include "service/protocol.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "common/check.h"
#include "service/wire.h"

namespace hdidx::service {

namespace {

using wire::WireOp;

/// JSON "op" values, indexed by WireOp.
constexpr const char* kOpNames[] = {"predict", "load", "stats", "shutdown",
                                    "error"};

const char* OpName(WireOp op) { return kOpNames[static_cast<size_t>(op)]; }

// JSON names that more than one message or driver uses.
constexpr const char* kOp = "op";
constexpr const char* kId = "id";
constexpr const char* kOk = "ok";
constexpr const char* kDataset = "dataset";
constexpr const char* kShard = "shard";
constexpr const char* kError = "error";
constexpr const char* kShed = "shed";
constexpr const char* kRequests = "requests";
constexpr const char* kNumQueries = "num_queries";
constexpr const char* kPerQuery = "per_query";
constexpr const char* kWorkloadCache = "workload_cache";

/// The name of a field that only the wire carries.
constexpr const char* kWireOnly = nullptr;

/// A per-query count that could not fit a maximum-size frame is garbage;
/// the readers refuse to allocate for it.
constexpr uint64_t kMaxPerQueryCount =
    wire::kDefaultMaxPayload / sizeof(double);

/// How a flag reads in JSON (on the wire every flag is one header bit).
enum class Spelling : uint8_t {
  kBool,     // "name":true|false
  kHitMiss,  // "name":"hit"|"miss"
  kWhenSet,  // "name":true, absent when false
};

template <class V>
constexpr bool kOnWire = V::kFraming == Framing::kWire;

// =========================================================================
// The messages: one call per field, in wire order. `v` is one of the four
// drivers below, which share one vocabulary:
//   Op               the wire op and JSON "op"; whether it is a response;
//   Id               the frame header's id on the wire, "id" in JSON;
//   U32/U64/F64/Str  a field with its wire width (JSON: number or string);
//   Name             a client-supplied name: refused when longer than
//                    kMaxNameBytes, or empty if `required`;
//   Flag             a boolean: a header flag bit on the wire;
//   Count/Array      the per-query vector: its size in place, its values
//                    at the end when present;
//   Records          a u64 count, then the records; JSON: array of objects;
//   Group            a JSON nesting level, transparent on the wire.
// Framing differences are spelled out where they occur.
// =========================================================================

template <class V, class M>
void Fields(V& v, PredictRequest, M& r) {
  v.Op(WireOp::kPredict, /*response=*/false);
  v.Id(r.id);
  v.Name(kDataset, r.dataset, /*required=*/true);
  v.Name("method", r.method, /*required=*/false);
  v.U64("memory", r.memory);
  v.U64(kNumQueries, r.num_queries);
  v.U64("k", r.k);
  v.U64("seed", r.seed);
  v.U64("page_bytes", r.page_bytes);
  v.Flag(wire::kFlagPerQuery, kPerQuery, r.per_query);
}

template <class V, class M>
void Fields(V& v, LoadRequest, M& m) {
  v.Op(WireOp::kLoad, /*response=*/false);
  v.Name(kDataset, m.load_dataset, /*required=*/true);
  v.Name("path", m.load_path, /*required=*/true);
}

template <class V, class M>
void Fields(V& v, StatsRequest, M&) {
  v.Op(WireOp::kStats, /*response=*/false);
}

template <class V, class M>
void Fields(V& v, ShutdownRequest, M&) {
  v.Op(WireOp::kShutdown, /*response=*/false);
}

/// The deterministic payload of a predict response: JSON's "result".
template <class V, class M>
void ResultFields(V& v, M& m) {
  auto& r = m.response;
  if (!r.ok) return v.Str(kError, r.error);
  auto& p = r.result;
  v.F64("avg_leaf_accesses", p.avg_leaf_accesses);
  v.Count(kNumQueries, p.per_query_accesses);
  v.U64("num_predicted_leaves", p.num_predicted_leaves);
  v.U64("h_upper", p.h_upper);
  v.F64("sigma_upper", p.sigma_upper);
  v.F64("sigma_lower", p.sigma_lower);
  v.U64("io_seeks", p.io.page_seeks);
  v.U64("io_transfers", p.io.page_transfers);
  v.Array(kPerQuery, m.per_query, p.per_query_accesses);
}

template <class V, class M>
void Fields(V& v, PredictResponse, M& m) {
  auto& r = m.response;
  v.Op(WireOp::kPredict, /*response=*/true);
  v.Id(r.id);
  v.Flag(wire::kFlagOk, kOk, r.ok);
  const bool shed = v.Flag(wire::kFlagShed, kShed, m.shed, Spelling::kWhenSet);
  v.U32(kShard, r.shard);
  if (shed) return v.U32("retry_after_ms", m.retry_after_ms);
  v.Flag(wire::kFlagCacheHit, "cache", r.cache_hit, Spelling::kHitMiss);
  v.Flag(wire::kFlagWorkloadCacheHit, kWorkloadCache, r.workload_cache_hit,
         Spelling::kHitMiss);
  // JSON states per_query by the presence of the array alone, so an error
  // reply drops it.
  if constexpr (kOnWire<V>) v.Flag(wire::kFlagPerQuery, kWireOnly, m.per_query);
  // The wire puts latency_ms before served_*, JSON after.
  if constexpr (kOnWire<V>) v.F64(kWireOnly, r.latency_ms);
  // The wire drops served_* on errors; JSON always carries them.
  if (!kOnWire<V> || r.ok) {
    v.U64("served_seeks", r.served_io.page_seeks);
    v.U64("served_transfers", r.served_io.page_transfers);
  }
  if constexpr (!kOnWire<V>) v.F64("latency_ms", r.latency_ms);
  v.Group("result", [&] { ResultFields(v, m); });
}

template <class V, class M>
void Fields(V& v, ErrorResponse, M& message) {
  v.Op(WireOp::kError, /*response=*/true);
  v.Flag(wire::kFlagOk, kOk, false);
  v.Str(kError, message);
}

template <class V, class M>
void Fields(V& v, LoadResponse, M& m) {
  v.Op(WireOp::kLoad, /*response=*/true);
  v.Flag(wire::kFlagOk, kOk, m.ok);
  v.Str(kDataset, m.dataset);
  if (!m.ok) return v.Str(kError, m.error);
  v.U64("points", m.points);
  v.U32("dims", m.dims);
  v.U32(kShard, m.shard);
}

template <class V, class M>
void Fields(V& v, StatsResponse, M& m) {
  v.Op(WireOp::kStats, /*response=*/true);
  v.Flag(wire::kFlagOk, kOk, true);
  v.U64(kRequests, m.requests);
  v.U64("batches", m.batches);
  v.U64("errors", m.errors);
  v.F64("mean_batch_size", m.mean_batch_size);
  const auto cache = [&v](const char* group, auto& hits, auto& misses,
                          auto& evictions) {
    v.Group(group, [&] {
      v.U64("hits", hits);
      v.U64("misses", misses);
      v.U64("evictions", evictions);
    });
  };
  cache("result_cache", m.result_hits, m.result_misses, m.result_evictions);
  cache(kWorkloadCache, m.workload_hits, m.workload_misses,
        m.workload_evictions);
  v.U64("shed_total", m.shed_total);
  v.Records("shards", m.shards, [&v](auto& shard) {
    v.U64(kRequests, shard.requests);
    v.F64("p50_ms", shard.p50_ms);
    v.F64("p90_ms", shard.p90_ms);
    v.F64("p99_ms", shard.p99_ms);
    v.U64("queue_depth", shard.queue_depth);
    v.U64("peak_queue_depth", shard.peak_queue_depth);
    v.U64(kShed, shard.shed);
  });
}

template <class V, class M>
void Fields(V& v, ShutdownResponse, M& served) {
  v.Op(WireOp::kShutdown, /*response=*/true);
  v.Flag(wire::kFlagOk, kOk, true);
  v.U64("served", served);
}

// =========================================================================
// The four drivers.
// =========================================================================

// --- wire append ----------------------------------------------------------

class WireWriter {
 public:
  static constexpr Framing kFraming = Framing::kWire;

  explicit WireWriter(uint64_t id) : id_(id), out_(wire::kHeaderBytes, '\0') {}

  void Op(WireOp op, bool response) {
    op_ = op;
    if (response) flags_ |= wire::kFlagResponse;
  }
  void Id(uint64_t id) { id_ = id; }
  void U32(const char*, uint64_t v) {
    wire::AppendU32(&out_, static_cast<uint32_t>(v));
  }
  void U64(const char*, uint64_t v) { wire::AppendU64(&out_, v); }
  void F64(const char*, double v) { wire::AppendF64(&out_, v); }
  void Str(const char*, std::string_view v) { wire::AppendString(&out_, v); }
  void Name(const char*, std::string_view v, bool) { Str(nullptr, v); }
  bool Flag(uint16_t bit, const char*, bool v, Spelling = Spelling::kBool) {
    if (v) flags_ |= bit;
    return v;
  }
  void Count(const char*, const std::vector<double>& v) {
    U64(nullptr, v.size());
  }
  void Array(const char*, bool present, const std::vector<double>& v) {
    if (present) wire::AppendF64Array(&out_, v.data(), v.size());
  }
  template <class E, class F>
  void Records(const char*, const std::vector<E>& records, F&& record) {
    U64(nullptr, records.size());
    for (const E& e : records) record(e);
  }
  template <class F>
  void Group(const char*, F&& body) {
    body();
  }

  std::string Finish() {
    wire::SealFrame(&out_, op_, flags_, id_);
    return std::move(out_);
  }

 private:
  WireOp op_ = WireOp::kError;
  uint16_t flags_ = 0;
  uint64_t id_;
  std::string out_;
};

// --- what both readers share ------------------------------------------------

struct Reader {
  explicit Reader(std::string* error_out) : error(error_out) {}

  /// Keeps the first failure. Returns false, for `return Fail(...)`.
  bool Fail(const std::string& message) {
    if (ok && error != nullptr) *error = message;
    ok = false;
    return false;
  }
  bool FailField(const char* name, const std::string& what) {
    return Fail(std::string("field '") + name + "' " + what);
  }
  /// The name cap and the required-field check, for both framings.
  void CheckName(const char* name, const std::string& value, bool required) {
    if (value.size() > kMaxNameBytes) {
      FailField(name, "is longer than " + std::to_string(kMaxNameBytes) +
                          " bytes");
    } else if (required && value.empty()) {
      Fail(std::string(OpName(op)) + " needs '" + name + "'");
    }
  }

  std::string* error;
  bool ok = true;
  WireOp op = WireOp::kError;
  /// Whether the message carried an id (always, on the wire).
  bool saw_id = false;
};

// --- wire read ------------------------------------------------------------

class WireReaderDriver : public Reader {
 public:
  static constexpr Framing kFraming = Framing::kWire;

  WireReaderDriver(const wire::FrameHeader& header, std::string_view payload,
                   std::string* error_out)
      : Reader(error_out), header_(header), in_(payload) {}

  void Op(WireOp expected, bool response) {
    op = expected;
    if (header_.op != op ||
        ((header_.flags & wire::kFlagResponse) != 0) != response) {
      Fail(std::string("not a ") + OpName(op) +
           (response ? " response" : " request") + " frame");
    }
  }
  void Id(uint64_t& id) {
    id = header_.id;
    saw_id = true;
  }
  template <class T>
  void U32(const char*, T& v) {
    uint32_t x = 0;
    in_.ReadU32(&x);
    v = static_cast<T>(x);
  }
  template <class T>
  void U64(const char*, T& v) {
    uint64_t x = 0;
    in_.ReadU64(&x);
    v = static_cast<T>(x);
  }
  void F64(const char*, double& v) { in_.ReadF64(&v); }
  void Str(const char*, std::string& v) { in_.ReadString(&v); }
  void Name(const char* name, std::string& v, bool required) {
    if (in_.ReadString(&v)) CheckName(name, v, required);
  }
  /// `v` may be a constant: a flag every such message sets alike.
  template <class B>
  bool Flag(uint16_t bit, const char*, B&& v, Spelling = Spelling::kBool) {
    v = (header_.flags & bit) != 0;
    return v;
  }
  void Count(const char*, std::vector<double>& v) {
    uint64_t count = 0;
    if (!in_.ReadU64(&count)) return;
    if (count > kMaxPerQueryCount) Fail("implausible per-query count");
    v.assign(ok ? static_cast<size_t>(count) : 0, 0.0);
  }
  void Array(const char*, bool present, std::vector<double>& v) {
    if (present) in_.ReadF64Array(v.size(), &v);
  }
  template <class E, class F>
  void Records(const char*, std::vector<E>& records, F&& record) {
    uint64_t count = 0;
    in_.ReadU64(&count);
    // Every record consumes bytes, so a lying count ends with the payload.
    for (uint64_t i = 0; i < count && in_.ok(); ++i) {
      record(records.emplace_back());
    }
  }
  template <class F>
  void Group(const char*, F&& body) {
    body();
  }

  bool Finish() {
    if (!in_.AtEnd()) {
      Fail(std::string(in_.ok() ? "trailing bytes in " : "malformed ") +
           OpName(op) + " payload");
    }
    return ok;
  }

 private:
  const wire::FrameHeader& header_;
  wire::WireReader in_;
};

// --- JSON render ----------------------------------------------------------

class JsonWriter {
 public:
  static constexpr Framing kFraming = Framing::kJson;

  void Op(WireOp op, bool) { Str(kOp, OpName(op)); }
  void Id(uint64_t id) { U64(kId, id); }
  void U32(const char* name, uint64_t v) { U64(name, v); }
  void U64(const char* name, uint64_t v) { Key(name) += std::to_string(v); }
  void F64(const char* name, double v) {
    Key(name);
    Double(v);
  }
  void Str(const char* name, std::string_view v) { Key(name) += JsonQuote(v); }
  void Name(const char* name, std::string_view v, bool) { Str(name, v); }
  bool Flag(uint16_t, const char* name, bool v,
            Spelling spelling = Spelling::kBool) {
    if (spelling == Spelling::kHitMiss) {
      Key(name) += v ? "\"hit\"" : "\"miss\"";
    } else if (v || spelling == Spelling::kBool) {
      Key(name) += v ? "true" : "false";
    }
    return v;
  }
  void Count(const char* name, const std::vector<double>& v) {
    U64(name, v.size());
  }
  void Array(const char* name, bool present, const std::vector<double>& v) {
    if (!present) return;
    Key(name) += '[';
    for (size_t i = 0; i < v.size(); ++i) {
      if (i != 0) out_ += ',';
      Double(v[i]);
    }
    out_ += ']';
  }
  template <class E, class F>
  void Records(const char* name, const std::vector<E>& records, F&& record) {
    Key(name) += '[';
    for (size_t i = 0; i < records.size(); ++i) {
      if (i != 0) out_ += ',';
      Object([&] { record(records[i]); });
    }
    out_ += ']';
  }
  template <class F>
  void Group(const char* name, F&& body) {
    Key(name);
    Object(body);
  }

  template <class F>
  void Object(F&& body) {
    out_ += '{';
    first_ = true;
    body();
    out_ += '}';
    first_ = false;
  }

  /// The rendered object. JsonQuote escapes every control character, so a
  /// newline here means a field emitted raw text it should have quoted.
  std::string Finish() {
    HDIDX_DCHECK(out_.find('\n') == std::string::npos)
        << "serialized protocol message spans lines: " << out_;
    return std::move(out_);
  }

 private:
  std::string& Key(const char* name) {
    if (!first_) out_ += ',';
    first_ = false;
    return out_.append("\"").append(name).append("\":");
  }
  /// %.17g round-trips every IEEE double.
  void Double(double v) {
    char buffer[32];
    out_.append(buffer, static_cast<size_t>(std::snprintf(
                            buffer, sizeof(buffer), "%.17g", v)));
  }

  std::string out_;
  bool first_ = true;
};

// --- JSON read ------------------------------------------------------------

/// The members of one JSON object (or the items of an array, keys empty):
/// keys decoded, values kept as raw text and parsed only when read.
using Members = std::vector<std::pair<std::string, std::string_view>>;

/// Decodes a quoted JSON string (`raw` includes the quotes).
bool DecodeString(std::string_view raw, std::string* out, Reader* reader) {
  out->clear();
  for (size_t i = 1; i + 1 < raw.size(); ++i) {
    if (raw[i] != '\\') {
      out->push_back(raw[i]);
      continue;
    }
    const char esc = raw[++i];
    constexpr std::string_view kEscaped = "\"\\/bfnrt";
    constexpr std::string_view kMeant = "\"\\/\b\f\n\r\t";
    if (kEscaped.find(esc) != std::string_view::npos) {
      out->push_back(kMeant[kEscaped.find(esc)]);
      continue;
    }
    if (esc != 'u') {
      return reader->Fail(std::string("unknown escape: \\") + esc);
    }
    unsigned code = 0;
    const char* hex = raw.data() + i + 1;
    if (i + 5 >= raw.size() ||
        std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4) {
      return reader->Fail("bad \\u escape");
    }
    if (code > 0x7f) {
      return reader->Fail("non-ASCII \\u escapes are not supported");
    }
    out->push_back(static_cast<char>(code));
    i += 4;
  }
  return true;
}

/// Splits a JSON object, or an `array`, into its members. `flat` refuses
/// nested containers (requests are flat).
bool Split(std::string_view s, bool array, bool flat, Members* out,
           Reader* reader) {
  out->clear();
  size_t pos = 0;
  const auto skip_ws = [&] {
    while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos]))) {
      ++pos;
    }
  };
  const auto consume = [&](char c) {
    skip_ws();
    return pos < s.size() && s[pos] == c && ++pos != 0;
  };
  // Steps over a string whose opening quote is at `pos`.
  const auto skip_string = [&] {
    while (++pos < s.size()) {
      if (s[pos] == '\\') ++pos;
      else if (s[pos] == '"') return ++pos != 0;
    }
    return false;
  };
  // Steps over one value, leaving its raw text in `*raw`.
  const auto value = [&](std::string_view* raw) {
    skip_ws();
    const size_t start = pos;
    if (pos >= s.size()) return reader->Fail("expected a value");
    if (s[pos] == '"') {
      if (!skip_string()) return reader->Fail("unterminated string");
    } else if (s[pos] == '{' || s[pos] == '[') {
      if (flat) {
        return reader->Fail(
            "nested objects/arrays are not supported in requests");
      }
      size_t depth = 0;
      do {
        if (s[pos] == '"') {
          if (!skip_string()) break;
          continue;
        }
        if (s[pos] == '{' || s[pos] == '[') ++depth;
        if (s[pos] == '}' || s[pos] == ']') --depth;
        ++pos;
      } while (depth > 0 && pos < s.size());
      if (depth != 0) return reader->Fail("unterminated object or array");
    } else {
      pos = std::min(s.find_first_of(",}] \t\r\n", pos), s.size());
      if (pos == start) {
        return reader->Fail("expected a value at '" +
                            std::string(s.substr(start)) + "'");
      }
    }
    *raw = s.substr(start, pos - start);
    return true;
  };

  const char close = array ? ']' : '}';
  if (!consume(array ? '[' : '{')) {
    return reader->Fail(std::string("expected '") + (array ? '[' : '{') + "'");
  }
  if (!consume(close)) {
    do {
      std::string key;
      std::string_view raw;
      if (!array) {
        skip_ws();
        if (pos >= s.size() || s[pos] != '"') {
          return reader->Fail("expected '\"'");
        }
        if (!value(&raw) || !DecodeString(raw, &key, reader)) return false;
        if (!consume(':')) return reader->Fail("expected ':' after key");
      }
      if (!value(&raw)) return false;
      out->emplace_back(std::move(key), raw);
    } while (consume(','));
    if (!consume(close)) {
      return reader->Fail(std::string("expected ',' or '") + close + "'");
    }
  }
  skip_ws();
  return pos == s.size() || reader->Fail("trailing content after object");
}

class JsonReader : public Reader {
 public:
  static constexpr Framing kFraming = Framing::kJson;

  /// Reads the top-level object of `line`; requests are `flat`.
  JsonReader(std::string_view line, bool flat, std::string* error_out)
      : Reader(error_out) {
    Split(line, /*array=*/false, flat, &members_, this);
  }

  void Op(WireOp expected, bool) {
    op = expected;
    std::string name;
    if (ReadString(kOp, &name) && name != OpName(op)) {
      Fail(std::string("expected op '") + OpName(op) + "', got '" + name +
           "'");
    }
  }
  void Id(uint64_t& id) { saw_id = ReadUint(kId, UINT64_MAX, &id); }
  template <class T>
  void U32(const char* name, T& v) {
    ReadUint(name, UINT32_MAX, &v);
  }
  template <class T>
  void U64(const char* name, T& v) {
    ReadUint(name, UINT64_MAX, &v);
  }
  void F64(const char* name, double& v) {
    const std::string_view* raw = Find(name);
    if (raw != nullptr && !ParseDouble(*raw, &v)) {
      FailField(name, "must be a number");
    }
  }
  void Str(const char* name, std::string& v) { ReadString(name, &v); }
  void Name(const char* name, std::string& v, bool required) {
    ReadString(name, &v);
    if (ok) CheckName(name, v, required);
  }
  /// `v` may be a constant: a flag every such message sets alike.
  template <class B>
  bool Flag(uint16_t, const char* name, B&& v,
            Spelling spelling = Spelling::kBool) {
    const std::string_view* raw = Find(name);
    if (raw == nullptr) return v;
    const bool hit_miss = spelling == Spelling::kHitMiss;
    const std::string_view yes = hit_miss ? "\"hit\"" : "true";
    const std::string_view no = hit_miss ? "\"miss\"" : "false";
    if (*raw != yes && *raw != no) {
      FailField(name, "must be " + std::string(yes) + " or " + std::string(no));
    }
    v = *raw == yes;
    return v;
  }
  void Count(const char* name, std::vector<double>& v) {
    uint64_t count = 0;
    if (ReadUint(name, kMaxPerQueryCount, &count)) {
      v.assign(static_cast<size_t>(count), 0.0);
    }
  }
  void Array(const char* name, bool& present, std::vector<double>& v) {
    Members items;
    present = Items(name, &items);
    if (!present) return;
    v.resize(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      if (!ParseDouble(items[i].second, &v[i])) {
        FailField(name, "must hold numbers");
      }
    }
  }
  template <class E, class F>
  void Records(const char* name, std::vector<E>& records, F&& record) {
    Members items;
    Items(name, &items);
    for (const auto& item : items) {
      E& e = records.emplace_back();
      Nested(item.second, [&] { record(e); });
    }
  }
  template <class F>
  void Group(const char* name, F&& body) {
    const std::string_view* raw = Find(name);
    if (raw != nullptr) Nested(*raw, body);
  }

  bool Finish() const { return ok; }

 private:
  /// The last member named `key` (a repeated key overrides), or null.
  const std::string_view* Find(std::string_view key) const {
    for (auto it = members_.rbegin(); it != members_.rend(); ++it) {
      if (it->first == key) return &it->second;
    }
    return nullptr;
  }

  /// The items of the array `name`; false when it is absent.
  bool Items(const char* name, Members* items) {
    const std::string_view* raw = Find(name);
    return raw != nullptr && Split(*raw, /*array=*/true, false, items, this);
  }

  /// Runs `body` over the members of the object `raw`.
  template <class F>
  void Nested(std::string_view raw, F&& body) {
    Members outer = std::move(members_);
    if (Split(raw, /*array=*/false, false, &members_, this)) body();
    members_ = std::move(outer);
  }

  static bool ParseDouble(std::string_view raw, double* v) {
    const char* end = raw.data() + raw.size();
    const auto [ptr, ec] = std::from_chars(raw.data(), end, *v);
    return ec == std::errc() && ptr == end;
  }

  /// Integers are read exactly from their digits, over the full u64 range.
  template <class T>
  bool ReadUint(const char* name, uint64_t max, T* out) {
    const std::string_view* raw = Find(name);
    if (raw == nullptr) return false;
    const char* end = raw->data() + raw->size();
    uint64_t v = 0;
    const auto [ptr, ec] = std::from_chars(raw->data(), end, v);
    if (ec != std::errc() || ptr != end || v > max) {
      return FailField(name, "must be an integer in [0, " +
                                 std::to_string(max) + "]");
    }
    *out = static_cast<T>(v);
    return true;
  }

  bool ReadString(const char* name, std::string* out) {
    const std::string_view* raw = Find(name);
    if (raw == nullptr) return false;
    if (raw->front() != '"') return FailField(name, "must be a string");
    return DecodeString(*raw, out, this);
  }

  Members members_;
};

// --- entry points ---------------------------------------------------------

/// A predict response over a borrowed ServiceResponse, so the shorthands
/// that take one render it without a copy.
struct PredictReplyView {
  const ServiceResponse& response;
  bool per_query = false;
  bool shed = false;
  uint32_t retry_after_ms = 0;
};

template <class Msg, class D>
std::string EncodeAs(Framing framing, const D& data, uint64_t id) {
  if (framing == Framing::kJson) {
    JsonWriter w;
    w.Object([&] { Fields(w, Msg{}, data); });
    return w.Finish() + "\n";
  }
  WireWriter w(id);
  Fields(w, Msg{}, data);
  return w.Finish();
}

template <class Msg, class R>
bool ReadAs(R& reader, typename Msg::Data* out) {
  Fields(reader, Msg{}, *out);
  return reader.Finish();
}

/// Reads any request through `reader`, by op.
template <class R>
bool ReadRequest(R& reader, WireOp op, RequestLine* out) {
  *out = RequestLine{};
  switch (op) {
    case WireOp::kPredict:
      out->op = RequestLine::Op::kPredict;
      out->has_id = ReadAs<PredictRequest>(reader, &out->predict) &&
                    reader.saw_id;
      return reader.ok;
    case WireOp::kLoad:
      out->op = RequestLine::Op::kLoad;
      return ReadAs<LoadRequest>(reader, out);
    case WireOp::kStats:
      out->op = RequestLine::Op::kStats;
      return ReadAs<StatsRequest>(reader, out);
    case WireOp::kShutdown:
      out->op = RequestLine::Op::kShutdown;
      return ReadAs<ShutdownRequest>(reader, out);
    case WireOp::kError:
      break;
  }
  return reader.Fail("op error is response-only");
}

}  // namespace

template <class Msg>
std::string Encode(Framing framing, const typename Msg::Data& data,
                   uint64_t id) {
  return EncodeAs<Msg>(framing, data, id);
}

template <class Msg>
bool Decode(Framing framing, const wire::FrameHeader& header,
            std::string_view body, typename Msg::Data* out,
            std::string* error) {
  *out = typename Msg::Data{};
  if (framing == Framing::kJson) {
    JsonReader reader(body, /*flat=*/false, error);
    return reader.ok && ReadAs<Msg>(reader, out);
  }
  WireReaderDriver reader(header, body, error);
  return ReadAs<Msg>(reader, out);
}

#define HDIDX_SERVICE_MESSAGE(Msg)                                        \
  template std::string Encode<Msg>(Framing, const Msg::Data&, uint64_t); \
  template bool Decode<Msg>(Framing, const wire::FrameHeader&,            \
                            std::string_view, Msg::Data*, std::string*);
HDIDX_SERVICE_MESSAGE(PredictRequest)
HDIDX_SERVICE_MESSAGE(LoadRequest)
HDIDX_SERVICE_MESSAGE(StatsRequest)
HDIDX_SERVICE_MESSAGE(ShutdownRequest)
HDIDX_SERVICE_MESSAGE(PredictResponse)
HDIDX_SERVICE_MESSAGE(ErrorResponse)
HDIDX_SERVICE_MESSAGE(LoadResponse)
HDIDX_SERVICE_MESSAGE(StatsResponse)
HDIDX_SERVICE_MESSAGE(ShutdownResponse)
#undef HDIDX_SERVICE_MESSAGE

bool ParseRequestLine(std::string_view line, RequestLine* out,
                      std::string* error) {
  JsonReader reader(line, /*flat=*/true, error);
  std::string op = OpName(WireOp::kPredict);
  if (!reader.ok) return false;
  reader.Str(kOp, op);
  for (size_t i = 0; i < std::size(kOpNames) && reader.ok; ++i) {
    if (op == kOpNames[i]) {
      return ReadRequest(reader, static_cast<WireOp>(i), out);
    }
  }
  return reader.Fail("unknown op: " + op);
}

std::string JsonQuote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string SerializeResult(const ServiceResponse& response, bool per_query) {
  JsonWriter w;
  const PredictReplyView reply{response, per_query};
  w.Object([&] { ResultFields(w, reply); });
  return w.Finish();
}

namespace wire {

std::string EncodePredictRequest(const ServiceRequest& request) {
  return Encode<PredictRequest>(Framing::kWire, request);
}

std::string EncodeStatsRequest(uint64_t id) {
  return Encode<StatsRequest>(Framing::kWire, RequestLine{}, id);
}

bool DecodeRequest(const FrameHeader& header, std::string_view payload,
                   RequestLine* out, std::string* error) {
  WireReaderDriver reader(header, payload, error);
  return ReadRequest(reader, header.op, out);
}

std::string EncodePredictResponse(const ServiceResponse& response,
                                  bool per_query) {
  return EncodeAs<PredictResponse>(Framing::kWire,
                                   PredictReplyView{response, per_query}, 0);
}

bool DecodePredictResponse(const FrameHeader& header, std::string_view payload,
                           PredictReply* out, std::string* error) {
  return Decode<PredictResponse>(Framing::kWire, header, payload, out, error);
}

bool DecodeStatsResponse(const FrameHeader& header, std::string_view payload,
                         ServiceMetrics* out, std::string* error) {
  return Decode<StatsResponse>(Framing::kWire, header, payload, out, error);
}

}  // namespace wire

}  // namespace hdidx::service
