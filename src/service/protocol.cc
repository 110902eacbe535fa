#include "service/protocol.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"
#include "service/wire.h"

namespace hdidx::service {

namespace {

/// Cursor over the line being parsed.
struct Scanner {
  const std::string& s;
  size_t pos = 0;

  void SkipWs() {
    while (pos < s.size() &&
           std::isspace(static_cast<unsigned char>(s[pos])) != 0) {
      ++pos;
    }
  }
  bool AtEnd() {
    SkipWs();
    return pos >= s.size();
  }
  bool Consume(char c) {
    SkipWs();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
};

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

bool ParseString(Scanner* in, std::string* out, std::string* error) {
  if (!in->Consume('"')) return Fail(error, "expected '\"'");
  out->clear();
  while (in->pos < in->s.size()) {
    const char c = in->s[in->pos++];
    if (c == '"') return true;
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (in->pos >= in->s.size()) break;
    const char esc = in->s[in->pos++];
    switch (esc) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'n': out->push_back('\n'); break;
      case 't': out->push_back('\t'); break;
      case 'r': out->push_back('\r'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'u': {
        if (in->pos + 4 > in->s.size()) {
          return Fail(error, "truncated \\u escape");
        }
        const std::string hex = in->s.substr(in->pos, 4);
        char* end = nullptr;
        const long code = std::strtol(hex.c_str(), &end, 16);
        if (end != hex.c_str() + 4) return Fail(error, "bad \\u escape");
        if (code > 0x7f) {
          return Fail(error, "non-ASCII \\u escapes are not supported");
        }
        out->push_back(static_cast<char>(code));
        in->pos += 4;
        break;
      }
      default:
        return Fail(error, std::string("unknown escape: \\") + esc);
    }
  }
  return Fail(error, "unterminated string");
}

bool ParseValue(Scanner* in, JsonValue* out, std::string* error) {
  in->SkipWs();
  if (in->pos >= in->s.size()) return Fail(error, "expected a value");
  const char c = in->s[in->pos];
  if (c == '"') {
    out->kind = JsonValue::Kind::kString;
    return ParseString(in, &out->str, error);
  }
  if (c == '{' || c == '[') {
    return Fail(error, "nested objects/arrays are not supported in requests");
  }
  if (in->s.compare(in->pos, 4, "true") == 0) {
    out->kind = JsonValue::Kind::kBool;
    out->boolean = true;
    in->pos += 4;
    return true;
  }
  if (in->s.compare(in->pos, 5, "false") == 0) {
    out->kind = JsonValue::Kind::kBool;
    out->boolean = false;
    in->pos += 5;
    return true;
  }
  if (in->s.compare(in->pos, 4, "null") == 0) {
    out->kind = JsonValue::Kind::kNull;
    in->pos += 4;
    return true;
  }
  char* end = nullptr;
  const double value = std::strtod(in->s.c_str() + in->pos, &end);
  if (end == in->s.c_str() + in->pos) {
    return Fail(error, "expected a value at '" + in->s.substr(in->pos) + "'");
  }
  out->kind = JsonValue::Kind::kNumber;
  out->num = value;
  in->pos = static_cast<size_t>(end - in->s.c_str());
  return true;
}

/// Fetches an integral field into `*out` if present; type/shape errors fail.
bool ReadUintField(const std::map<std::string, JsonValue>& fields,
                   const std::string& name, uint64_t* out,
                   std::string* error) {
  const auto it = fields.find(name);
  if (it == fields.end()) return true;
  if (it->second.kind != JsonValue::Kind::kNumber) {
    return Fail(error, "field '" + name + "' must be a number");
  }
  const double v = it->second.num;
  if (v < 0 || std::floor(v) != v || v > 1.8e19) {
    return Fail(error, "field '" + name + "' must be a non-negative integer");
  }
  *out = static_cast<uint64_t>(v);
  return true;
}

bool ReadSizeField(const std::map<std::string, JsonValue>& fields,
                   const std::string& name, size_t* out, std::string* error) {
  uint64_t v = *out;
  if (!ReadUintField(fields, name, &v, error)) return false;
  *out = static_cast<size_t>(v);
  return true;
}

bool ReadStringField(const std::map<std::string, JsonValue>& fields,
                     const std::string& name, std::string* out,
                     std::string* error) {
  const auto it = fields.find(name);
  if (it == fields.end()) return true;
  if (it->second.kind != JsonValue::Kind::kString) {
    return Fail(error, "field '" + name + "' must be a string");
  }
  *out = it->second.str;
  return true;
}

std::string FormatDouble(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

/// Framing invariant of the line-delimited protocol: a serialized message
/// is exactly one line. JsonQuote escapes every control character, so a
/// newline here means a serializer emitted raw text it should have quoted.
const std::string& CheckedOneLine(const std::string& message) {
  HDIDX_DCHECK(message.find('\n') == std::string::npos)
      << "serialized protocol message spans lines: " << message;
  return message;
}

}  // namespace

bool ParseFlatJsonObject(const std::string& line,
                         std::map<std::string, JsonValue>* out,
                         std::string* error) {
  out->clear();
  Scanner in{line};
  if (!in.Consume('{')) return Fail(error, "expected '{'");
  if (in.Consume('}')) {
    return in.AtEnd() ? true : Fail(error, "trailing content after object");
  }
  while (true) {
    std::string key;
    if (!ParseString(&in, &key, error)) return false;
    if (!in.Consume(':')) return Fail(error, "expected ':' after key");
    JsonValue value;
    if (!ParseValue(&in, &value, error)) return false;
    (*out)[key] = std::move(value);
    if (in.Consume(',')) continue;
    if (in.Consume('}')) break;
    return Fail(error, "expected ',' or '}'");
  }
  return in.AtEnd() ? true : Fail(error, "trailing content after object");
}

bool ParseRequestLine(const std::string& line, RequestLine* out,
                      std::string* error) {
  std::map<std::string, JsonValue> fields;
  if (!ParseFlatJsonObject(line, &fields, error)) return false;

  std::string op = "predict";
  if (!ReadStringField(fields, "op", &op, error)) return false;

  *out = RequestLine{};
  if (op == "stats") {
    out->op = RequestLine::Op::kStats;
    return true;
  }
  if (op == "shutdown") {
    out->op = RequestLine::Op::kShutdown;
    return true;
  }
  if (op == "load") {
    out->op = RequestLine::Op::kLoad;
    if (!ReadStringField(fields, "dataset", &out->load_dataset, error) ||
        !ReadStringField(fields, "path", &out->load_path, error)) {
      return false;
    }
    if (out->load_dataset.empty()) return Fail(error, "load needs 'dataset'");
    if (out->load_path.empty()) return Fail(error, "load needs 'path'");
    return true;
  }
  if (op != "predict") return Fail(error, "unknown op: " + op);

  out->op = RequestLine::Op::kPredict;
  ServiceRequest& r = out->predict;
  if (!ReadStringField(fields, "dataset", &r.dataset, error) ||
      !ReadStringField(fields, "method", &r.method, error) ||
      !ReadSizeField(fields, "memory", &r.memory, error) ||
      !ReadSizeField(fields, "num_queries", &r.num_queries, error) ||
      !ReadSizeField(fields, "k", &r.k, error) ||
      !ReadUintField(fields, "seed", &r.seed, error) ||
      !ReadSizeField(fields, "page_bytes", &r.page_bytes, error)) {
    return false;
  }
  if (r.dataset.empty()) return Fail(error, "predict needs 'dataset'");
  out->has_id = fields.count("id") != 0;
  if (!ReadUintField(fields, "id", &r.id, error)) return false;
  const auto pq = fields.find("per_query");
  if (pq != fields.end()) {
    if (pq->second.kind != JsonValue::Kind::kBool) {
      return Fail(error, "field 'per_query' must be a bool");
    }
    r.per_query = pq->second.boolean;
  }
  return true;
}

std::string JsonQuote(const std::string& s) {
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
  if (!response.ok) {
    return "{\"error\":" + JsonQuote(response.error) + "}";
  }
  const core::PredictionResult& r = response.result;
  std::string out = "{";
  out += "\"avg_leaf_accesses\":" + FormatDouble(r.avg_leaf_accesses);
  out += ",\"num_queries\":" + std::to_string(r.per_query_accesses.size());
  out += ",\"num_predicted_leaves\":" + std::to_string(r.num_predicted_leaves);
  out += ",\"h_upper\":" + std::to_string(r.h_upper);
  out += ",\"sigma_upper\":" + FormatDouble(r.sigma_upper);
  out += ",\"sigma_lower\":" + FormatDouble(r.sigma_lower);
  out += ",\"io_seeks\":" + std::to_string(r.io.page_seeks);
  out += ",\"io_transfers\":" + std::to_string(r.io.page_transfers);
  if (per_query) {
    out += ",\"per_query\":[";
    for (size_t i = 0; i < r.per_query_accesses.size(); ++i) {
      if (i != 0) out.push_back(',');
      out += FormatDouble(r.per_query_accesses[i]);
    }
    out.push_back(']');
  }
  out.push_back('}');
  return out;
}

std::string SerializePredictResponse(const ServiceResponse& response,
                                     bool per_query) {
  std::string out = "{\"op\":\"predict\"";
  out += ",\"id\":" + std::to_string(response.id);
  out += response.ok ? ",\"ok\":true" : ",\"ok\":false";
  out += ",\"shard\":" + std::to_string(response.shard);
  out += std::string(",\"cache\":") +
         (response.cache_hit ? "\"hit\"" : "\"miss\"");
  out += std::string(",\"workload_cache\":") +
         (response.workload_cache_hit ? "\"hit\"" : "\"miss\"");
  out += ",\"served_seeks\":" + std::to_string(response.served_io.page_seeks);
  out += ",\"served_transfers\":" +
         std::to_string(response.served_io.page_transfers);
  out += ",\"latency_ms\":" + FormatDouble(response.latency_ms);
  out += ",\"result\":" + SerializeResult(response, per_query);
  out.push_back('}');
  return CheckedOneLine(out);
}

std::string SerializeMetrics(const ServiceMetrics& metrics) {
  std::string out = "{\"op\":\"stats\",\"ok\":true";
  out += ",\"requests\":" + std::to_string(metrics.requests);
  out += ",\"batches\":" + std::to_string(metrics.batches);
  out += ",\"errors\":" + std::to_string(metrics.errors);
  out += ",\"mean_batch_size\":" + FormatDouble(metrics.mean_batch_size);
  out += ",\"result_cache\":{\"hits\":" + std::to_string(metrics.result_hits) +
         ",\"misses\":" + std::to_string(metrics.result_misses) +
         ",\"evictions\":" + std::to_string(metrics.result_evictions) + "}";
  out += ",\"workload_cache\":{\"hits\":" +
         std::to_string(metrics.workload_hits) +
         ",\"misses\":" + std::to_string(metrics.workload_misses) +
         ",\"evictions\":" + std::to_string(metrics.workload_evictions) + "}";
  out += ",\"shed_total\":" + std::to_string(metrics.shed_total);
  out += ",\"shards\":[";
  for (size_t s = 0; s < metrics.shards.size(); ++s) {
    if (s != 0) out.push_back(',');
    const ServiceMetrics::Shard& shard = metrics.shards[s];
    out += "{\"requests\":" + std::to_string(shard.requests);
    out += ",\"p50_ms\":" + FormatDouble(shard.p50_ms);
    out += ",\"p90_ms\":" + FormatDouble(shard.p90_ms);
    out += ",\"p99_ms\":" + FormatDouble(shard.p99_ms);
    out += ",\"queue_depth\":" + std::to_string(shard.queue_depth);
    out += ",\"peak_queue_depth\":" + std::to_string(shard.peak_queue_depth);
    out += ",\"shed\":" + std::to_string(shard.shed);
    out.push_back('}');
  }
  out += "]}";
  return CheckedOneLine(out);
}

std::string SerializeLoadResponse(const wire::LoadResult& result) {
  std::string out = "{\"op\":\"load\"";
  out += result.ok ? ",\"ok\":true" : ",\"ok\":false";
  out += ",\"dataset\":" + JsonQuote(result.dataset);
  if (result.ok) {
    out += ",\"points\":" + std::to_string(result.points);
    out += ",\"dims\":" + std::to_string(result.dims);
    out += ",\"shard\":" + std::to_string(result.shard);
  } else {
    out += ",\"error\":" + JsonQuote(result.error);
  }
  out.push_back('}');
  return CheckedOneLine(out);
}

std::string SerializeShutdownResponse(uint64_t served) {
  return "{\"op\":\"shutdown\",\"ok\":true,\"served\":" +
         std::to_string(served) + "}";
}

std::string SerializeErrorLine(const std::string& error) {
  return CheckedOneLine("{\"op\":\"error\",\"ok\":false,\"error\":" +
                        JsonQuote(error) + "}");
}

std::string SerializeShedResponse(uint64_t id, size_t shard,
                                  uint32_t retry_after_ms) {
  return "{\"op\":\"predict\",\"id\":" + std::to_string(id) +
         ",\"ok\":false,\"shed\":true,\"shard\":" + std::to_string(shard) +
         ",\"retry_after_ms\":" + std::to_string(retry_after_ms) + "}";
}

}  // namespace hdidx::service
