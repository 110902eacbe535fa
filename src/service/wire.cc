#include "service/wire.h"

#include <bit>
#include <cstring>

#include "common/check.h"

namespace hdidx::service::wire {

namespace {

/// Stores the low `bytes` bytes of `v` at `at`, least significant first.
void StoreLE(char* at, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    at[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

void AppendLE(std::string* out, uint64_t v, int bytes) {
  char buffer[8];
  StoreLE(buffer, v, bytes);
  out->append(buffer, static_cast<size_t>(bytes));
}

}  // namespace

// --- byte-order primitives ----------------------------------------------
//
// Everything below spells byte order out as shifts against a little-endian
// wire layout; no htonl/bswap anywhere, so the same code is correct (and
// identically tested) on either host endianness. On little-endian hosts
// the f64 array paths collapse to memcpy.

void AppendU16(std::string* out, uint16_t v) { AppendLE(out, v, 2); }
void AppendU32(std::string* out, uint32_t v) { AppendLE(out, v, 4); }
void AppendU64(std::string* out, uint64_t v) { AppendLE(out, v, 8); }

void AppendF64(std::string* out, double v) {
  AppendU64(out, std::bit_cast<uint64_t>(v));
}

void AppendString(std::string* out, std::string_view s) {
  HDIDX_CHECK(s.size() <= 0xffff)
      << "wire string too long: " << s.size() << " bytes";
  AppendU16(out, static_cast<uint16_t>(s.size()));
  out->append(s.data(), s.size());
}

void AppendF64Array(std::string* out, const double* values, size_t count) {
  if constexpr (std::endian::native == std::endian::little) {
    // IEEE-754 bits are already in wire order: one bulk copy.
    out->append(reinterpret_cast<const char*>(values),
                count * sizeof(double));
  } else {
    for (size_t i = 0; i < count; ++i) AppendF64(out, values[i]);
  }
}

uint16_t HostToNet16(uint16_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    return v;
  } else {
    return static_cast<uint16_t>((v >> 8) | (v << 8));
  }
}

bool WireReader::Take(size_t n, const char** p) {
  if (!ok_ || n > bytes_.size() - pos_) {
    ok_ = false;
    return false;
  }
  *p = bytes_.data() + pos_;
  pos_ += n;
  return true;
}

template <class T>
bool WireReader::ReadLE(T* v) {
  const char* p = nullptr;
  if (!Take(sizeof(T), &p)) return false;
  uint64_t out = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  *v = static_cast<T>(out);
  return true;
}

bool WireReader::ReadU8(uint8_t* v) { return ReadLE(v); }
bool WireReader::ReadU16(uint16_t* v) { return ReadLE(v); }
bool WireReader::ReadU32(uint32_t* v) { return ReadLE(v); }
bool WireReader::ReadU64(uint64_t* v) { return ReadLE(v); }

bool WireReader::ReadF64(double* v) {
  uint64_t bits = 0;
  if (!ReadU64(&bits)) return false;
  *v = std::bit_cast<double>(bits);
  return true;
}

bool WireReader::ReadString(std::string* v) {
  uint16_t len = 0;
  if (!ReadU16(&len)) return false;
  const char* p = nullptr;
  if (!Take(len, &p)) return false;
  v->assign(p, len);
  return true;
}

bool WireReader::ReadF64Array(size_t count, std::vector<double>* v) {
  // Bounds-check before any multiply so a garbage count cannot overflow.
  if (!ok_ || count > (bytes_.size() - pos_) / sizeof(double)) {
    ok_ = false;
    return false;
  }
  v->resize(count);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(v->data(), bytes_.data() + pos_, count * sizeof(double));
    pos_ += count * sizeof(double);
    return true;
  } else {
    for (size_t i = 0; i < count; ++i) {
      if (!ReadF64(&(*v)[i])) return false;
    }
    return true;
  }
}

// --- framing ------------------------------------------------------------

void SealFrame(std::string* frame, WireOp op, uint16_t flags, uint64_t id) {
  HDIDX_CHECK(frame->size() >= kHeaderBytes);
  const size_t length = frame->size() - kHeaderBytes;
  HDIDX_CHECK(length <= kDefaultMaxPayload)
      << "frame payload too large: " << length;
  char* header = frame->data();
  StoreLE(header, kMagic, 2);
  StoreLE(header + 2, kVersion, 1);
  StoreLE(header + 3, static_cast<uint8_t>(op), 1);
  StoreLE(header + 4, flags, 2);
  StoreLE(header + 6, 0, 2);  // reserved
  StoreLE(header + 8, length, 4);
  StoreLE(header + 12, id, 8);
}

FrameStatus NextFrame(std::string_view buffer, size_t max_payload,
                      size_t* consumed, FrameHeader* header,
                      std::string_view* payload, std::string* error) {
  if (buffer.size() < kHeaderBytes) return FrameStatus::kNeedMore;
  WireReader reader(buffer.substr(0, kHeaderBytes));
  uint16_t magic = 0;
  uint8_t version = 0;
  uint8_t op = 0;
  uint16_t flags = 0;
  uint16_t reserved = 0;
  uint32_t length = 0;
  uint64_t id = 0;
  reader.ReadU16(&magic);
  reader.ReadU8(&version);
  reader.ReadU8(&op);
  reader.ReadU16(&flags);
  reader.ReadU16(&reserved);
  reader.ReadU32(&length);
  reader.ReadU64(&id);
  HDIDX_DCHECK(reader.AtEnd());
  const auto reject = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return FrameStatus::kError;
  };
  if (magic != kMagic) return reject("bad magic: not the hdidx wire protocol");
  if (version != kVersion) {
    return reject("unsupported wire version " + std::to_string(version) +
                  " (this server speaks " + std::to_string(kVersion) + ")");
  }
  if (reserved != 0) return reject("nonzero reserved header bytes");
  if (op > static_cast<uint8_t>(WireOp::kError)) {
    return reject("unknown op " + std::to_string(op));
  }
  if (length > max_payload) {
    return reject("oversized frame: " + std::to_string(length) +
                  " payload bytes (cap " + std::to_string(max_payload) + ")");
  }
  if (buffer.size() < kHeaderBytes + length) return FrameStatus::kNeedMore;
  header->version = version;
  header->op = static_cast<WireOp>(op);
  header->flags = flags;
  header->length = length;
  header->id = id;
  *payload = buffer.substr(kHeaderBytes, length);
  *consumed = kHeaderBytes + length;
  return FrameStatus::kFrame;
}

bool PeekPredictDataset(std::string_view payload, std::string* dataset) {
  WireReader reader(payload);
  return reader.ReadString(dataset);
}

}  // namespace hdidx::service::wire
