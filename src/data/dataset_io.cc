#include "data/dataset_io.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

namespace hdidx::data {

namespace {

constexpr char kMagic[4] = {'H', 'D', 'I', 'X'};
constexpr uint32_t kVersion = 1;

struct Header {
  char magic[4];
  uint32_t version;
  uint64_t num_points;
  uint64_t dim;
};

}  // namespace

bool WriteDataset(const Dataset& data, const std::string& path,
                  std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    *error = "cannot open for writing: " + path;
    return false;
  }
  Header header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersion;
  header.num_points = data.size();
  header.dim = data.dim();
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  const auto buf = data.data();
  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size() * sizeof(float)));
  if (!out) {
    *error = "short write: " + path;
    return false;
  }
  return true;
}

std::optional<Dataset> ReadDataset(const std::string& path,
                                   std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open for reading: " + path;
    return std::nullopt;
  }
  Header header;
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (!in || std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    *error = "bad magic or truncated header: " + path;
    return std::nullopt;
  }
  if (header.version != kVersion) {
    *error = "unsupported version in " + path;
    return std::nullopt;
  }
  if (header.dim == 0) {
    *error = "zero dimensionality in " + path;
    return std::nullopt;
  }
  std::vector<float> values(header.num_points * header.dim);
  in.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(values.size() * sizeof(float)));
  if (!in) {
    *error = "truncated payload: " + path;
    return std::nullopt;
  }
  const size_t bad = FirstNonFinite(values);
  if (bad != values.size()) {
    *error = "non-finite coordinate at point " +
             std::to_string(bad / header.dim) + ", dimension " +
             std::to_string(bad % header.dim) + " in " + path;
    return std::nullopt;
  }
  return Dataset(std::move(values), static_cast<size_t>(header.dim));
}

}  // namespace hdidx::data
