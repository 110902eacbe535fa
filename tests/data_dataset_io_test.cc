#include "data/dataset_io.h"

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "common/random.h"
#include "data/generators.h"
#include "gtest/gtest.h"

namespace hdidx::data {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(DatasetIoTest, RoundTrip) {
  common::Rng rng(1);
  const Dataset original = GenerateUniform(257, 7, &rng);
  const std::string path = TempPath("roundtrip.hdx");
  std::string error;
  ASSERT_TRUE(WriteDataset(original, path, &error)) << error;
  const auto loaded = ReadDataset(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(*loaded == original);
  std::remove(path.c_str());
}

TEST(DatasetIoTest, EmptyDatasetRoundTrip) {
  const Dataset empty(3);
  const std::string path = TempPath("empty.hdx");
  std::string error;
  ASSERT_TRUE(WriteDataset(empty, path, &error)) << error;
  const auto loaded = ReadDataset(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->size(), 0u);
  EXPECT_EQ(loaded->dim(), 3u);
  std::remove(path.c_str());
}

TEST(DatasetIoTest, MissingFileFails) {
  std::string error;
  const auto loaded = ReadDataset(TempPath("does_not_exist.hdx"), &error);
  EXPECT_FALSE(loaded.has_value());
  EXPECT_FALSE(error.empty());
}

TEST(DatasetIoTest, BadMagicRejected) {
  const std::string path = TempPath("bad_magic.hdx");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTAHDIXFILE____________________";
  }
  std::string error;
  EXPECT_FALSE(ReadDataset(path, &error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(DatasetIoTest, TruncatedPayloadRejected) {
  common::Rng rng(2);
  const Dataset original = GenerateUniform(100, 4, &rng);
  const std::string path = TempPath("truncated.hdx");
  std::string error;
  ASSERT_TRUE(WriteDataset(original, path, &error));
  // Chop the file short.
  {
    std::ifstream in(path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() / 2));
  }
  EXPECT_FALSE(ReadDataset(path, &error).has_value());
  std::remove(path.c_str());
}

TEST(DatasetIoTest, NonFiniteCoordinatesRejected) {
  common::Rng rng(3);
  Dataset poisoned = GenerateUniform(20, 4, &rng);
  poisoned.mutable_row(5)[1] = std::numeric_limits<float>::infinity();
  const std::string path = TempPath("nonfinite.hdx");
  std::string error;
  ASSERT_TRUE(WriteDataset(poisoned, path, &error)) << error;
  EXPECT_FALSE(ReadDataset(path, &error).has_value());
  EXPECT_EQ(error, "non-finite coordinate at point 5, dimension 1 in " + path);
  std::remove(path.c_str());
}

TEST(DatasetIoTest, UnwritablePathFails) {
  const Dataset d(1, 2);
  std::string error;
  EXPECT_FALSE(WriteDataset(d, "/nonexistent_dir_xyz/file.hdx", &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace hdidx::data
