#include "io/io_stats.h"

#include "gtest/gtest.h"
#include "io/disk_model.h"

namespace hdidx::io {
namespace {

TEST(IoStatsTest, ConsistentTallyValidatesAndPrices) {
  IoStats stats;
  stats.page_seeks = 3;
  stats.page_transfers = 10;
  stats.Validate();
  const DiskModel disk;
  EXPECT_DOUBLE_EQ(stats.CostSeconds(disk), disk.Seconds(3.0, 10.0));
}

TEST(IoStatsTest, SumPreservesTheAuditInvariant) {
  IoStats a;
  a.page_seeks = 2;
  a.page_transfers = 5;
  IoStats b;
  b.page_seeks = 1;
  b.page_transfers = 4;
  const IoStats sum = a + b;
  sum.Validate();
  EXPECT_EQ(sum.page_seeks, 3u);
  EXPECT_EQ(sum.page_transfers, 9u);
}

// The accounting audit the invariants exist for: a hand-corrupted counter
// (more seeks than pages moved — impossible in a consistent tally) must be
// caught the moment the tally is consumed, not silently priced.
TEST(IoStatsDeathTest, CorruptedCounterIsCaughtAtConsumption) {
  IoStats corrupted;
  corrupted.page_seeks = 5;
  corrupted.page_transfers = 3;
  EXPECT_DEATH(corrupted.CostSeconds(DiskModel{}),
               "inconsistent I/O tally: 5 seeks > 3 transfers");
}

TEST(IoStatsDeathTest, NegativeCountsAreCaughtByTheDiskModel) {
  const DiskModel disk;
  EXPECT_DEATH(disk.Seconds(-1.0, 4.0), "negative I/O counts");
}

}  // namespace
}  // namespace hdidx::io
