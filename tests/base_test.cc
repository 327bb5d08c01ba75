#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <set>
#include <string>

#include "src/base/arena.h"
#include "src/base/math_util.h"
#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/base/table.h"
#include "src/base/units.h"

// Every global operator new call in this binary (WorkspaceTest below).
// Replaced together with the deletes that free its blocks, so a sanitizer's
// own operators never see them.
std::atomic<int64_t> g_operator_new_calls{0};

void* operator new(std::size_t size) {
  g_operator_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) {
    return block;
  }
  throw std::bad_alloc();
}
// GCC 12 takes any block reaching operator delete for one from its own
// operator new and warns on the free; here both operators are replaced.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
#pragma GCC diagnostic pop

namespace msmoe {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = InvalidArgument("bad shape");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad shape");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "UNIMPLEMENTED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted), "RESOURCE_EXHAUSTED");
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Internal("boom"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++equal;
    }
  }
  EXPECT_EQ(equal, 0);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.NextUniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextUniform();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, NextIndexBounds) {
  Rng rng(17);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t idx = rng.NextIndex(10);
    EXPECT_LT(idx, 10u);
    seen.insert(idx);
  }
  EXPECT_EQ(seen.size(), 10u);  // all buckets hit over 1000 draws
}

TEST(RngTest, ForkIsIndependentAndDeterministic) {
  Rng base(5);
  Rng fork1 = base.Fork(1);
  Rng fork1_again = Rng(5).Fork(1);
  Rng fork2 = base.Fork(2);
  EXPECT_EQ(fork1.NextU64(), fork1_again.NextU64());
  EXPECT_NE(fork1.NextU64(), fork2.NextU64());
}

TEST(MathUtilTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(10, 3), 4);
  EXPECT_EQ(CeilDiv(9, 3), 3);
  EXPECT_EQ(CeilDiv(1, 8), 1);
  EXPECT_EQ(CeilDiv(0, 8), 0);
}

TEST(MathUtilTest, AlignUp) {
  EXPECT_EQ(AlignUp(10, 8), 16);
  EXPECT_EQ(AlignUp(16, 8), 16);
  EXPECT_EQ(AlignUp(0, 8), 0);
}

TEST(MathUtilTest, AlmostEqual) {
  EXPECT_TRUE(AlmostEqual(1.0, 1.0 + 1e-9));
  EXPECT_FALSE(AlmostEqual(1.0, 1.01));
  EXPECT_TRUE(AlmostEqual(0.0, 0.0));
}

TEST(UnitsTest, BandwidthConversions) {
  // 400 GB/s == 400e9 bytes/s == 4e5 bytes/us.
  EXPECT_DOUBLE_EQ(GBps(400.0), 4.0e5);
  EXPECT_DOUBLE_EQ(ToGBps(GBps(123.0)), 123.0);
}

TEST(UnitsTest, ComputeConversions) {
  // 989 TFLOPS == 989e12 FLOP/s == 989e6 FLOP/us.
  EXPECT_DOUBLE_EQ(Tflops(989.0), 989.0e6);
}

TEST(UnitsTest, TimeConversions) {
  EXPECT_DOUBLE_EQ(UsToSeconds(2.5e6), 2.5);
  EXPECT_DOUBLE_EQ(SecondsToUs(3.0), 3.0e6);
  EXPECT_DOUBLE_EQ(UsToMs(1500.0), 1.5);
}

TEST(TableTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"long-name", "2.50"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| name      | value |"), std::string::npos);
  EXPECT_NE(out.find("| long-name | 2.50  |"), std::string::npos);
}

TEST(TableTest, CsvRoundTrip) {
  TablePrinter table({"x", "y"});
  table.AddRow({"1", "2"});
  EXPECT_EQ(table.ToCsv(), "x,y\n1,2\n");
}

TEST(TableTest, FmtHelpers) {
  EXPECT_EQ(TablePrinter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Fmt(static_cast<int64_t>(42)), "42");
}

TEST(StatusTest, IsRetryableFaultCoversExactlyTheTransientCodes) {
  // The recovery paths (legacy rollback and elastic classification) both
  // route through this predicate: a timed-out or aborted collective is
  // worth retrying; corrupted data and config/logic errors are not — a
  // retry would reproduce them identically.
  EXPECT_TRUE(IsRetryableFault(DeadlineExceeded("peer missing")));
  EXPECT_TRUE(IsRetryableFault(Aborted("rank crashed")));
  EXPECT_FALSE(IsRetryableFault(DataLoss("checksum mismatch")));
  EXPECT_FALSE(IsRetryableFault(InvalidArgument("bad config")));
  EXPECT_FALSE(IsRetryableFault(FailedPrecondition("stale epoch")));
  EXPECT_FALSE(IsRetryableFault(Internal("bug")));
  EXPECT_FALSE(IsRetryableFault(Status::Ok()));
}

TEST(WorkspaceTest, LongTagLookupAllocatesOnlyOnFirstUse) {
  // A tag longer than std::string's inline buffer (15 characters in
  // libstdc++) must not build a heap key on every lookup.
  const char* tag = "base_test.workspace1";
  ASSERT_EQ(std::string(tag).size(), 20u);
  Workspace& ws = ThreadWorkspace();
  float* first = ws.Floats(tag, 64);
  bool same_buffer = true;
  const int64_t before = g_operator_new_calls.load();
  for (int i = 0; i < 100; ++i) {
    same_buffer = same_buffer && ws.Floats(tag, 64) == first;
  }
  const int64_t allocations = g_operator_new_calls.load() - before;
  EXPECT_TRUE(same_buffer);
  EXPECT_EQ(allocations, 0);
}

}  // namespace
}  // namespace msmoe
