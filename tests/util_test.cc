#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/util/checksum.h"
#include "src/util/prng.h"
#include "src/util/result.h"
#include "src/util/time.h"
#include "src/util/units.h"
#include "src/util/worker_pool.h"

namespace vafs {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status(ErrorCode::kNoSpace, "disk full");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kNoSpace);
  EXPECT_EQ(status.message(), "disk full");
  EXPECT_EQ(status.ToString(), "NO_SPACE: disk full");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (ErrorCode code :
       {ErrorCode::kOk, ErrorCode::kInvalidArgument, ErrorCode::kNotFound,
        ErrorCode::kPermissionDenied, ErrorCode::kAdmissionRejected, ErrorCode::kNoSpace,
        ErrorCode::kFailedPrecondition, ErrorCode::kAlreadyExists, ErrorCode::kOutOfRange,
        ErrorCode::kInternal}) {
    EXPECT_STRNE(ErrorCodeName(code), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result(ErrorCode::kNotFound, "missing");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> result(std::make_unique<int>(7));
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> value = std::move(result).value();
  EXPECT_EQ(*value, 7);
}

TEST(TimeTest, SecondsToUsecRoundsUp) {
  EXPECT_EQ(SecondsToUsec(1.0), 1'000'000);
  EXPECT_EQ(SecondsToUsec(0.0000015), 2);  // rounds up, never early
  EXPECT_EQ(SecondsToUsec(0.0), 0);
}

TEST(TimeTest, RoundTrip) {
  EXPECT_DOUBLE_EQ(UsecToSeconds(SecondsToUsec(2.5)), 2.5);
  EXPECT_EQ(MillisToUsec(3.0), 3000);
}

TEST(UnitsTest, Conversions) {
  EXPECT_EQ(KiB(4), 4096);
  EXPECT_EQ(MiB(1), 1048576);
  EXPECT_EQ(BytesToBits(512), 4096);
  EXPECT_EQ(BitsToBytesCeil(9), 2);
  EXPECT_EQ(BitsToBytesCeil(8), 1);
  EXPECT_EQ(CeilDiv(10, 3), 4);
  EXPECT_EQ(CeilDiv(9, 3), 3);
}

TEST(PrngTest, DeterministicForSeed) {
  Prng a(123);
  Prng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(PrngTest, DifferentSeedsDiffer) {
  Prng a(1);
  Prng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(PrngTest, RangesRespected) {
  Prng prng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t value = prng.NextInRange(-5, 5);
    EXPECT_GE(value, -5);
    EXPECT_LE(value, 5);
    const double d = prng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(PrngTest, CoversRange) {
  Prng prng(99);
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(prng.NextInRange(0, 9));
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(PrngTest, NextBelowIsUniformChiSquared) {
  // Pearson chi-squared over 10 cells, 9 degrees of freedom. The 0.999
  // quantile is 27.88; a correct generator fails each seed with p < 0.001,
  // and the old `Next() % bound` bias would not trip this for small
  // bounds, so the large-bound test below is the sharp one.
  for (uint64_t seed : {11ULL, 222ULL, 3333ULL}) {
    Prng prng(seed);
    constexpr int kCells = 10;
    constexpr int kDraws = 100'000;
    int64_t observed[kCells] = {};
    for (int i = 0; i < kDraws; ++i) {
      ++observed[prng.NextBelow(kCells)];
    }
    const double expected = static_cast<double>(kDraws) / kCells;
    double chi2 = 0.0;
    for (int64_t count : observed) {
      const double diff = static_cast<double>(count) - expected;
      chi2 += diff * diff / expected;
    }
    EXPECT_LT(chi2, 27.88) << "seed " << seed;
  }
}

TEST(PrngTest, NextBelowUnbiasedForHugeBound) {
  // bound = 3 * 2^62: under modulo reduction, residues below
  // 2^64 - bound = 2^62 are hit twice as often, putting HALF of all draws
  // below 2^62 instead of the uniform third. Lemire rejection must keep
  // the observed fraction at ~1/3.
  const uint64_t bound = 3ULL << 62;
  const uint64_t cutoff = 1ULL << 62;
  Prng prng(424242);
  constexpr int kDraws = 30'000;
  int below = 0;
  for (int i = 0; i < kDraws; ++i) {
    const uint64_t value = prng.NextBelow(bound);
    ASSERT_LT(value, bound);
    if (value < cutoff) {
      ++below;
    }
  }
  const double fraction = static_cast<double>(below) / kDraws;
  EXPECT_NEAR(fraction, 1.0 / 3.0, 0.02);  // biased reduction gives 0.5
}

TEST(PrngTest, NextInRangeFullDomainDoesNotOverflow) {
  // hi - lo + 1 wraps to 0 over the full int64 domain; the draw must not
  // trip signed-overflow UB and should produce both signs.
  Prng prng(5);
  bool saw_negative = false;
  bool saw_positive = false;
  for (int i = 0; i < 200; ++i) {
    const int64_t value =
        prng.NextInRange(std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max());
    saw_negative = saw_negative || value < 0;
    saw_positive = saw_positive || value > 0;
  }
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_positive);
  // Degenerate single-point intervals at the extremes.
  EXPECT_EQ(prng.NextInRange(std::numeric_limits<int64_t>::min(),
                             std::numeric_limits<int64_t>::min()),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(prng.NextInRange(std::numeric_limits<int64_t>::max(),
                             std::numeric_limits<int64_t>::max()),
            std::numeric_limits<int64_t>::max());
}

TEST(PrngTest, NextInRangeCrossingZeroStaysInBounds) {
  Prng prng(77);
  for (int i = 0; i < 2000; ++i) {
    const int64_t value = prng.NextInRange(-1'000'000'000'000, 1'000'000'000'000);
    EXPECT_GE(value, -1'000'000'000'000);
    EXPECT_LE(value, 1'000'000'000'000);
  }
}

TEST(ChecksumTest, MatchesCrc64XzCheckValue) {
  // CRC-64/XZ's published check value: the CRC of the ASCII digits
  // "123456789". It pins the on-disk checksum of every root sector,
  // catalog blob, journal record and Header Block.
  const std::string check = "123456789";
  const std::span<const uint8_t> bytes(reinterpret_cast<const uint8_t*>(check.data()),
                                       check.size());
  EXPECT_EQ(Crc64(bytes), 0x995DC9BBDF1939FAULL);
  // The incremental form agrees with the one-shot form across a split.
  EXPECT_EQ(Crc64Finish(Crc64Update(Crc64Update(kCrc64Init, bytes.first(4)), bytes.subspan(4))),
            0x995DC9BBDF1939FAULL);
}

// The bytewise CRC-64/XZ update: one table lookup per byte, the form the
// slicing-by-8 Crc64Update must reproduce exactly.
uint64_t BytewiseCrc64Update(uint64_t state, std::span<const uint8_t> bytes) {
  constexpr uint64_t kPoly = 0xC96C'5795'D787'0F42ULL;
  uint64_t table[256];
  for (uint64_t i = 0; i < 256; ++i) {
    uint64_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  for (uint8_t byte : bytes) {
    state = table[(state ^ byte) & 0xFF] ^ (state >> 8);
  }
  return state;
}

TEST(ChecksumTest, MatchesBytewiseReferenceAtAnyLengthOffsetAndState) {
  // Random lengths up to 64 KiB, misaligned starting offsets and random
  // running states: the word-at-a-time update agrees with the bytewise one
  // everywhere, tails and empty spans included.
  Prng prng(0xC3C64);
  std::vector<uint8_t> buffer((64 << 10) + 16);
  for (uint8_t& byte : buffer) {
    byte = static_cast<uint8_t>(prng.Next());
  }
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t offset = static_cast<size_t>(prng.NextBelow(16));
    const size_t length = trial < 64 ? static_cast<size_t>(trial)
                                     : static_cast<size_t>(prng.NextBelow((64 << 10) + 1));
    const uint64_t state = trial % 3 == 0 ? kCrc64Init : prng.Next();
    const std::span<const uint8_t> bytes(buffer.data() + offset, length);
    ASSERT_EQ(Crc64Update(state, bytes), BytewiseCrc64Update(state, bytes))
        << "offset " << offset << " length " << length << " state " << state;
  }
}

TEST(WorkerPoolTest, RunAllExecutesEveryTaskAndJoins) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.workers(), 4);
  std::atomic<int> done{0};
  std::vector<WorkerPool::Task> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.RunAll(std::move(tasks));
  // RunAll is a barrier: every task observed complete at return.
  EXPECT_EQ(done.load(), 100);
}

TEST(WorkerPoolTest, SingleWorkerRunsInline) {
  WorkerPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.RunAll({[&ran_on] { ran_on = std::this_thread::get_id(); }});
  EXPECT_EQ(ran_on, caller);
}

TEST(WorkerPoolTest, WorkersFromEnvClampsAndDefaults) {
  ASSERT_EQ(unsetenv("VAFS_WORKERS"), 0);
  EXPECT_EQ(WorkerPool::WorkersFromEnv(), 1);
  ASSERT_EQ(setenv("VAFS_WORKERS", "8", 1), 0);
  EXPECT_EQ(WorkerPool::WorkersFromEnv(), 8);
  ASSERT_EQ(setenv("VAFS_WORKERS", "0", 1), 0);
  EXPECT_EQ(WorkerPool::WorkersFromEnv(), 1);
  ASSERT_EQ(setenv("VAFS_WORKERS", "1000", 1), 0);
  EXPECT_EQ(WorkerPool::WorkersFromEnv(), 64);
  ASSERT_EQ(setenv("VAFS_WORKERS", "nonsense", 1), 0);
  EXPECT_EQ(WorkerPool::WorkersFromEnv(), 1);
  ASSERT_EQ(unsetenv("VAFS_WORKERS"), 0);
}

}  // namespace
}  // namespace vafs
