#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <thread>

#include "core/discovery_stats.h"
#include "util/parse.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/stopwatch.h"

namespace convoy {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.NextUnit(), b.NextUnit());
  }
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(-5.0, 3.0);
    EXPECT_GE(x, -5.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(2);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(3);
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(4);
  SummaryStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.Gaussian(10.0, 2.0));
  EXPECT_NEAR(stats.Mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.StdDev(), 2.0, 0.1);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(6);
  const auto perm = rng.Permutation(50);
  ASSERT_EQ(perm.size(), 50u);
  std::vector<bool> seen(50, false);
  for (const size_t v : perm) {
    ASSERT_LT(v, 50u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(RngTest, PermutationEmpty) {
  Rng rng(7);
  EXPECT_TRUE(rng.Permutation(0).empty());
}

TEST(SummaryStatsTest, EmptyDefaults) {
  SummaryStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_TRUE(std::isinf(s.Min()));
  EXPECT_TRUE(std::isinf(s.Max()));
  EXPECT_EQ(s.Variance(), 0.0);
}

TEST(SummaryStatsTest, KnownValues) {
  SummaryStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
  EXPECT_DOUBLE_EQ(s.Variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.StdDev(), 2.0);
  EXPECT_DOUBLE_EQ(s.Sum(), 40.0);
}

TEST(SummaryStatsTest, SingleValue) {
  SummaryStats s;
  s.Add(3.5);
  EXPECT_DOUBLE_EQ(s.Mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.Min(), 3.5);
  EXPECT_DOUBLE_EQ(s.Max(), 3.5);
  EXPECT_DOUBLE_EQ(s.Variance(), 0.0);
}

TEST(QuantileTest, MedianAndExtremes) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 5.0);
}

TEST(QuantileTest, Interpolates) {
  EXPECT_DOUBLE_EQ(Quantile({0.0, 10.0}, 0.25), 2.5);
}

TEST(QuantileTest, EmptyReturnsZero) {
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(watch.ElapsedSeconds(), 0.009);
  EXPECT_GE(watch.ElapsedMillis(), 9.0);
  EXPECT_GE(watch.ElapsedMicros(), 9000);
}

TEST(StopwatchTest, RestartResetsOrigin) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  watch.Restart();
  EXPECT_LT(watch.ElapsedSeconds(), 0.005);
}

TEST(PhaseTimerTest, AccumulatesIntervals) {
  PhaseTimer timer;
  for (int i = 0; i < 3; ++i) {
    timer.Start();
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    timer.Stop();
  }
  EXPECT_GE(timer.TotalSeconds(), 0.008);
  timer.Reset();
  EXPECT_EQ(timer.TotalSeconds(), 0.0);
}

TEST(DiscoveryStatsTest, StreamOutputContainsKeyFields) {
  DiscoveryStats stats;
  stats.total_seconds = 1.5;
  stats.num_candidates = 7;
  stats.refinement_unit = 123.0;
  stats.num_convoys = 3;
  std::ostringstream os;
  os << stats;
  const std::string text = os.str();
  EXPECT_NE(text.find("total=1.5"), std::string::npos);
  EXPECT_NE(text.find("candidates=7"), std::string::npos);
  EXPECT_NE(text.find("refinement_unit=123"), std::string::npos);
  EXPECT_NE(text.find("convoys=3"), std::string::npos);
}

TEST(ScopedPhaseTest, AddsOnDestruction) {
  PhaseTimer timer;
  {
    ScopedPhase phase(&timer);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  EXPECT_GE(timer.TotalSeconds(), 0.002);
}

TEST(ParseNumberTest, AcceptsWholeInRangeValues) {
  size_t threads = 99;
  EXPECT_TRUE(ParseNumber("8", &threads, 0, 256));
  EXPECT_EQ(threads, 8u);
  EXPECT_TRUE(ParseNumber("0", &threads, 0, 256));
  EXPECT_EQ(threads, 0u);
  int64_t k = 0;
  EXPECT_TRUE(ParseNumber("-5", &k));
  EXPECT_EQ(k, -5);
  uint16_t port = 0;
  EXPECT_TRUE(ParseNumber("65535", &port));
  EXPECT_EQ(port, 65535);
  double e = 0.0;
  EXPECT_TRUE(ParseNumber("30.5", &e));
  EXPECT_EQ(e, 30.5);
  EXPECT_TRUE(ParseNumber("1e-3", &e));
  EXPECT_EQ(e, 1e-3);
  EXPECT_TRUE(ParseNumber("-2", &e));
  EXPECT_EQ(e, -2.0);
}

TEST(ParseNumberTest, RejectsGarbageAndLeavesOutputUntouched) {
  size_t threads = 7;
  for (const char* bad : {"", "abc", "8x", " 8", "8 ", "+8", "-1", "0x10",
                          "1.5"}) {
    EXPECT_FALSE(ParseNumber(bad, &threads)) << "'" << bad << "'";
    EXPECT_EQ(threads, 7u) << "'" << bad << "'";
  }
  double e = 4.0;
  for (const char* bad : {"", "abc", "1.5.2", "2e", "nan", "inf", "-inf"}) {
    EXPECT_FALSE(ParseNumber(bad, &e)) << "'" << bad << "'";
    EXPECT_EQ(e, 4.0) << "'" << bad << "'";
  }
}

TEST(ParseNumberTest, RejectsOverflowAndOutOfRange) {
  uint16_t port = 1;
  EXPECT_FALSE(ParseNumber("70000", &port));  // no wrap through a cast
  EXPECT_EQ(port, 1);
  uint64_t seed = 1;
  EXPECT_FALSE(ParseNumber("18446744073709551616", &seed));  // 2^64
  int64_t k = 3;
  EXPECT_FALSE(ParseNumber("-5", &k, 0));
  EXPECT_EQ(k, 3);
  size_t threads = 1;
  EXPECT_FALSE(ParseNumber("257", &threads, 0, 256));
  EXPECT_TRUE(ParseNumber("256", &threads, 0, 256));
  double prob = 0.5;
  EXPECT_FALSE(ParseNumber("1.5", &prob, 0.0, 1.0));
  EXPECT_FALSE(ParseNumber("1e400", &prob));  // overflows a double
  EXPECT_EQ(prob, 0.5);
}

}  // namespace
}  // namespace convoy
