#include "core/engine.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/cmc.h"
#include "core/params.h"
#include "query/result_set.h"
#include "tests/test_util.h"

namespace convoy {
namespace {

using testutil::PrepareAndExecute;
using testutil::RandomClumpyDb;

ConvoyEngine MakeEngine(uint64_t seed) {
  Rng rng(seed);
  return ConvoyEngine(RandomClumpyDb(rng, 20, 60, 50.0, 0.8));
}

// One Prepare + Execute; `stats` (optional) receives the execution's stats.
std::vector<Convoy> RunQuery(const ConvoyEngine& engine,
                             const ConvoyQuery& query, AlgorithmChoice choice,
                             const CutsFilterOptions& options = {},
                             DiscoveryStats* stats = nullptr) {
  const ConvoyResultSet result =
      PrepareAndExecute(engine, query, choice, options).value();
  if (stats != nullptr) *stats = result.stats();
  return result.convoys();
}

TEST(EngineTest, ExecuteMatchesFreestandingCuts) {
  ConvoyEngine engine = MakeEngine(1);
  const ConvoyQuery query{3, 6, 4.0};
  const auto via_engine = RunQuery(engine, query, AlgorithmChoice::kCutsStar);
  const auto direct = Cuts(engine.db(), query, CutsVariant::kCutsStar);
  EXPECT_TRUE(SameResultSet(via_engine, direct));
}

TEST(EngineTest, ExecuteCmcMatchesCmc) {
  ConvoyEngine engine = MakeEngine(2);
  const ConvoyQuery query{3, 6, 4.0};
  EXPECT_TRUE(SameResultSet(RunQuery(engine, query, AlgorithmChoice::kCmc),
                            Cmc(engine.db(), query)));
}

TEST(EngineTest, CacheReusedAcrossQueriesWithSameDelta) {
  ConvoyEngine engine = MakeEngine(3);
  CutsFilterOptions options;
  options.delta = 1.5;
  (void)RunQuery(engine, ConvoyQuery{3, 6, 4.0}, AlgorithmChoice::kCutsStar,
                 options);
  EXPECT_EQ(engine.CacheSize(), 1u);
  // Different m/k/e, same simplifier+delta: no new cache entry.
  (void)RunQuery(engine, ConvoyQuery{2, 10, 3.0}, AlgorithmChoice::kCutsStar,
                 options);
  EXPECT_EQ(engine.CacheSize(), 1u);
  // Different variant -> different simplifier -> new entry.
  (void)RunQuery(engine, ConvoyQuery{3, 6, 4.0}, AlgorithmChoice::kCuts,
                 options);
  EXPECT_EQ(engine.CacheSize(), 2u);
  // Different delta -> new entry.
  options.delta = 2.5;
  (void)RunQuery(engine, ConvoyQuery{3, 6, 4.0}, AlgorithmChoice::kCuts,
                 options);
  EXPECT_EQ(engine.CacheSize(), 3u);
}

TEST(EngineTest, CacheKeySeparatesDeltasWithinOneMicroUnit) {
  // Regression: the cache key used to truncate delta to integer micro-units
  // (llround(delta * 1e6)), so two distinct deltas within 1e-6 of each
  // other — or any two below 1e-6 — aliased to one entry and the second
  // query silently reused the first query's simplification. The key is now
  // the exact bit pattern of delta.
  ConvoyEngine engine = MakeEngine(6);
  const ConvoyQuery query{3, 6, 4.0};
  CutsFilterOptions options;

  options.delta = 0.5;
  (void)RunQuery(engine, query, AlgorithmChoice::kCutsStar, options);
  options.delta = 0.5000004;  // same micro-unit bucket as 0.5
  (void)RunQuery(engine, query, AlgorithmChoice::kCutsStar, options);
  EXPECT_EQ(engine.CacheSize(), 2u);

  // Sub-micro-unit deltas used to collapse onto bucket 0 too.
  options.delta = 1e-7;
  (void)RunQuery(engine, query, AlgorithmChoice::kCutsStar, options);
  options.delta = 2e-7;
  (void)RunQuery(engine, query, AlgorithmChoice::kCutsStar, options);
  EXPECT_EQ(engine.CacheSize(), 4u);
}

TEST(EngineTest, DerivedDeltaMemoizedPerExactE) {
  // A derived delta is memoized per e. The memo must be keyed on e's exact
  // bit pattern: the next double above e derives its own delta, never the
  // memoized neighbour's.
  ConvoyEngine engine = MakeEngine(6);
  // Small enough that every sampled pick falls back to e/2, so neighbouring
  // e's derive distinct deltas.
  const double e = 0.01;
  const double next_e =
      std::nextafter(e, std::numeric_limits<double>::infinity());
  const double want = ComputeDelta(engine.db(), e);
  const double want_next = ComputeDelta(engine.db(), next_e);
  ASSERT_NE(std::bit_cast<uint64_t>(want), std::bit_cast<uint64_t>(want_next))
      << "the regression needs neighbouring e's with distinct deltas";

  for (const ConvoyQuery& query :
       {ConvoyQuery{3, 6, e}, ConvoyQuery{2, 10, e}}) {
    const auto plan = engine.Prepare(query, AlgorithmChoice::kCutsStar);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_TRUE(plan->delta_derived);
    EXPECT_EQ(std::bit_cast<uint64_t>(plan->delta),
              std::bit_cast<uint64_t>(want));
  }
  const auto plan =
      engine.Prepare(ConvoyQuery{3, 6, next_e}, AlgorithmChoice::kCutsStar);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(std::bit_cast<uint64_t>(plan->delta),
            std::bit_cast<uint64_t>(want_next));
}

TEST(EngineTest, SnapshotStoreBuiltOnceAndShared) {
  ConvoyEngine engine = MakeEngine(8);
  bool reused = true;
  const auto first = engine.Store(1, &reused);
  ASSERT_NE(first, nullptr);
  EXPECT_FALSE(reused);  // first call pays the build

  const auto second = engine.Store(1, &reused);
  EXPECT_TRUE(reused);
  EXPECT_EQ(first.get(), second.get());  // same instance, not a rebuild

  // Every query path attaches the same store: a Prepare after the manual
  // Store() call reports a cache hit.
  const auto plan = engine.Prepare(ConvoyQuery{3, 6, 4.0});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->store_cache, PlanCacheStatus::kHit);
}

TEST(EngineTest, CachedRunSkipsSimplifyTime) {
  ConvoyEngine engine = MakeEngine(4);
  CutsFilterOptions options;
  options.delta = 1.5;
  const ConvoyQuery query{3, 6, 4.0};
  DiscoveryStats first;
  (void)RunQuery(engine, query, AlgorithmChoice::kCutsStar, options, &first);
  DiscoveryStats second;
  (void)RunQuery(engine, query, AlgorithmChoice::kCutsStar, options, &second);
  EXPECT_EQ(second.simplify_seconds, 0.0);
  EXPECT_GT(first.total_seconds, 0.0);
}

TEST(EngineTest, CachedResultsStayCorrect) {
  ConvoyEngine engine = MakeEngine(5);
  CutsFilterOptions options;
  options.delta = 1.2;
  options.refine_mode = RefineMode::kFullWindow;
  for (const double e : {3.0, 4.0, 5.0}) {
    const ConvoyQuery query{2, 5, e};
    const auto got =
        RunQuery(engine, query, AlgorithmChoice::kCutsStar, options);
    EXPECT_TRUE(SameResultSet(got, Cmc(engine.db(), query))) << "e=" << e;
  }
}

TEST(EngineTest, LongestConvoy) {
  const std::vector<Convoy> result = {
      Convoy{{1, 2}, 0, 9},       // lifetime 10
      Convoy{{3, 4, 5}, 20, 25},  // lifetime 6
  };
  const auto longest = LongestConvoyOf(result);
  ASSERT_TRUE(longest.has_value());
  EXPECT_EQ(longest->objects, (std::vector<ObjectId>{1, 2}));
  EXPECT_FALSE(LongestConvoyOf({}).has_value());
}

TEST(EngineTest, LongestConvoyTieBreaksOnSize) {
  const std::vector<Convoy> result = {
      Convoy{{1, 2}, 0, 9},
      Convoy{{3, 4, 5}, 10, 19},
  };
  const auto longest = LongestConvoyOf(result);
  ASSERT_TRUE(longest.has_value());
  EXPECT_EQ(longest->objects.size(), 3u);
}

TEST(EngineTest, InvolvingFiltersByObject) {
  const std::vector<Convoy> result = {
      Convoy{{1, 2}, 0, 9},
      Convoy{{2, 3}, 5, 14},
      Convoy{{4, 5}, 0, 9},
  };
  const auto involving2 = ConvoysInvolving(result, 2);
  EXPECT_EQ(involving2.size(), 2u);
  EXPECT_TRUE(ConvoysInvolving(result, 9).empty());
}

TEST(EngineTest, DuringFiltersByInterval) {
  const std::vector<Convoy> result = {
      Convoy{{1, 2}, 0, 9},
      Convoy{{2, 3}, 20, 30},
  };
  EXPECT_EQ(ConvoysDuring(result, 5, 25).size(), 2u);
  EXPECT_EQ(ConvoysDuring(result, 10, 19).size(), 0u);
  EXPECT_EQ(ConvoysDuring(result, 9, 9).size(), 1u);
}

}  // namespace
}  // namespace convoy
