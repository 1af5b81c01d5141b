// Property tests of the parallel execution subsystem: every discovery entry
// point must produce output *identical* (not merely equivalent) at every
// thread count, across seeded random databases and 1/2/8 worker threads.

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "core/cmc.h"
#include "core/cuts.h"
#include "core/engine.h"
#include "tests/test_util.h"

namespace convoy {
namespace {

using testutil::PrepareAndExecute;
using testutil::RandomClumpyDb;
using testutil::WithThreads;

constexpr size_t kThreadCounts[] = {1, 2, 8};

TrajectoryDatabase MakeDb(uint64_t seed, double keep_prob = 1.0) {
  Rng rng(seed);
  return RandomClumpyDb(rng, /*num_objects=*/24, /*ticks=*/40,
                        /*world=*/60.0, /*step=*/1.0, keep_prob);
}

TEST(ParallelEquivalenceTest, ParallelCmcMatchesSerialExactly) {
  for (const uint64_t seed : {11u, 22u, 33u, 44u}) {
    const TrajectoryDatabase db = MakeDb(seed);
    const ConvoyQuery query{3, 4, 5.0};
    const auto serial = Cmc(db, query);
    for (const size_t threads : kThreadCounts) {
      const auto parallel = Cmc(db, WithThreads(query, threads));
      EXPECT_EQ(parallel, serial)
          << "seed " << seed << ", " << threads << " thread(s)";
    }
  }
}

TEST(ParallelEquivalenceTest, ParallelCmcMatchesWithRawCandidates) {
  // remove_dominated = false exercises the other finalization branch.
  const TrajectoryDatabase db = MakeDb(7);
  const ConvoyQuery query{2, 3, 5.0};
  CmcOptions options;
  options.remove_dominated = false;
  const auto serial = Cmc(db, query, options);
  for (const size_t threads : kThreadCounts) {
    EXPECT_EQ(Cmc(db, WithThreads(query, threads), options), serial);
  }
}

TEST(ParallelEquivalenceTest, ParallelCmcRangeMatchesSerial) {
  const TrajectoryDatabase db = MakeDb(5);
  const ConvoyQuery query{2, 3, 5.0};
  const Tick begin = db.BeginTick() + 5;
  const Tick end = db.EndTick() - 5;
  const auto serial = CmcRange(db, query, begin, end);
  for (const size_t threads : kThreadCounts) {
    EXPECT_EQ(CmcRange(db, WithThreads(query, threads), begin, end), serial);
  }
}

TEST(ParallelEquivalenceTest, ParallelCmcStatsCountEveryClustering) {
  const TrajectoryDatabase db = MakeDb(9);
  const ConvoyQuery query{3, 4, 5.0};
  DiscoveryStats serial_stats;
  (void)Cmc(db, query, {}, &serial_stats);
  for (const size_t threads : kThreadCounts) {
    DiscoveryStats stats;
    (void)Cmc(db, WithThreads(query, threads), {}, &stats);
    EXPECT_EQ(stats.num_clusterings, serial_stats.num_clusterings);
    EXPECT_EQ(stats.num_convoys, serial_stats.num_convoys);
  }
}

// Everything one Cmc call produces that must not depend on the thread
// count: the result, the counted stats, and the sink's batch stream.
struct CmcRun {
  std::vector<Convoy> result;
  size_t num_clusterings = 0;
  size_t num_convoys = 0;
  std::vector<std::vector<Convoy>> batches;
  size_t progress_reports = 0;
};

template <typename Source>
CmcRun RunCmc(const Source& source, const ConvoyQuery& query) {
  CmcRun run;
  ExecHooks hooks;
  hooks.sink = [&run](std::vector<Convoy>&& batch) {
    run.batches.push_back(std::move(batch));
  };
  hooks.progress = [&run](const ProgressUpdate&) { ++run.progress_reports; };
  DiscoveryStats stats;
  run.result = Cmc(source, query, {}, &stats, &hooks);
  run.num_clusterings = stats.num_clusterings;
  run.num_convoys = stats.num_convoys;
  return run;
}

void ExpectSameRun(const CmcRun& got, const CmcRun& want,
                   const std::string& label) {
  EXPECT_EQ(got.result, want.result) << label;
  EXPECT_EQ(got.num_clusterings, want.num_clusterings) << label;
  EXPECT_EQ(got.num_convoys, want.num_convoys) << label;
  EXPECT_EQ(got.batches, want.batches) << label;
  EXPECT_EQ(got.progress_reports, want.progress_reports) << label;
}

TEST(ParallelEquivalenceTest, CmcQueryThreadsBitIdenticalOnRowAndStore) {
  for (const uint64_t seed : {61u, 62u}) {
    // keep_prob < 1 leaves gaps, so some ticks interpolate and some fall
    // under m — both clustering branches are counted. Seed 62 spans 600
    // ticks, more than one block of ticks at every thread count.
    Rng rng(seed);
    const TrajectoryDatabase db = RandomClumpyDb(
        rng, /*num_objects=*/24, /*ticks=*/seed == 61 ? 40 : 600,
        /*world=*/60.0, /*step=*/1.0, /*keep_prob=*/0.85);
    const SnapshotStore store = SnapshotStore::Build(db, 1);
    const ConvoyQuery query{3, 4, 5.0};
    const CmcRun want = RunCmc(db, WithThreads(query, 1));
    ASSERT_FALSE(want.result.empty()) << "seed " << seed;
    ASSERT_FALSE(want.batches.empty()) << "seed " << seed;
    for (const size_t threads : {0u, 1u, 2u, 8u}) {
      const std::string label = "seed " + std::to_string(seed) + ", " +
                                std::to_string(threads) + " thread(s)";
      ExpectSameRun(RunCmc(db, WithThreads(query, threads)), want,
                    "row " + label);
      ExpectSameRun(RunCmc(store, WithThreads(query, threads)), want,
                    "store " + label);
    }
  }
}

TEST(ParallelEquivalenceTest, RefineCountsClusteringsAtEveryThreadCount) {
  const TrajectoryDatabase db = MakeDb(71);
  const ConvoyQuery query{3, 4, 5.0};
  const CutsFilterResult filtered =
      CutsFilter(db, query, MakeFilterOptions(CutsVariant::kCutsStar));
  ASSERT_FALSE(filtered.candidates.empty());
  for (const RefineMode mode :
       {RefineMode::kProjected, RefineMode::kFullWindow}) {
    DiscoveryStats serial;
    const auto want =
        CutsRefine(db, query, filtered.candidates, mode, &serial, 1);
    EXPECT_GT(serial.num_clusterings, 0u);
    for (const size_t threads : kThreadCounts) {
      DiscoveryStats stats;
      EXPECT_EQ(
          CutsRefine(db, query, filtered.candidates, mode, &stats, threads),
          want);
      EXPECT_EQ(stats.num_clusterings, serial.num_clusterings)
          << (mode == RefineMode::kProjected ? "projected" : "full-window")
          << ", " << threads << " thread(s)";
    }
  }
}

TEST(ParallelEquivalenceTest, ParallelCutsFilterMatchesSerialExactly) {
  for (const uint64_t seed : {3u, 13u, 23u}) {
    // keep_prob < 1 produces irregular sampling, the harder filter input.
    const TrajectoryDatabase db = MakeDb(seed, /*keep_prob=*/0.8);
    const ConvoyQuery query{3, 4, 5.0};
    for (const auto variant :
         {CutsVariant::kCuts, CutsVariant::kCutsStar}) {
      CutsFilterOptions options = MakeFilterOptions(variant);
      const CutsFilterResult serial = CutsFilter(db, query, options);
      const std::vector<SimplifiedTrajectory> serial_simplified =
          SimplifyDatabase(db, serial.delta_used, options.simplifier, 1);
      for (const size_t threads : kThreadCounts) {
        options.num_threads = threads;
        const CutsFilterResult parallel = CutsFilter(db, query, options);
        EXPECT_EQ(parallel.delta_used, serial.delta_used);
        EXPECT_EQ(parallel.lambda_used, serial.lambda_used);
        ASSERT_EQ(parallel.candidates.size(), serial.candidates.size())
            << ToString(variant) << " seed " << seed << ", " << threads
            << " thread(s)";
        for (size_t i = 0; i < serial.candidates.size(); ++i) {
          EXPECT_EQ(parallel.candidates[i].objects,
                    serial.candidates[i].objects);
          EXPECT_EQ(parallel.candidates[i].start_tick,
                    serial.candidates[i].start_tick);
          EXPECT_EQ(parallel.candidates[i].end_tick,
                    serial.candidates[i].end_tick);
          EXPECT_EQ(parallel.candidates[i].lifetime,
                    serial.candidates[i].lifetime);
        }
        const std::vector<SimplifiedTrajectory> parallel_simplified =
            SimplifyDatabase(db, parallel.delta_used, options.simplifier,
                             threads);
        ASSERT_EQ(parallel_simplified.size(), serial_simplified.size());
        for (size_t i = 0; i < serial_simplified.size(); ++i) {
          EXPECT_EQ(parallel_simplified[i].NumVertices(),
                    serial_simplified[i].NumVertices());
        }
      }
    }
  }
}

TEST(ParallelEquivalenceTest, ParallelCutsMatchesSerialAndCmc) {
  for (const uint64_t seed : {17u, 29u}) {
    const TrajectoryDatabase db = MakeDb(seed);
    const ConvoyQuery query{3, 4, 5.0};
    // kFullWindow is the refine mode that guarantees exact CMC equality on
    // every input (kProjected is allowed to differ in corner cases).
    CutsFilterOptions options;
    options.refine_mode = RefineMode::kFullWindow;
    const auto exact = Cmc(db, query);
    const auto serial = Cuts(db, query, CutsVariant::kCutsStar, options);
    EXPECT_TRUE(SameResultSet(serial, exact)) << "seed " << seed;
    for (const size_t threads : kThreadCounts) {
      const auto parallel = Cuts(db, WithThreads(query, threads),
                                 CutsVariant::kCutsStar, options);
      EXPECT_EQ(parallel, serial)
          << "seed " << seed << ", " << threads << " thread(s)";
    }
    // The default (projected) refine mode must also be thread-invariant.
    const auto serial_projected = Cuts(db, query, CutsVariant::kCutsStar);
    for (const size_t threads : kThreadCounts) {
      EXPECT_EQ(Cuts(db, WithThreads(query, threads), CutsVariant::kCutsStar),
                serial_projected)
          << "seed " << seed << ", " << threads << " thread(s)";
    }
  }
}

TEST(ParallelEquivalenceTest, QueryNumThreadsKnobIsResultInvariant) {
  const TrajectoryDatabase db = MakeDb(41);
  ConvoyQuery query{3, 4, 5.0};
  const auto baseline = Cuts(db, query, CutsVariant::kCutsPlus);
  const auto cmc_baseline = Cmc(db, query);
  for (const size_t threads : kThreadCounts) {
    query.num_threads = threads;
    EXPECT_EQ(Cuts(db, query, CutsVariant::kCutsPlus), baseline);
    EXPECT_EQ(Cmc(db, query), cmc_baseline);
  }
}

TEST(ParallelEquivalenceTest, EngineConcurrentExecuteIsSafeAndIdentical) {
  const TrajectoryDatabase db = MakeDb(55);
  const ConvoyQuery query{3, 4, 5.0};
  ConvoyEngine engine(db);
  const auto expected = Cuts(db, query, CutsVariant::kCutsStar);

  constexpr size_t kCallers = 4;
  std::vector<std::vector<Convoy>> results(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (size_t i = 0; i < kCallers; ++i) {
    callers.emplace_back([&engine, &results, &query, i] {
      results[i] = PrepareAndExecute(engine, query, AlgorithmChoice::kCutsStar)
                       .value()
                       .convoys();
    });
  }
  for (std::thread& t : callers) t.join();
  for (const auto& result : results) EXPECT_EQ(result, expected);
  // All callers used the same (simplifier, delta) key.
  EXPECT_EQ(engine.CacheSize(), 1u);
}

}  // namespace
}  // namespace convoy
