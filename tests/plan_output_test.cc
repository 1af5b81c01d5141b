// Pins the user-visible rendering of a plan: the full QueryPlan::Explain()
// text (the CLI's --explain) and the SaveResultSetJson document (the CLI's
// --report) for one fixed database under every algorithm choice, so a
// refactor of the planning/execution layer cannot move either by a byte.
// Only fields measured in seconds are masked; everything else — store and
// simplification-cache provenance, derived parameters, work estimates,
// counted stats, the convoys — is compared verbatim.

#include <regex>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "io/result_io.h"
#include "obs/trace.h"
#include "traj/snapshot_store.h"

namespace convoy {
namespace {

// Three groups of four objects travelling together plus three loners, over
// 40 ticks; plain integer-derived arithmetic so every platform builds the
// same doubles.
TrajectoryDatabase FixedDb() {
  TrajectoryDatabase db;
  for (ObjectId id = 0; id < 15; ++id) {
    const bool loner = id >= 12;
    const double group = static_cast<double>(id / 4);
    const double lane = static_cast<double>(id % 4);
    Trajectory traj(id);
    const Tick begin = loner ? 5 : static_cast<Tick>(id % 3);
    for (Tick t = begin; t < 40; ++t) {
      // A triangle wave per group (period 8, amplitude 6) gives the
      // simplifiers real corners to keep; the lane offset and a small
      // per-object wobble keep group members within e of each other.
      const Tick phase = t % 8;
      const double wave = static_cast<double>(phase < 4 ? phase : 8 - phase);
      const double wobble = static_cast<double>((t * 7 + id * 3) % 5) * 0.2;
      const double x = loner ? static_cast<double>(t) * 2.5 + 17.0 * lane
                             : static_cast<double>(t) * 1.5 + wobble;
      const double y = loner ? 300.0 - static_cast<double>(t) * 3.0
                             : group * 100.0 + lane * 1.5 + wave * 1.5 +
                                   static_cast<double>((t * 5 + id) % 3) * 0.25;
      traj.Append(x, y, t);
    }
    db.Add(std::move(traj));
  }
  return db;
}

const ConvoyQuery kQuery{3, 10, 4.0};

// The --report document with every seconds field masked and the metrics
// block (pinned separately, by TraceSummary) elided.
std::string ReportJson(const ConvoyResultSet& result) {
  static const std::regex kSeconds("\"([a-z_]*seconds)\":[-+0-9.eE]+");
  static const std::regex kMetrics("\"metrics\":[^\n]*\n");
  std::ostringstream out;
  SaveResultSetJson(result, out);
  return std::regex_replace(
      std::regex_replace(out.str(), kSeconds, "\"$1\":<s>"), kMetrics,
      "\"metrics\":...\n");
}

// The deterministic part of a traced execution: every non-zero counter,
// every span name with its count, every series name with its count.
std::string TraceSummary(const QueryMetrics& metrics) {
  std::ostringstream out;
  for (size_t i = 0; i < metrics.counters.size(); ++i) {
    if (metrics.counters[i] == 0) continue;
    out << ToString(static_cast<TraceCounter>(i)) << "="
        << metrics.counters[i] << "\n";
  }
  for (const auto& span : metrics.spans) {
    out << "span " << span.name << " x" << span.count << "\n";
  }
  for (const auto& series : metrics.series) {
    out << "series " << series.name << " x" << series.count << "\n";
  }
  return out.str();
}

struct Pinned {
  AlgorithmChoice choice;
  const char* first_explain;   // fresh engine
  const char* second_explain;  // same engine, second Prepare
  const char* report;          // Execute of the second plan
  const char* trace;           // traced Prepare + Execute, fresh engine
};

const Pinned kPinned[] = {
    {AlgorithmChoice::kAuto,
     R"(plan
  algorithm:   CMC (auto: 573 points <= 4096)
  query:       m=3 k=10 e=4 threads=1
  database:    N=15 T=40 points=573
  snapshot store: built (40 ticks, 573 columnar points)
  delta:       n/a
  lambda:      n/a
  estimated work: 40 snapshot clustering(s), ~573 object-clustering units (exact columnar alive counts)
  capabilities: exact, cancel, progress, incremental, threads
)",
     R"(plan
  algorithm:   CMC (auto: 573 points <= 4096)
  query:       m=3 k=10 e=4 threads=1
  database:    N=15 T=40 points=573
  snapshot store: reused (40 ticks, 573 columnar points)
  delta:       n/a
  lambda:      n/a
  estimated work: 40 snapshot clustering(s), ~573 object-clustering units (exact columnar alive counts)
  capabilities: exact, cancel, progress, incremental, threads
)",
     R"({
"plan":{"algorithm":"CMC","requested":"auto","query":{"m":3,"k":10,"e":4,"threads":1},"cache":"n/a","exact":true,"database":{"objects":15,"ticks":40,"points":573},"estimated_clusterings":40,"estimated_work":573},
"stats":{"total_seconds":<s>,"simplify_seconds":<s>,"filter_seconds":<s>,"refine_seconds":<s>,"num_candidates":0,"num_clusterings":40,"num_convoys":5},
"metrics":...
"convoys":[
  {"objects":[0,1,3],"start":1,"end":39},
  {"objects":[4,6,7],"start":1,"end":39},
  {"objects":[0,1,2,3],"start":2,"end":39},
  {"objects":[4,5,6,7],"start":2,"end":39},
  {"objects":[8,9,10,11],"start":2,"end":39}
]
}
)",
     R"(snapshots_clustered=40
dbscan.points_scanned=573
dbscan.neighbor_queries=573
dbscan.neighbors_visited=1723
dbscan.clusters_formed=116
tracker.steps=40
tracker.candidates_offered=303
tracker.dedup_probes=111
tracker.dedup_hits=111
tracker.completed=5
tracker.live_max=5
store.grid_cache_misses=40
store.ticks_built=40
store.points_built=573
sink.convoys_emitted=5
span algorithm.cmc x1
span cmc.finalize x1
span execute x1
span prepare x1
span snapshot.cluster x40
series sink.time_to_first_convoy_ms x1
)"},
    {AlgorithmChoice::kCmc,
     R"(plan
  algorithm:   CMC (explicit)
  query:       m=3 k=10 e=4 threads=1
  database:    N=15 T=40 points=573
  snapshot store: built (40 ticks, 573 columnar points)
  delta:       n/a
  lambda:      n/a
  estimated work: 40 snapshot clustering(s), ~573 object-clustering units (exact columnar alive counts)
  capabilities: exact, cancel, progress, incremental, threads
)",
     R"(plan
  algorithm:   CMC (explicit)
  query:       m=3 k=10 e=4 threads=1
  database:    N=15 T=40 points=573
  snapshot store: reused (40 ticks, 573 columnar points)
  delta:       n/a
  lambda:      n/a
  estimated work: 40 snapshot clustering(s), ~573 object-clustering units (exact columnar alive counts)
  capabilities: exact, cancel, progress, incremental, threads
)",
     R"({
"plan":{"algorithm":"CMC","requested":"CMC","query":{"m":3,"k":10,"e":4,"threads":1},"cache":"n/a","exact":true,"database":{"objects":15,"ticks":40,"points":573},"estimated_clusterings":40,"estimated_work":573},
"stats":{"total_seconds":<s>,"simplify_seconds":<s>,"filter_seconds":<s>,"refine_seconds":<s>,"num_candidates":0,"num_clusterings":40,"num_convoys":5},
"metrics":...
"convoys":[
  {"objects":[0,1,3],"start":1,"end":39},
  {"objects":[4,6,7],"start":1,"end":39},
  {"objects":[0,1,2,3],"start":2,"end":39},
  {"objects":[4,5,6,7],"start":2,"end":39},
  {"objects":[8,9,10,11],"start":2,"end":39}
]
}
)",
     R"(snapshots_clustered=40
dbscan.points_scanned=573
dbscan.neighbor_queries=573
dbscan.neighbors_visited=1723
dbscan.clusters_formed=116
tracker.steps=40
tracker.candidates_offered=303
tracker.dedup_probes=111
tracker.dedup_hits=111
tracker.completed=5
tracker.live_max=5
store.grid_cache_misses=40
store.ticks_built=40
store.points_built=573
sink.convoys_emitted=5
span algorithm.cmc x1
span cmc.finalize x1
span execute x1
span prepare x1
span snapshot.cluster x40
series sink.time_to_first_convoy_ms x1
)"},
    {AlgorithmChoice::kCuts,
     R"(plan
  algorithm:   CuTS (explicit)
  query:       m=3 k=10 e=4 threads=1
  database:    N=15 T=40 points=573
  snapshot store: n/a (row-oriented path)
  delta:       0.0670192 (derived, Sec. 7.4 guideline)
  lambda:      3 (derived, Sec. 7.4 guideline)
  simplification cache: miss
  estimated work: 14 partition clustering(s), ~210 object-clustering units (refinement excluded)
  capabilities: exact, simplification, cancel, progress, incremental, threads
)",
     R"(plan
  algorithm:   CuTS (explicit)
  query:       m=3 k=10 e=4 threads=1
  database:    N=15 T=40 points=573
  snapshot store: n/a (row-oriented path)
  delta:       0.0670192 (derived, Sec. 7.4 guideline)
  lambda:      3 (derived, Sec. 7.4 guideline)
  simplification cache: hit
  estimated work: 14 partition clustering(s), ~210 object-clustering units (refinement excluded)
  capabilities: exact, simplification, cancel, progress, incremental, threads
)",
     R"({
"plan":{"algorithm":"CuTS","requested":"CuTS","query":{"m":3,"k":10,"e":4,"threads":1},"delta":0.0670192,"delta_derived":true,"lambda":3,"lambda_derived":true,"cache":"hit","exact":true,"database":{"objects":15,"ticks":40,"points":573},"estimated_clusterings":14,"estimated_work":210},
"stats":{"total_seconds":<s>,"simplify_seconds":<s>,"filter_seconds":<s>,"refine_seconds":<s>,"num_candidates":3,"num_clusterings":130,"num_convoys":5},
"metrics":...
"convoys":[
  {"objects":[0,1,3],"start":1,"end":39},
  {"objects":[4,6,7],"start":1,"end":39},
  {"objects":[0,1,2,3],"start":2,"end":39},
  {"objects":[4,5,6,7],"start":2,"end":39},
  {"objects":[8,9,10,11],"start":2,"end":39}
]
}
)",
     R"(snapshots_clustered=116
dbscan.points_scanned=462
dbscan.neighbor_queries=462
dbscan.neighbors_visited=1610
dbscan.clusters_formed=116
tracker.steps=134
tracker.candidates_offered=384
tracker.dedup_probes=150
tracker.dedup_hits=150
tracker.completed=8
tracker.live_max=3
engine.simplify_cache_misses=1
filter.partitions=14
refine.units=3
sink.convoys_emitted=5
filter.polylines=207
filter.segment_tests=574
filter.mbr_rejects=8
span algorithm.cuts x1
span cmc.finalize x3
span execute x1
span filter.partition x14
span prepare x1
span prepare.simplify x1
span refine.unit x3
span snapshot.cluster x120
series sink.inter_emission_ms x2
series sink.time_to_first_convoy_ms x1
)"},
    {AlgorithmChoice::kCutsPlus,
     R"(plan
  algorithm:   CuTS+ (explicit)
  query:       m=3 k=10 e=4 threads=1
  database:    N=15 T=40 points=573
  snapshot store: n/a (row-oriented path)
  delta:       0.0670192 (derived, Sec. 7.4 guideline)
  lambda:      3 (derived, Sec. 7.4 guideline)
  simplification cache: miss
  estimated work: 14 partition clustering(s), ~210 object-clustering units (refinement excluded)
  capabilities: exact, simplification, cancel, progress, incremental, threads
)",
     R"(plan
  algorithm:   CuTS+ (explicit)
  query:       m=3 k=10 e=4 threads=1
  database:    N=15 T=40 points=573
  snapshot store: n/a (row-oriented path)
  delta:       0.0670192 (derived, Sec. 7.4 guideline)
  lambda:      3 (derived, Sec. 7.4 guideline)
  simplification cache: hit
  estimated work: 14 partition clustering(s), ~210 object-clustering units (refinement excluded)
  capabilities: exact, simplification, cancel, progress, incremental, threads
)",
     R"({
"plan":{"algorithm":"CuTS+","requested":"CuTS+","query":{"m":3,"k":10,"e":4,"threads":1},"delta":0.0670192,"delta_derived":true,"lambda":3,"lambda_derived":true,"cache":"hit","exact":true,"database":{"objects":15,"ticks":40,"points":573},"estimated_clusterings":14,"estimated_work":210},
"stats":{"total_seconds":<s>,"simplify_seconds":<s>,"filter_seconds":<s>,"refine_seconds":<s>,"num_candidates":3,"num_clusterings":130,"num_convoys":5},
"metrics":...
"convoys":[
  {"objects":[0,1,3],"start":1,"end":39},
  {"objects":[4,6,7],"start":1,"end":39},
  {"objects":[0,1,2,3],"start":2,"end":39},
  {"objects":[4,5,6,7],"start":2,"end":39},
  {"objects":[8,9,10,11],"start":2,"end":39}
]
}
)",
     R"(snapshots_clustered=116
dbscan.points_scanned=462
dbscan.neighbor_queries=462
dbscan.neighbors_visited=1610
dbscan.clusters_formed=116
tracker.steps=134
tracker.candidates_offered=384
tracker.dedup_probes=150
tracker.dedup_hits=150
tracker.completed=8
tracker.live_max=3
engine.simplify_cache_misses=1
filter.partitions=14
refine.units=3
sink.convoys_emitted=5
filter.polylines=207
filter.segment_tests=580
filter.mbr_rejects=9
span algorithm.cuts+ x1
span cmc.finalize x3
span execute x1
span filter.partition x14
span prepare x1
span prepare.simplify x1
span refine.unit x3
span snapshot.cluster x120
series sink.inter_emission_ms x2
series sink.time_to_first_convoy_ms x1
)"},
    {AlgorithmChoice::kCutsStar,
     R"(plan
  algorithm:   CuTS* (explicit)
  query:       m=3 k=10 e=4 threads=1
  database:    N=15 T=40 points=573
  snapshot store: n/a (row-oriented path)
  delta:       0.0670192 (derived, Sec. 7.4 guideline)
  lambda:      3 (derived, Sec. 7.4 guideline)
  simplification cache: miss
  estimated work: 14 partition clustering(s), ~210 object-clustering units (refinement excluded)
  capabilities: exact, simplification, cancel, progress, incremental, threads
)",
     R"(plan
  algorithm:   CuTS* (explicit)
  query:       m=3 k=10 e=4 threads=1
  database:    N=15 T=40 points=573
  snapshot store: n/a (row-oriented path)
  delta:       0.0670192 (derived, Sec. 7.4 guideline)
  lambda:      3 (derived, Sec. 7.4 guideline)
  simplification cache: hit
  estimated work: 14 partition clustering(s), ~210 object-clustering units (refinement excluded)
  capabilities: exact, simplification, cancel, progress, incremental, threads
)",
     R"({
"plan":{"algorithm":"CuTS*","requested":"CuTS*","query":{"m":3,"k":10,"e":4,"threads":1},"delta":0.0670192,"delta_derived":true,"lambda":3,"lambda_derived":true,"cache":"hit","exact":true,"database":{"objects":15,"ticks":40,"points":573},"estimated_clusterings":14,"estimated_work":210},
"stats":{"total_seconds":<s>,"simplify_seconds":<s>,"filter_seconds":<s>,"refine_seconds":<s>,"num_candidates":3,"num_clusterings":130,"num_convoys":5},
"metrics":...
"convoys":[
  {"objects":[0,1,3],"start":1,"end":39},
  {"objects":[4,6,7],"start":1,"end":39},
  {"objects":[0,1,2,3],"start":2,"end":39},
  {"objects":[4,5,6,7],"start":2,"end":39},
  {"objects":[8,9,10,11],"start":2,"end":39}
]
}
)",
     R"(snapshots_clustered=116
dbscan.points_scanned=462
dbscan.neighbor_queries=462
dbscan.neighbors_visited=1610
dbscan.clusters_formed=116
tracker.steps=134
tracker.candidates_offered=384
tracker.dedup_probes=150
tracker.dedup_hits=150
tracker.completed=8
tracker.live_max=3
engine.simplify_cache_misses=1
filter.partitions=14
refine.units=3
sink.convoys_emitted=5
filter.polylines=207
filter.segment_tests=651
filter.mbr_rejects=9
span algorithm.cuts* x1
span cmc.finalize x3
span execute x1
span filter.partition x14
span prepare x1
span prepare.simplify x1
span refine.unit x3
span snapshot.cluster x120
series sink.inter_emission_ms x2
series sink.time_to_first_convoy_ms x1
)"},
    {AlgorithmChoice::kMc2,
     R"(plan
  algorithm:   MC2 (explicit)
  query:       m=3 k=10 e=4 threads=1
  database:    N=15 T=40 points=573
  snapshot store: built (40 ticks, 573 columnar points)
  delta:       n/a
  lambda:      n/a
  estimated work: 40 snapshot clustering(s), ~573 object-clustering units (exact columnar alive counts)
  capabilities: approximate
)",
     R"(plan
  algorithm:   MC2 (explicit)
  query:       m=3 k=10 e=4 threads=1
  database:    N=15 T=40 points=573
  snapshot store: reused (40 ticks, 573 columnar points)
  delta:       n/a
  lambda:      n/a
  estimated work: 40 snapshot clustering(s), ~573 object-clustering units (exact columnar alive counts)
  capabilities: approximate
)",
     R"({
"plan":{"algorithm":"MC2","requested":"MC2","query":{"m":3,"k":10,"e":4,"threads":1},"cache":"n/a","exact":false,"database":{"objects":15,"ticks":40,"points":573},"estimated_clusterings":40,"estimated_work":573},
"stats":{"total_seconds":<s>,"simplify_seconds":<s>,"filter_seconds":<s>,"refine_seconds":<s>,"num_candidates":0,"num_clusterings":0,"num_convoys":3},
"metrics":...
"convoys":[
  {"objects":[0,1,3],"start":1,"end":39},
  {"objects":[4,6,7],"start":1,"end":39},
  {"objects":[8,9,10,11],"start":2,"end":39}
]
}
)",
     R"(store.ticks_built=40
store.points_built=573
span algorithm.mc2 x1
span execute x1
span prepare x1
)"},
};

TEST(PlanOutputTest, ExplainAndReportArePinnedForEveryAlgorithm) {
  for (const Pinned& pinned : kPinned) {
    SCOPED_TRACE(std::string(ToString(pinned.choice)));
    const ConvoyEngine engine(FixedDb());
    const auto first = engine.Prepare(kQuery, pinned.choice);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first->Explain(), pinned.first_explain);
    const auto second = engine.Prepare(kQuery, pinned.choice);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second->Explain(), pinned.second_explain);
    const auto result = engine.Execute(*second);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(ReportJson(*result), pinned.report);
  }
}

TEST(PlanOutputTest, TracedCountersAndSpanNamesArePinnedForEveryAlgorithm) {
  for (const Pinned& pinned : kPinned) {
    SCOPED_TRACE(std::string(ToString(pinned.choice)));
    const ConvoyEngine engine(FixedDb());
    TraceSession trace;
    const auto plan = engine.Prepare(kQuery, pinned.choice, {}, {}, &trace);
    ASSERT_TRUE(plan.ok());
    ExecHooks hooks;
    hooks.trace = &trace;
    hooks.sink = [](std::vector<Convoy>&&) {};
    const auto result = engine.Execute(*plan, hooks);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(TraceSummary(result->metrics()), pinned.trace);
  }
}

// A database over the store budget: the engine declines the columnar store
// and a CMC plan runs the row-oriented path, which EXPLAIN must say.
TEST(PlanOutputTest, OverBudgetCmcPlanExplainsRowOrientedPath) {
  TrajectoryDatabase db;
  for (ObjectId id = 0; id < 3; ++id) {
    Trajectory traj(id);
    traj.Append(0.0, static_cast<double>(id), 0);
    traj.Append(1.0, static_cast<double>(id), Tick{1} << 26);
    db.Add(std::move(traj));
  }
  ASSERT_GT(SnapshotStore::EstimateColumnarSlots(db),
            kSnapshotStoreSlotBudget);
  const ConvoyEngine engine(std::move(db));
  const auto plan = engine.Prepare(ConvoyQuery{2, 2, 5.0},
                                   AlgorithmChoice::kCmc);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->store_cache, PlanCacheStatus::kNotApplicable);
  EXPECT_EQ(plan->Explain(), R"(plan
  algorithm:   CMC (explicit)
  query:       m=2 k=2 e=5 threads=1
  database:    N=3 T=67108865 points=6
  snapshot store: n/a (row-oriented path)
  delta:       n/a
  lambda:      n/a
  estimated work: 67108865 snapshot clustering(s), ~2.01327e+08 object-clustering units (N*T upper bound)
  capabilities: exact, cancel, progress, incremental, threads
)");
}

}  // namespace
}  // namespace convoy
