#ifndef CONVOY_PERFBENCH_BATCH_H_
#define CONVOY_PERFBENCH_BATCH_H_

// The batch workloads (archive_fleet, dense_herd): an analyst's sweep of
// planned kAuto queries over one generated archive, and the per-layer probe
// of the query path that every workload's traced run shares.

#include <cstdint>
#include <vector>

#include "convoy/convoy.h"
#include "report.h"

namespace perfbench {

/// One generated position row of an archive.
struct Row {
  convoy::ObjectId id = 0;
  convoy::Tick t = 0;
  double x = 0.0;
  double y = 0.0;
};

/// Flattens a database into tick-ordered rows (the archive file's order).
std::vector<Row> RowsOf(const convoy::TrajectoryDatabase& db);

/// Groups rows by object into a TrajectoryDatabase (the load path).
convoy::TrajectoryDatabase BuildDatabase(const std::vector<Row>& rows);

/// Per-layer samples of the query path, gathered from calls into the
/// layers' public functions and published as the per-layer metrics
/// simplify.*, filter.*, refine.*, plan.*, store.build_ms and cmc.ms.
struct QueryLayerSamples {
  std::vector<double> simplify_ms, filter_ms, refine_ms;
  std::vector<double> prepare_ms, execute_ms, store_build_ms, cmc_ms;
  std::vector<double> vertex_reduction_pct, candidates, pair_tests;
  std::vector<double> refine_clusterings;
  double box_pruned_sum = 0.0, pair_tests_sum = 0.0;
  double final_convoys_sum = 0.0, candidates_sum = 0.0;
  uint64_t cache_hits = 0, cache_misses = 0;

  void Publish(Report& report) const;
};

/// Runs `plan`'s CuTS* pipeline as separate simplify -> filter -> refine
/// calls (with the plan's resolved delta and lambda), timing each layer into
/// `samples` when non-null. Returns the refined convoys.
std::vector<convoy::Convoy> SplitExecute(const convoy::ConvoyEngine& engine,
                                         const convoy::QueryPlan& plan,
                                         Tracer& tracer, uint64_t parent,
                                         uint64_t query_id,
                                         QueryLayerSamples* samples);

/// Runs archive_fleet or dense_herd.
int RunBatch(const RunOptions& options, Report& report);

}  // namespace perfbench

#endif  // CONVOY_PERFBENCH_BATCH_H_
