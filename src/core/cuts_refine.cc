#include "core/cuts_refine.h"

#include <algorithm>
#include <optional>

#include "core/cmc.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "util/stopwatch.h"

namespace convoy {

namespace {

// Runs `work(i)` for i in [0, n) on up to `threads` workers via the shared
// chunk-based pool; slot i always holds work(i), so output order is
// deterministic. Units are processed in blocks so the sequential pass after
// each block can emit every finished unit's convoys to the sink and report
// progress *while later blocks are still refining* — that bounded emission
// latency is the incremental execution mode, and because the pass runs in
// index order the sink sequence is deterministic at every thread count.
template <typename WorkFn>
std::vector<std::vector<Convoy>> RefineMap(size_t n, size_t threads,
                                           WorkFn work,
                                           const ExecHooks* hooks) {
  threads = std::max<size_t>(1, std::min(threads, n == 0 ? 1 : n));
  const bool live_hooks =
      hooks != nullptr && (hooks->sink || hooks->progress ||
                           hooks->cancel.CanBeCancelled());
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  // Serial refinement emits after every unit; parallel refinement after
  // every block of a few units per worker. Without live hooks (the free
  // functions, benches, executions without a token) there is nothing to
  // emit, so one block maps every unit.
  const size_t block = !live_hooks ? n
                       : pool      ? std::max<size_t>(threads * 8, 64)
                                   : 1;
  std::vector<std::vector<Convoy>> results(n);
  for (size_t block_begin = 0; block_begin < n; block_begin += block) {
    const size_t block_size = std::min(block, n - block_begin);
    std::vector<std::vector<Convoy>> part =
        ParallelMap(pool ? &*pool : nullptr, block_size, [&](size_t i) {
          CheckCancelled(hooks);
          return work(block_begin + i);
        });
    for (size_t i = 0; i < block_size; ++i) {
      CheckCancelled(hooks);
      results[block_begin + i] = std::move(part[i]);
      if (hooks != nullptr && hooks->sink) {
        // The caller still needs the unit's convoys for the merged result,
        // so the sink gets a copy (only when a sink is installed).
        EmitConvoys(hooks,
                    std::vector<Convoy>(results[block_begin + i]));
      }
      ReportProgress(hooks, "refine", block_begin + i + 1, n);
    }
  }
  return results;
}

std::vector<Convoy> Flatten(std::vector<std::vector<Convoy>> parts) {
  std::vector<Convoy> all;
  for (std::vector<Convoy>& part : parts) {
    all.insert(all.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  return all;
}

// Runs every refinement unit's nested CMC — `run_unit(i, unit_query,
// cmc_options, &unit_stats, nested_hooks)` — and returns their convoys
// flattened in unit order. Each unit counts its clusterings into its own
// stats, summed afterwards in unit order, so the totals are the same at
// every thread count.
template <typename RunUnit>
std::vector<Convoy> RefineUnits(size_t n, const ConvoyQuery& query,
                                DiscoveryStats* stats, size_t threads,
                                const ExecHooks* hooks, RunUnit run_unit) {
  CmcOptions cmc_options;
  cmc_options.remove_dominated = false;  // pruned globally by the caller
  // Refinement is already parallel across units: each nested CMC runs on
  // its unit's thread instead of building a pool of its own.
  ConvoyQuery unit_query = query;
  unit_query.num_threads = 1;
  TraceSession* const trace = TraceOf(hooks);
  // Trace-only hooks for the nested CMC runs: counters and spans flow, but
  // the outer sink / progress / cancellation stay exclusively with the
  // refine loop (a nested emit would double-report every convoy).
  ExecHooks trace_hooks;
  trace_hooks.trace = trace;
  const ExecHooks* nested = trace != nullptr ? &trace_hooks : nullptr;
  std::vector<size_t> unit_clusterings(n, 0);
  auto parts = RefineMap(
      n, threads,
      [&](size_t i) {
        ScopedSpan span(trace, "refine.unit");
        TraceCount(trace, TraceCounter::kRefineUnits, 1);
        DiscoveryStats unit_stats;
        std::vector<Convoy> convoys =
            run_unit(i, unit_query, cmc_options, &unit_stats, nested);
        unit_clusterings[i] = unit_stats.num_clusterings;
        return convoys;
      },
      hooks);
  if (stats != nullptr) {
    for (const size_t count : unit_clusterings) {
      stats->num_clusterings += count;
    }
  }
  return Flatten(std::move(parts));
}

std::vector<Convoy> RefineProjected(const TrajectoryDatabase& db,
                                    const ConvoyQuery& query,
                                    const std::vector<Candidate>& candidates,
                                    DiscoveryStats* stats, size_t threads,
                                    const ExecHooks* hooks) {
  return RefineUnits(
      candidates.size(), query, stats, threads, hooks,
      [&](size_t i, const ConvoyQuery& unit_query,
          const CmcOptions& cmc_options, DiscoveryStats* unit_stats,
          const ExecHooks* nested) {
        const Candidate& cand = candidates[i];
        const TrajectoryDatabase subset = db.Project(cand.objects);
        return CmcRange(subset, unit_query, cand.start_tick, cand.end_tick,
                        cmc_options, unit_stats, nested);
      });
}

std::vector<Convoy> RefineFullWindow(const TrajectoryDatabase& db,
                                     const ConvoyQuery& query,
                                     const std::vector<Candidate>& candidates,
                                     DiscoveryStats* stats, size_t threads,
                                     const ExecHooks* hooks) {
  // Merge candidate intervals into disjoint windows; every true convoy is
  // contained in some candidate's interval, hence in some window.
  std::vector<std::pair<Tick, Tick>> intervals;
  intervals.reserve(candidates.size());
  for (const Candidate& cand : candidates) {
    intervals.emplace_back(cand.start_tick, cand.end_tick);
  }
  std::sort(intervals.begin(), intervals.end());
  std::vector<std::pair<Tick, Tick>> windows;
  for (const auto& iv : intervals) {
    if (!windows.empty() && iv.first <= windows.back().second + 1) {
      windows.back().second = std::max(windows.back().second, iv.second);
    } else {
      windows.push_back(iv);
    }
  }

  return RefineUnits(
      windows.size(), query, stats, threads, hooks,
      [&](size_t i, const ConvoyQuery& unit_query,
          const CmcOptions& cmc_options, DiscoveryStats* unit_stats,
          const ExecHooks* nested) {
        return CmcRange(db, unit_query, windows[i].first, windows[i].second,
                        cmc_options, unit_stats, nested);
      });
}

}  // namespace

std::vector<Convoy> CutsRefine(const TrajectoryDatabase& db,
                               const ConvoyQuery& query,
                               const std::vector<Candidate>& candidates,
                               RefineMode mode, DiscoveryStats* stats,
                               size_t threads, const ExecHooks* hooks) {
  Stopwatch phase;
  std::vector<Convoy> all =
      mode == RefineMode::kProjected
          ? RefineProjected(db, query, candidates, stats, threads, hooks)
          : RefineFullWindow(db, query, candidates, stats, threads, hooks);
  std::vector<Convoy> result = RemoveDominated(std::move(all));
  if (stats != nullptr) {
    stats->refine_seconds += phase.ElapsedSeconds();
    stats->num_convoys = result.size();
  }
  return result;
}

}  // namespace convoy
