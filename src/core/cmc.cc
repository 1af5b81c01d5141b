#include "core/cmc.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "cluster/dbscan.h"
#include "cluster/grid_index.h"
#include "core/cuts_filter.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "traj/interpolate.h"
#include "util/stopwatch.h"

namespace convoy {

namespace {

// Maps a clustering's point indices to sorted object-id lists — the shape
// the candidate tracker consumes.
std::vector<std::vector<ObjectId>> ClustersToObjectIds(
    const Clustering& clustering, const ObjectId* ids) {
  std::vector<std::vector<ObjectId>> cluster_objects;
  cluster_objects.reserve(clustering.clusters.size());
  for (const std::vector<size_t>& cluster : clustering.clusters) {
    std::vector<ObjectId> members;
    members.reserve(cluster.size());
    for (const size_t idx : cluster) members.push_back(ids[idx]);
    std::sort(members.begin(), members.end());
    cluster_objects.push_back(std::move(members));
  }
  return cluster_objects;
}

}  // namespace

std::vector<std::vector<ObjectId>> ClusterSnapshot(
    const std::vector<Point>& points, const std::vector<ObjectId>& ids,
    const ConvoyQuery& query, bool* clustered, DbscanScratch* scratch) {
  if (clustered != nullptr) *clustered = false;
  if (points.size() < query.m) return {};
  Clustering clustering;
  if (scratch != nullptr) {
    // Arena path: rebuild the scratch grid in place (identical state to a
    // fresh index) and run DBSCAN out of the same working set.
    scratch->grid.Assign(points, query.e);
    clustering = Dbscan(points, scratch->grid, query.e, query.m, scratch);
  } else {
    const GridIndex index(points, query.e);
    clustering = Dbscan(points, index, query.e, query.m);
  }
  if (clustered != nullptr) *clustered = true;
  return ClustersToObjectIds(clustering, ids.data());
}

std::vector<std::vector<ObjectId>> SnapshotClusters(
    const TrajectoryDatabase& db, Tick t, const ConvoyQuery& query,
    bool* clustered, SnapshotScratch* scratch) {
  SnapshotScratch local;
  if (scratch == nullptr) scratch = &local;
  std::vector<Point>& snapshot = scratch->points;
  std::vector<ObjectId>& snapshot_ids = scratch->ids;
  snapshot.clear();
  snapshot_ids.clear();

  // O_t: every object alive at t contributes its (possibly virtual,
  // linearly interpolated) location.
  for (const Trajectory& traj : db.trajectories()) {
    const auto pos = InterpolateAt(traj, t);
    if (!pos.has_value()) continue;
    snapshot.push_back(*pos);
    snapshot_ids.push_back(traj.id());
  }
  return ClusterSnapshot(snapshot, snapshot_ids, query, clustered,
                         &scratch->dbscan);
}

std::vector<std::vector<ObjectId>> SnapshotClusters(
    const SnapshotStore& store, Tick t, const ConvoyQuery& query,
    bool* clustered, DbscanScratch* scratch, bool* grid_cache_hit) {
  if (clustered != nullptr) *clustered = false;
  const SnapshotView view = store.At(t);
  if (view.size < query.m) return {};
  // Hold the shared_ptr across the scan: the store may evict the grid
  // from its cache mid-query (eps-sweep bound), never from under us.
  const std::shared_ptr<const GridIndex> grid =
      store.GridFor(t, query.e, grid_cache_hit);
  const Clustering clustering =
      Dbscan(view.xs, view.ys, view.size, *grid, query.e, query.m, scratch);
  if (clustered != nullptr) *clustered = true;
  return ClustersToObjectIds(clustering, view.ids);
}

std::vector<Convoy> FinalizeCmcResult(const std::vector<Candidate>& completed,
                                      const CmcOptions& options) {
  std::vector<Convoy> result;
  result.reserve(completed.size());
  for (const Candidate& cand : completed) result.push_back(cand.ToConvoy());
  if (options.remove_dominated) {
    result = RemoveDominated(std::move(result));
  } else {
    Canonicalize(&result);
  }
  return result;
}

void TraceDbscanRun(TraceSession* trace, const DbscanTally& tally) {
  if (trace == nullptr) return;
  trace->Count(TraceCounter::kDbscanPointsScanned, tally.points_scanned);
  trace->Count(TraceCounter::kDbscanNeighborQueries, tally.neighbor_queries);
  trace->Count(TraceCounter::kDbscanNeighborsVisited,
               tally.neighbors_visited);
  trace->Count(TraceCounter::kDbscanClustersFormed, tally.clusters_formed);
}

void TraceTrackerTally(TraceSession* trace, const TrackerTally& tally) {
  if (trace == nullptr) return;
  trace->Count(TraceCounter::kTrackerSteps, tally.steps);
  trace->Count(TraceCounter::kTrackerCandidatesOffered,
               tally.candidates_offered);
  trace->Count(TraceCounter::kTrackerDedupProbes, tally.dedup_probes);
  trace->Count(TraceCounter::kTrackerDedupHits, tally.dedup_hits);
  trace->Count(TraceCounter::kTrackerCompleted, tally.completed);
  trace->CountMax(TraceCounter::kTrackerLiveMax, tally.live_max);
}

namespace {

// Converts completed candidates [from, end) to convoys and hands them to the
// hooks' incremental sink (no-op without one). Returns the new emission
// watermark.
size_t EmitCompletedSince(const std::vector<Candidate>& completed, size_t from,
                          const ExecHooks* hooks) {
  if (hooks == nullptr || !hooks->sink) return completed.size();
  std::vector<Convoy> batch;
  batch.reserve(completed.size() - from);
  for (size_t i = from; i < completed.size(); ++i) {
    batch.push_back(completed[i].ToConvoy());
  }
  EmitConvoys(hooks, std::move(batch));
  return completed.size();
}

// The one CMC loop, generic over how a tick's clusters are produced
// (row-oriented re-derivation or the SnapshotStore's columnar views) as
// `cluster_at(t, &clustered, &scratch)`, which leaves the DBSCAN tally of a
// clustered tick in scratch.dbscan. Ticks are clustered concurrently
// in blocks by query.num_threads workers; the tracker then advances, emits,
// reports progress and counts stats sequentially in tick order, which is
// what keeps every thread count bit-identical. At one thread a block is a
// single tick clustered on the calling thread out of one call-local arena —
// no pool, no buffering. Blocks bound peak memory to O(block *
// clusters-per-tick) instead of the whole time domain.
template <typename ClusterAt>
std::vector<Convoy> CmcRangeImpl(const ConvoyQuery& query, Tick begin_tick,
                                 Tick end_tick, const CmcOptions& options,
                                 DiscoveryStats* stats, const ExecHooks* hooks,
                                 ClusterAt&& cluster_at) {
  Stopwatch total;
  TraceSession* const trace = TraceOf(hooks);
  SnapshotScratch scratch;
  CandidateTracker tracker(query.m, query.k);
  std::vector<Candidate> completed;
  const size_t total_ticks =
      begin_tick <= end_tick ? static_cast<size_t>(end_tick - begin_tick) + 1
                             : 0;
  const size_t threads = ResolveWorkerThreads(0, query);
  std::optional<ThreadPool> pool;
  if (threads > 1 && total_ticks > 1) pool.emplace(threads);
  const size_t block = pool ? std::max<size_t>(threads * 16, 256) : 1;

  struct TickClusters {
    std::vector<std::vector<ObjectId>> clusters;
    bool clustered = false;
  };
  std::vector<TickClusters> per_tick(std::min(block, total_ticks));
  // Clusters block slots [chunk_begin, chunk_end) out of one arena (chunk
  // boundaries are deterministic, and scratch contents never affect
  // results). Worker-side spans land on the worker's own trace track; the
  // counters folded inside cluster_at are per-tick integer tallies, so
  // their totals are independent of the chunking.
  size_t block_begin = 0;
  const auto cluster_chunk = [&](size_t chunk_begin, size_t chunk_end,
                                 SnapshotScratch* arena) {
    for (size_t i = chunk_begin; i < chunk_end; ++i) {
      CheckCancelled(hooks);
      const Tick t = begin_tick + static_cast<Tick>(block_begin + i);
      ScopedSpan span(trace, "snapshot.cluster");
      per_tick[i].clusters = cluster_at(t, &per_tick[i].clustered, arena);
      if (per_tick[i].clustered) TraceDbscanRun(trace, arena->dbscan.tally);
    }
  };

  size_t emitted = 0;
  for (; block_begin < total_ticks; block_begin += block) {
    const size_t block_size = std::min(block, total_ticks - block_begin);
    if (pool) {
      pool->ParallelFor(block_size, [&](size_t chunk_begin, size_t chunk_end) {
        SnapshotScratch arena;
        cluster_chunk(chunk_begin, chunk_end, &arena);
      });
    } else {
      cluster_chunk(0, block_size, &scratch);
    }
    for (size_t i = 0; i < block_size; ++i) {
      CheckCancelled(hooks);
      const Tick t = begin_tick + static_cast<Tick>(block_begin + i);
      if (per_tick[i].clustered) {
        if (stats != nullptr) ++stats->num_clusterings;
        TraceCount(trace, TraceCounter::kSnapshotsClustered, 1);
      }
      // Moved out so the tick's clusters are freed before the next tick is
      // clustered. Advancing with an empty cluster list retires every live
      // candidate, which is exactly what a tick with < m alive objects must
      // do: the "consecutive time points" requirement breaks there.
      const std::vector<std::vector<ObjectId>> clusters =
          std::move(per_tick[i].clusters);
      tracker.Advance(clusters, t, t, /*step_weight=*/1, &completed);
      emitted = EmitCompletedSince(completed, emitted, hooks);
      ReportProgress(hooks, "cmc", block_begin + i + 1, total_ticks);
    }
  }
  tracker.Flush(&completed);
  EmitCompletedSince(completed, emitted, hooks);
  // The tracker only ever advances on the sequential pass, so its tally is
  // read once here — bit-identical at every thread count.
  TraceTrackerTally(trace, tracker.tally());

  std::vector<Convoy> result;
  {
    ScopedSpan finalize_span(trace, "cmc.finalize");
    result = FinalizeCmcResult(completed, options);
  }

  if (stats != nullptr) {
    stats->total_seconds += total.ElapsedSeconds();
    stats->num_convoys = result.size();
  }
  return result;
}

}  // namespace

std::vector<Convoy> CmcRange(const TrajectoryDatabase& db,
                             const ConvoyQuery& query, Tick begin_tick,
                             Tick end_tick, const CmcOptions& options,
                             DiscoveryStats* stats, const ExecHooks* hooks) {
  return CmcRangeImpl(
      query, begin_tick, end_tick, options, stats, hooks,
      [&](Tick t, bool* clustered, SnapshotScratch* arena) {
        return SnapshotClusters(db, t, query, clustered, arena);
      });
}

std::vector<Convoy> Cmc(const TrajectoryDatabase& db, const ConvoyQuery& query,
                        const CmcOptions& options, DiscoveryStats* stats,
                        const ExecHooks* hooks) {
  if (db.Empty()) return {};
  return CmcRange(db, query, db.BeginTick(), db.EndTick(), options, stats,
                  hooks);
}

std::vector<Convoy> CmcRange(const SnapshotStore& store,
                             const ConvoyQuery& query, Tick begin_tick,
                             Tick end_tick, const CmcOptions& options,
                             DiscoveryStats* stats, const ExecHooks* hooks) {
  TraceSession* const trace = TraceOf(hooks);
  return CmcRangeImpl(
      query, begin_tick, end_tick, options, stats, hooks,
      [&](Tick t, bool* clustered, SnapshotScratch* arena) {
        bool grid_hit = false;
        std::vector<std::vector<ObjectId>> clusters = SnapshotClusters(
            store, t, query, clustered, &arena->dbscan, &grid_hit);
        if (*clustered) {
          TraceCount(trace,
                     grid_hit ? TraceCounter::kGridCacheHits
                              : TraceCounter::kGridCacheMisses,
                     1);
        }
        return clusters;
      });
}

std::vector<Convoy> Cmc(const SnapshotStore& store, const ConvoyQuery& query,
                        const CmcOptions& options, DiscoveryStats* stats,
                        const ExecHooks* hooks) {
  if (store.Empty()) return {};
  return CmcRange(store, query, store.begin_tick(), store.end_tick(), options,
                  stats, hooks);
}

}  // namespace convoy
