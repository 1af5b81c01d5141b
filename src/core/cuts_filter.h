#ifndef CONVOY_CORE_CUTS_FILTER_H_
#define CONVOY_CORE_CUTS_FILTER_H_

#include <vector>

#include "cluster/polyline_dbscan.h"
#include "core/candidate.h"
#include "core/convoy_set.h"
#include "core/cuts_refine.h"
#include "core/discovery_stats.h"
#include "core/exec_hooks.h"
#include "simplify/simplifier.h"
#include "traj/database.h"

namespace convoy {

/// Tuning knobs of the CuTS filter step (paper Algorithm 2). The variant
/// table of Section 6 maps onto `simplifier` + `distance`:
///
///   CuTS   = kDp     + kDll
///   CuTS+  = kDpPlus + kDll
///   CuTS*  = kDpStar + kDStar
struct CutsFilterOptions {
  SimplifierKind simplifier = SimplifierKind::kDp;
  SegmentDistanceKind distance = SegmentDistanceKind::kDll;

  /// Simplification tolerance; <= 0 means derive it with ComputeDelta.
  double delta = -1.0;

  /// Time-partition length; <= 0 means derive it with ComputeLambda.
  Tick lambda = -1;

  /// Use per-segment actual tolerances in the range-search bounds (the
  /// paper's Figure 14 optimization). When false the global delta is
  /// charged for every segment — still correct, just looser.
  bool use_actual_tolerance = true;

  /// Apply the Lemma 2 bounding-box pre-test per polyline pair.
  bool use_box_pruning = true;

  /// Generate neighbor candidates through an STR R-tree over polyline
  /// bounding boxes instead of all-pairs scanning (see
  /// PolylineDbscanOptions::use_rtree). Identical results either way.
  bool use_rtree = false;

  /// How the refinement step verifies candidates (consumed by Cuts(), which
  /// forwards it to CutsRefine). kProjected is the paper's Algorithm 3;
  /// kFullWindow guarantees exact equality with CMC on every input.
  RefineMode refine_mode = RefineMode::kProjected;

  /// Worker threads for the filter phase: database simplification and the
  /// per-partition TRAJ-DBSCAN run concurrently (partitions are balanced
  /// chunks of the time domain) while candidate tracking stays sequential
  /// in partition order, so results are identical for every value.
  /// 0 = inherit ConvoyQuery::num_threads.
  size_t num_threads = 0;

  /// Worker threads for the refinement step (candidates / windows are
  /// independent units of work). Results are identical regardless.
  /// 0 = inherit ConvoyQuery::num_threads.
  size_t refine_threads = 0;
};

/// Resolves a per-phase thread knob against the query-wide default: a
/// positive per-phase value wins, 0 falls back to query.num_threads, where
/// a final 0 means "all hardware threads". Never returns 0.
size_t ResolveWorkerThreads(size_t phase_threads, const ConvoyQuery& query);

/// Output of the filter step: candidate convoys (object sets with the tick
/// span of the partitions that produced them) and the resolved tunables.
struct CutsFilterResult {
  std::vector<Candidate> candidates;
  double delta_used = 0.0;
  Tick lambda_used = 0;
};

/// Runs trajectory simplification and the partition-by-partition
/// TRAJ-DBSCAN candidate generation of Algorithm 2. Every actual convoy is
/// contained in some candidate (no false dismissal — the exactness the
/// Lemma 1/2/3 bounds guarantee); candidates may be larger or spurious and
/// are trimmed by the refinement step.
CutsFilterResult CutsFilter(const TrajectoryDatabase& db,
                            const ConvoyQuery& query,
                            const CutsFilterOptions& options,
                            DiscoveryStats* stats = nullptr);

/// Gathers each object's sub-polyline for the partition
/// [part_start, part_end]: the simplified segments whose time intervals
/// intersect the partition (a segment spanning a boundary goes into both
/// partitions, as in paper Figure 9(b)). The per-partition unit of work
/// shared by the serial and parallel filter paths.
std::vector<PartitionPolyline> BuildPartitionPolylines(
    const std::vector<SimplifiedTrajectory>& simplified, Tick part_start,
    Tick part_end, bool use_actual_tolerance, double delta_used);

/// Variant that reuses already-simplified trajectories (index-aligned with
/// `db`, produced with `delta_used` and the simplifier matching
/// `options.simplifier`). `ConvoyEngine` uses this to amortize the
/// simplification cost across repeated queries: the filter only reads
/// `simplified`, so the engine's cached set is used in place. `hooks`
/// (optional) adds a cancellation check per time partition — in the
/// parallel clustering lambda and the sequential tracker pass — plus
/// per-partition "filter" progress reports; results are unaffected
/// (core/exec_hooks.h). `store` (optional; must be built from `db`)
/// supplies the precomputed time domain, so partitioning skips the O(N)
/// BeginTick/EndTick rescans; partition boundaries — and results — are
/// identical either way.
class SnapshotStore;
CutsFilterResult CutsFilterPresimplified(
    const TrajectoryDatabase& db, const ConvoyQuery& query,
    const CutsFilterOptions& options,
    const std::vector<SimplifiedTrajectory>& simplified, double delta_used,
    DiscoveryStats* stats = nullptr, const ExecHooks* hooks = nullptr,
    const SnapshotStore* store = nullptr);

}  // namespace convoy

#endif  // CONVOY_CORE_CUTS_FILTER_H_
