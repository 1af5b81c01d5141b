#ifndef CONVOY_CORE_CUTS_REFINE_H_
#define CONVOY_CORE_CUTS_REFINE_H_

#include <vector>

#include "core/candidate.h"
#include "core/convoy_set.h"
#include "core/discovery_stats.h"
#include "core/exec_hooks.h"
#include "traj/database.h"

namespace convoy {

/// How the refinement step verifies candidates.
enum class RefineMode {
  /// Paper Algorithm 3: per candidate, run exact CMC over the *candidate's
  /// objects only*, restricted to the candidate's time interval. Fast, and
  /// what the paper benchmarks. Sound (never reports a false convoy), but in
  /// rare adversarial inputs a convoy whose density chain passes through an
  /// object outside the candidate's intersection set can be missed (see
  /// DESIGN.md).
  kProjected,

  /// Exact mode: merge the candidates' time intervals into disjoint windows
  /// and run full-database CMC over each window. Guarantees result-set
  /// equality with CMC on every input; degrades toward CMC's cost when the
  /// filter is ineffective (huge windows), which is the correct trade-off.
  kFullWindow,
};

/// The refinement step of CuTS (paper Algorithm 3): trims the filter's
/// candidate convoys down to actual convoys with exact CMC runs, then
/// merges, deduplicates and dominance-prunes into the final convoy set.
///
/// `threads` > 1 refines candidates (projected mode) or merged windows
/// (full-window mode) concurrently; each unit of work is independent, so
/// the merged result is identical to the sequential one (property-tested).
/// The nested CMC runs are single-threaded whatever query.num_threads says,
/// and `stats` (optional) counts their clusterings at every thread count.
///
/// `hooks` (optional, core/exec_hooks.h) adds a cancellation check per
/// refinement unit, per-unit "refine" progress, and incremental emission:
/// each unit's verified convoys are handed to the sink in unit order as
/// soon as the unit completes — callers consume convoys while later units
/// are still refining instead of waiting for full materialization. The
/// returned (materialized) result is unaffected.
std::vector<Convoy> CutsRefine(const TrajectoryDatabase& db,
                               const ConvoyQuery& query,
                               const std::vector<Candidate>& candidates,
                               RefineMode mode = RefineMode::kProjected,
                               DiscoveryStats* stats = nullptr,
                               size_t threads = 1,
                               const ExecHooks* hooks = nullptr);

}  // namespace convoy

#endif  // CONVOY_CORE_CUTS_REFINE_H_
