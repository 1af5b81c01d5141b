#include "core/params.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "parallel/parallel_for.h"
#include "simplify/douglas_peucker.h"
#include "util/random.h"

namespace convoy {

double DeltaPickForTrajectory(const Trajectory& traj, double e) {
  std::vector<double> deviations = CollectSplitDeviations(traj);
  // Keep only deviations below the query range; larger tolerances collapse
  // the search bounds (Section 7.4 observes filtering power degrades when
  // the pick exceeds e).
  std::vector<double> eligible;
  for (const double d : deviations) {
    if (d < e) eligible.push_back(d);
  }
  if (eligible.size() < 2) return e / 2.0;
  // Largest variance between adjacent (sorted) tolerances; pick the smaller
  // endpoint of that gap.
  size_t best = 0;
  double best_gap = -1.0;
  for (size_t i = 0; i + 1 < eligible.size(); ++i) {
    const double gap = eligible[i + 1] - eligible[i];
    if (gap > best_gap) {
      best_gap = gap;
      best = i;
    }
  }
  return eligible[best];
}

double ComputeDelta(const TrajectoryDatabase& db, double e,
                    double sample_fraction, uint64_t seed,
                    size_t num_threads) {
  if (db.Empty()) return e / 2.0;
  const size_t n = db.Size();
  size_t sample = static_cast<size_t>(
      std::ceil(sample_fraction * static_cast<double>(n)));
  sample = std::clamp<size_t>(sample, 1, n);

  Rng rng(seed);
  const std::vector<size_t> order = rng.Permutation(n);

  std::vector<size_t> sampled;
  sampled.reserve(sample);
  for (size_t i = 0; i < n && sampled.size() < sample; ++i) {
    if (db[order[i]].Size() < 3) continue;  // nothing to learn from
    sampled.push_back(order[i]);
  }
  if (sampled.empty()) return e / 2.0;

  const size_t threads =
      std::min(ResolveThreadCount(num_threads), sampled.size());
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  const std::vector<double> picks =
      ParallelMap(pool ? &*pool : nullptr, sampled.size(), [&](size_t i) {
        return DeltaPickForTrajectory(db[sampled[i]], e);
      });
  // Summed in sample order, as the serial loop would.
  double sum = 0.0;
  for (const double pick : picks) sum += pick;
  return sum / static_cast<double>(picks.size());
}

Tick ComputeLambda(const TrajectoryDatabase& db,
                   const std::vector<SimplifiedTrajectory>& simplified,
                   Tick k) {
  const DatabaseStats stats = db.Stats();
  const double domain = static_cast<double>(stats.time_domain_length);
  if (domain <= 0.0) return 2;

  double sum = 0.0;
  size_t used = 0;
  for (size_t i = 0; i < db.Size() && i < simplified.size(); ++i) {
    const Trajectory& traj = db[i];
    if (traj.Size() < 2) continue;
    const double tau = static_cast<double>(traj.DurationTicks());
    const double ratio = static_cast<double>(simplified[i].NumVertices()) /
                         static_cast<double>(traj.Size());
    const double lambda1 = ratio * tau;
    double lambda_o = lambda1;
    if (tau < domain) {
      // Endpoint-probability correction for objects appearing/disappearing
      // inside the domain (see the header for why full-lifetime objects
      // are exempt).
      lambda_o = lambda1 - (lambda1 - 2.0) * tau / domain;
    }
    sum += lambda_o;
    ++used;
  }
  if (used == 0) return 2;
  const double lambda = sum / static_cast<double>(used);
  const double hi =
      k > 0 ? std::max(2.0, static_cast<double>(k) / 4.0) : domain;
  const double clamped = std::clamp(lambda, 2.0, hi);
  return static_cast<Tick>(std::llround(clamped));
}

}  // namespace convoy
