#include "core/params.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "simplify/douglas_peucker.h"
#include "simplify/simplifier.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace convoy {
namespace {

Trajectory RandomWalk(Rng& rng, ObjectId id, Tick ticks) {
  Trajectory traj(id);
  Point pos(0, 0);
  for (Tick t = 0; t < ticks; ++t) {
    traj.Append(pos.x, pos.y, t);
    pos = pos + Point(rng.Gaussian(0.5, 1.0), rng.Gaussian(0, 1.0));
  }
  return traj;
}

TEST(DeltaPickTest, DegenerateTrajectoryFallsBackToHalfE) {
  Trajectory traj(0);
  traj.Append(0, 0, 0);
  traj.Append(1, 0, 1);
  EXPECT_DOUBLE_EQ(DeltaPickForTrajectory(traj, 10.0), 5.0);
}

TEST(DeltaPickTest, PickIsBelowE) {
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    const Trajectory traj = RandomWalk(rng, 0, 120);
    const double e = 4.0;
    const double pick = DeltaPickForTrajectory(traj, e);
    EXPECT_GE(pick, 0.0);
    EXPECT_LT(pick, e);
  }
}

TEST(DeltaPickTest, LargestGapRuleMatchesManualApplication) {
  // The pick must equal the Section 7.4 rule applied by hand to the
  // recorded division-step deviations: among ascending deviations below e,
  // take the lower endpoint of the largest adjacent gap.
  Rng rng(77);
  for (int iter = 0; iter < 10; ++iter) {
    const Trajectory traj = RandomWalk(rng, 0, 100);
    const double e = 6.0;
    const std::vector<double> devs = CollectSplitDeviations(traj);
    std::vector<double> eligible;
    for (const double d : devs) {
      if (d < e) eligible.push_back(d);
    }
    if (eligible.size() < 2) continue;
    size_t best = 0;
    double best_gap = -1.0;
    for (size_t i = 0; i + 1 < eligible.size(); ++i) {
      if (eligible[i + 1] - eligible[i] > best_gap) {
        best_gap = eligible[i + 1] - eligible[i];
        best = i;
      }
    }
    EXPECT_DOUBLE_EQ(DeltaPickForTrajectory(traj, e), eligible[best]);
  }
}

TEST(ComputeDeltaTest, EmptyDatabase) {
  EXPECT_DOUBLE_EQ(ComputeDelta(TrajectoryDatabase(), 8.0), 4.0);
}

TEST(ComputeDeltaTest, DeterministicForFixedSeed) {
  Rng rng(9);
  TrajectoryDatabase db;
  for (ObjectId i = 0; i < 20; ++i) db.Add(RandomWalk(rng, i, 80));
  EXPECT_DOUBLE_EQ(ComputeDelta(db, 5.0, 0.2, 42),
                   ComputeDelta(db, 5.0, 0.2, 42));
}

TEST(ComputeDeltaTest, ResultBoundedByE) {
  Rng rng(10);
  TrajectoryDatabase db;
  for (ObjectId i = 0; i < 10; ++i) db.Add(RandomWalk(rng, i, 100));
  for (const double e : {1.0, 4.0, 16.0}) {
    const double delta = ComputeDelta(db, e);
    EXPECT_GT(delta, 0.0);
    EXPECT_LE(delta, e);
  }
}

TEST(ComputeDeltaTest, SampleFractionClampedToAtLeastOne) {
  Rng rng(11);
  TrajectoryDatabase db;
  db.Add(RandomWalk(rng, 0, 50));
  // 10% of 1 object rounds up to 1 trajectory sampled.
  EXPECT_GT(ComputeDelta(db, 5.0, 0.1), 0.0);
}

TEST(ComputeDeltaTest, ThreadCountInvariant) {
  // The per-trajectory picks run on the workers but are summed in sample
  // order, so delta is bit-identical at every thread count.
  const auto expect_invariant = [](const TrajectoryDatabase& db, double e,
                                   double sample_fraction) {
    const double serial = ComputeDelta(db, e, sample_fraction, 42, 1);
    for (const size_t threads : {2u, 8u}) {
      EXPECT_EQ(std::bit_cast<uint64_t>(
                    ComputeDelta(db, e, sample_fraction, 42, threads)),
                std::bit_cast<uint64_t>(serial))
          << threads << " threads, sample fraction " << sample_fraction;
    }
    return serial;
  };

  // Walks at step scales spanning 1:31, so the picks differ in magnitude
  // and a reordered sum would change delta's low bits.
  Rng rng(12);
  TrajectoryDatabase random_db;
  for (ObjectId i = 0; i < 60; ++i) {
    const double scale = 0.05 * static_cast<double>(1 + (i * 7) % 31);
    Trajectory walk(i);
    Point pos(0, 0);
    for (Tick t = 0; t < 90; ++t) {
      walk.Append(pos.x, pos.y, t);
      pos = pos + Point(scale * rng.Gaussian(0.5, 1.0),
                        scale * rng.Gaussian(0, 1.0));
    }
    random_db.Add(walk);
  }
  expect_invariant(random_db, 5.0, 0.5);

  // Two of every three trajectories have fewer than 3 points, so the
  // sample walk skips some; the rest still contribute real picks.
  TrajectoryDatabase mixed_db;
  for (ObjectId i = 0; i < 45; ++i) {
    mixed_db.Add(RandomWalk(rng, i, i % 3 == 0 ? 80 : 1 + i % 2));
  }
  EXPECT_NE(expect_invariant(mixed_db, 5.0, 0.5), 2.5);

  // A sample of one trajectory: one worker at most, whatever is asked.
  TrajectoryDatabase single_db;
  for (ObjectId i = 0; i < 5; ++i) single_db.Add(RandomWalk(rng, i, 70));
  expect_invariant(single_db, 5.0, 0.1);
}

TEST(ComputeLambdaTest, EmptyDatabase) {
  EXPECT_EQ(ComputeLambda(TrajectoryDatabase(), {}), 2);
}

TEST(ComputeLambdaTest, FullLifetimeDenseTrajectories) {
  // Every object alive the whole domain (tau = T): lambda is the average
  // lambda_1 = ratio * tau = |o'| (the simplified vertex count), uncorrected
  // (see params.h for why the paper's correction is skipped when tau = T).
  Rng rng(12);
  TrajectoryDatabase db;
  for (ObjectId i = 0; i < 5; ++i) db.Add(RandomWalk(rng, i, 100));
  const auto simp = SimplifyDatabase(db, 1.0, SimplifierKind::kDp);
  double expected = 0.0;
  for (const auto& s : simp) expected += static_cast<double>(s.NumVertices());
  expected /= static_cast<double>(simp.size());
  EXPECT_EQ(ComputeLambda(db, simp),
            static_cast<Tick>(std::llround(expected)));
}

TEST(ComputeLambdaTest, CappedByQueryLifetime) {
  // With k given, lambda never exceeds k/4: partitions longer than the
  // query lifetime would let every single-partition cluster qualify.
  Rng rng(21);
  TrajectoryDatabase db;
  for (ObjectId i = 0; i < 5; ++i) db.Add(RandomWalk(rng, i, 400));
  const auto simp = SimplifyDatabase(db, 50.0, SimplifierKind::kDp);
  EXPECT_LE(ComputeLambda(db, simp, /*k=*/40), 10);
  EXPECT_GE(ComputeLambda(db, simp, /*k=*/40), 2);
}

TEST(ComputeLambdaTest, ShortTrajectoriesGiveLargerLambda) {
  // Objects alive for a small fraction of the domain: lambda grows with
  // the survival ratio |o'|/|o| and the lifetime.
  Rng rng(13);
  TrajectoryDatabase db;
  for (ObjectId i = 0; i < 8; ++i) {
    Trajectory traj = RandomWalk(rng, i, 50);
    // Re-home the 50-tick trajectory inside a 1000-tick domain.
    Trajectory shifted(i);
    const Tick offset = rng.UniformInt(0, 950);
    for (const TimedPoint& p : traj.samples()) {
      shifted.Append(p.pos.x, p.pos.y, p.t + offset);
    }
    db.Add(std::move(shifted));
  }
  // Pin the domain to [0, 999] with two sentinel objects.
  Trajectory lo(100);
  lo.Append(0, 0, 0);
  lo.Append(1, 1, 1);
  Trajectory hi(101);
  hi.Append(0, 0, 998);
  hi.Append(1, 1, 999);
  db.Add(std::move(lo));
  db.Add(std::move(hi));

  const auto simp = SimplifyDatabase(db, 0.5, SimplifierKind::kDp);
  const Tick lambda = ComputeLambda(db, simp);
  EXPECT_GE(lambda, 2);
  EXPECT_LE(lambda, 1000);
}

TEST(ComputeLambdaTest, ClampedToDomain) {
  TrajectoryDatabase db;
  Trajectory t0(0);
  t0.Append(0, 0, 0);
  t0.Append(5, 0, 1);
  t0.Append(5, 7, 2);
  db.Add(std::move(t0));
  const auto simp = SimplifyDatabase(db, 0.0, SimplifierKind::kDp);
  const Tick lambda = ComputeLambda(db, simp);
  EXPECT_GE(lambda, 2);
  EXPECT_LE(lambda, 3);
}

TEST(ComputeLambdaTest, HigherReductionGivesSmallerLambda) {
  // More aggressive simplification -> fewer surviving vertices -> shorter
  // partitions are pointless, so lambda tracks the survival ratio.
  Rng rng(22);
  TrajectoryDatabase db;
  for (ObjectId i = 0; i < 6; ++i) db.Add(RandomWalk(rng, i, 300));
  const auto fine = SimplifyDatabase(db, 0.2, SimplifierKind::kDp);
  const auto coarse = SimplifyDatabase(db, 20.0, SimplifierKind::kDp);
  EXPECT_GE(ComputeLambda(db, fine), ComputeLambda(db, coarse));
}

}  // namespace
}  // namespace convoy
