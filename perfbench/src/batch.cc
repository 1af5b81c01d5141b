#include "batch.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "live.h"

namespace perfbench {

using convoy::AlgorithmChoice;
using convoy::Convoy;
using convoy::ConvoyEngine;
using convoy::ConvoyQuery;
using convoy::QueryPlan;
using convoy::Tick;

std::vector<Row> RowsOf(const convoy::TrajectoryDatabase& db) {
  std::vector<Row> rows;
  for (const convoy::Trajectory& traj : db.trajectories()) {
    for (const convoy::TimedPoint& p : traj.samples()) {
      rows.push_back(Row{traj.id(), p.t, p.pos.x, p.pos.y});
    }
  }
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.t != b.t ? a.t < b.t : a.id < b.id;
  });
  return rows;
}

convoy::TrajectoryDatabase BuildDatabase(const std::vector<Row>& rows) {
  std::vector<std::vector<convoy::TimedPoint>> samples;
  for (const Row& r : rows) {
    if (r.id >= samples.size()) samples.resize(r.id + 1);
    samples[r.id].emplace_back(r.x, r.y, r.t);
  }
  std::vector<convoy::Trajectory> trajectories;
  for (size_t id = 0; id < samples.size(); ++id) {
    if (samples[id].empty()) continue;
    trajectories.emplace_back(static_cast<convoy::ObjectId>(id),
                              std::move(samples[id]));
  }
  return convoy::TrajectoryDatabase(std::move(trajectories));
}

void QueryLayerSamples::Publish(Report& report) const {
  report.Layer("simplify.ms", Median(simplify_ms), "ms");
  report.Layer("simplify.vertex_reduction_pct", Median(vertex_reduction_pct),
               "%");
  report.Layer("filter.ms", Median(filter_ms), "ms");
  report.Layer("filter.candidates", Median(candidates), "count");
  report.Layer("filter.pair_tests", Median(pair_tests), "count");
  report.Layer("filter.box_pruned_ratio",
               pair_tests_sum > 0 ? box_pruned_sum / pair_tests_sum : 0.0,
               "ratio");
  report.Layer("filter.candidate_yield",
               candidates_sum > 0 ? final_convoys_sum / candidates_sum : 0.0,
               "ratio");
  report.Layer("refine.ms", Median(refine_ms), "ms");
  report.Layer("refine.clusterings", Median(refine_clusterings), "count");
  report.Layer("plan.prepare_ms", Median(prepare_ms), "ms");
  report.Layer("plan.execute_ms", Median(execute_ms), "ms");
  const double lookups = static_cast<double>(cache_hits + cache_misses);
  report.Layer("plan.simplify_cache_hit_ratio",
               lookups > 0 ? static_cast<double>(cache_hits) / lookups : 0.0,
               "ratio");
  report.Layer("store.build_ms", Median(store_build_ms), "ms");
  report.Layer("cmc.ms", Median(cmc_ms), "ms");
}

std::vector<Convoy> SplitExecute(const ConvoyEngine& engine,
                                 const QueryPlan& plan, Tracer& tracer,
                                 uint64_t parent, uint64_t query_id,
                                 QueryLayerSamples* samples) {
  const convoy::TrajectoryDatabase& db = engine.db();
  const ConvoyQuery& query = plan.query;
  const size_t threads =
      convoy::ResolveWorkerThreads(plan.filter.num_threads, query);
  ScopedSpan split(tracer, "split", parent, query_id);

  double t0 = NowSeconds();
  std::vector<convoy::SimplifiedTrajectory> simplified;
  {
    ScopedSpan span(tracer, "simplify", split.id(), query_id);
    simplified = convoy::SimplifyDatabase(db, plan.delta,
                                          plan.filter.simplifier, threads);
  }
  const double simplify_ms = MsSince(t0);
  const double reduction = convoy::VertexReductionPercent(db, simplified);

  convoy::DiscoveryStats filter_stats;
  const std::shared_ptr<const convoy::SnapshotStore> store = engine.PeekStore();
  t0 = NowSeconds();
  convoy::CutsFilterResult filtered;
  {
    ScopedSpan span(tracer, "filter", split.id(), query_id);
    filtered = convoy::CutsFilterPresimplified(
        db, query, plan.filter, std::move(simplified), plan.delta,
        &filter_stats, nullptr, store.get());
  }
  const double filter_ms = MsSince(t0);

  convoy::DiscoveryStats refine_stats;
  const size_t refine_threads =
      convoy::ResolveWorkerThreads(plan.filter.refine_threads, query);
  t0 = NowSeconds();
  std::vector<Convoy> refined;
  {
    ScopedSpan span(tracer, "refine", split.id(), query_id);
    refined = convoy::CutsRefine(db, query, filtered.candidates,
                                 plan.filter.refine_mode, &refine_stats,
                                 refine_threads);
  }
  const double refine_ms = MsSince(t0);
  // CutsRefine drops its per-run clustering counts when it runs on more than
  // one thread; count them on an untimed single-threaded re-run.
  if (samples != nullptr && refine_threads > 1) {
    refine_stats = convoy::DiscoveryStats();
    convoy::CutsRefine(db, query, filtered.candidates, plan.filter.refine_mode,
                       &refine_stats, 1);
  }

  if (samples != nullptr) {
    samples->simplify_ms.push_back(simplify_ms);
    samples->vertex_reduction_pct.push_back(reduction);
    samples->filter_ms.push_back(filter_ms);
    samples->candidates.push_back(
        static_cast<double>(filtered.candidates.size()));
    samples->pair_tests.push_back(
        static_cast<double>(filter_stats.polyline_pair_tests));
    samples->pair_tests_sum +=
        static_cast<double>(filter_stats.polyline_pair_tests);
    samples->box_pruned_sum +=
        static_cast<double>(filter_stats.polyline_box_pruned);
    samples->candidates_sum += static_cast<double>(filtered.candidates.size());
    samples->final_convoys_sum += static_cast<double>(refined.size());
    samples->refine_ms.push_back(refine_ms);
    samples->refine_clusterings.push_back(
        static_cast<double>(refine_stats.num_clusterings));
  }
  return refined;
}

namespace {

constexpr double kNotRun = std::numeric_limits<double>::infinity();

/// One batch workload's shape.
struct BatchShape {
  convoy::ScenarioConfig scenario;
  size_t query_threads = 1;
  /// Queries per pass; the first runs at the preset's (m, k), the rest walk
  /// the grid below at the pass's e.
  size_t queries_per_pass = 5;
  /// Passes whose queries the correctness gate re-checks after timing.
  size_t verified_passes = 2;
  /// query_ms.tail's percentile, fixed per workload so runs stay comparable;
  /// an untraced run continues past its deadline until the percentile has
  /// ten samples beyond it.
  double tail_percentile = 90.0;
  /// Live-layer probe: how many leading ticks of the archive are replayed
  /// as a feed in the traced run.
  Tick probe_ticks = 256;
  /// Rounds over the run's datasets. With 1, every pass opens a new dataset
  /// until the deadline. With R > 1, the run opens a fixed set of datasets
  /// and sweeps each of them R times, rounds spread over the whole run, and
  /// a query's latency is its best of R: a host slow period of a few seconds
  /// then slows one round, not the figure.
  size_t rounds = 1;
  /// With rounds > 1: passes this host makes per second, which sizes the
  /// set of datasets so that R rounds take about --seconds.
  double passes_per_second = 0.0;
  /// Keep freed heap between passes (KeepFreedHeap) instead of trimming it.
  bool keep_heap = false;
};

BatchShape ShapeFor(const RunOptions& options) {
  BatchShape shape;
  if (options.workload == "archive_fleet") {
    shape.scenario = convoy::CarLikeConfig(options.tiny ? 0.05 : 0.25);
    shape.scenario.num_objects = options.tiny ? 300 : 4000;
    shape.query_threads = 2;
  } else {
    // A quarter of the preset's default time scale: one herd's query cost
    // varies 4x with how its 13 animals happened to group, so a run covers
    // about a hundred herds of T=5.5k ticks rather than a few dozen of 22k.
    shape.scenario = convoy::CattleLikeConfig(options.tiny ? 0.01 : 0.03125);
    shape.query_threads = 1;
    shape.probe_ticks = 2048;
    shape.rounds = 3;
    shape.passes_per_second = 7.5;
    // Each pass allocates and frees its herd's working set. Returned to the
    // kernel, it is faulted back in on the next pass: ~2000 faults of ~2 us
    // per pass on the VM measured, slower when the host is short of memory.
    shape.keep_heap = true;
  }
  if (options.tiny) {
    shape.queries_per_pass = 3;
    shape.verified_passes = 1;
    shape.tail_percentile = 75.0;
    shape.probe_ticks = std::min<Tick>(shape.probe_ticks, 128);
    shape.rounds = std::min<size_t>(shape.rounds, 2);
  }
  // The per-layer metrics have no bound; a traced run, which also runs an
  // untraced twin of every query, stays within its deadline instead.
  if (options.trace) shape.rounds = 1;
  return shape;
}

/// The q-th (q < 5) query of a pass at range e: (m0, k0), (m0+1, k0),
/// (m0, 3k0/2), (m0+1, 3k0/2), (m0, 2k0).
ConvoyQuery PassQuery(const ConvoyQuery& base, double e, size_t q,
                      size_t threads) {
  static const size_t kExtraM[] = {0, 1, 0, 1, 0};
  static const Tick kHalfK[] = {2, 2, 3, 3, 4};
  ConvoyQuery query = base;
  query.e = e;
  query.num_threads = threads;
  query.m = base.m + kExtraM[q];
  query.k = base.k * kHalfK[q] / 2;
  return query;
}

/// The archive of a run's `dataset`-th dataset: the passes of a run analyse
/// many generated datasets, so one run's figures average over them instead
/// of depending on the layout of one.
std::vector<Row> PassRows(const BatchShape& shape, uint64_t seed,
                          size_t dataset, ConvoyQuery* query) {
  const convoy::ScenarioData data = convoy::GenerateScenario(
      shape.scenario, seed * 0x9e3779b97f4a7c15ULL + dataset);
  *query = data.query;
  return RowsOf(data.db);
}

/// A timed query whose result the gate re-checks.
struct VerifiedQuery {
  QueryPlan plan;
  std::vector<Convoy> result;
};

/// The gate over the verified passes' queries. Returns the number of CMC
/// convoys the planned results missed (measured, not gated).
size_t Verify(const BatchShape& shape, uint64_t seed,
              const std::vector<std::vector<VerifiedQuery>>& passes,
              Report& report, QueryLayerSamples& layers) {
  Tracer untraced(false);
  size_t reference_total = 0, missed = 0, queries = 0;
  for (size_t pass = 0; pass < passes.size(); ++pass) {
    ConvoyQuery base;
    const ConvoyEngine engine(
        BuildDatabase(PassRows(shape, seed, pass, &base)));
    const std::shared_ptr<const convoy::SnapshotStore> store =
        engine.Store(shape.query_threads);
    for (const VerifiedQuery& v : passes[pass]) {
      ++queries;
      const ConvoyQuery& q = v.plan.query;
      std::ostringstream label;
      label << "pass " << pass << " query (m=" << q.m << " k=" << q.k
            << " e=" << q.e << ")";

      const double t0 = NowSeconds();
      const std::vector<Convoy> cmc = convoy::Cmc(*store, q);
      layers.cmc_ms.push_back(MsSince(t0));
      reference_total += cmc.size();

      // 1. Soundness: every planned convoy is covered by a CMC convoy.
      const size_t unsound = convoy::Uncovered(v.result, cmc).size();
      if (unsound > 0) {
        report.GateFailure(label.str() + ": " + std::to_string(unsound) +
                           " planned convoy(s) not covered by any CMC convoy");
      }
      // Misses of the projected refine are measured, not gated.
      missed += convoy::Uncovered(cmc, v.result).size();

      // 2. CuTS* with full-window refinement equals CMC.
      convoy::CutsFilterOptions full;
      full.refine_mode = convoy::RefineMode::kFullWindow;
      const auto full_plan =
          engine.Prepare(q, AlgorithmChoice::kCutsStar, full);
      const auto full_result =
          full_plan.ok() ? engine.Execute(*full_plan)
                         : convoy::StatusOr<convoy::ConvoyResultSet>(
                               full_plan.status());
      if (!full_result.ok() ||
          !convoy::SameResultSet(full_result->convoys(), cmc)) {
        report.GateFailure(label.str() +
                           ": CuTS* full-window result differs from CMC");
      }

      // 3. The split pipeline equals Execute (CuTS-family plans only).
      if (v.plan.algorithm == convoy::AlgorithmId::kCutsStar &&
          !convoy::SameResultSet(
              SplitExecute(engine, v.plan, untraced, 0, queries, nullptr),
              v.result)) {
        report.GateFailure(label.str() +
                           ": simplify->filter->refine differs from Execute");
      }
    }
  }
  std::ostringstream note;
  note << "missed_convoys = " << missed << " of " << reference_total
       << " CMC convoys over " << queries << " verified queries";
  report.Note(note.str());
  return missed;
}

}  // namespace

int RunBatch(const RunOptions& options, Report& report) {
  const BatchShape shape = ShapeFor(options);
  const unsigned nproc = std::thread::hardware_concurrency();
  if (nproc != 0 && shape.query_threads > nproc) {
    report.GateFailure(options.workload + " needs " +
                       std::to_string(shape.query_threads) +
                       " query threads but nproc is " + std::to_string(nproc));
    return 1;
  }
  Tracer tracer(options.trace);
  if (shape.keep_heap) KeepFreedHeap();

  // Per dataset, its best set-up time over the rounds; per query of the run
  // (dataset x query of the sweep), its best time over the rounds. A query
  // that failed keeps +inf and is left out.
  std::vector<double> setup_s;
  std::vector<double> best_ms;         // untraced queries
  std::vector<double> traced_best_ms;  // their traced twins (trace run only)
  std::vector<double> dataset_rows;
  std::vector<std::vector<VerifiedQuery>> verified(shape.verified_passes);
  QueryLayerSamples layers;
  uint64_t query_id = 0;
  std::vector<double> pass_peak_rss_mb;
  size_t total_rows = 0;

  struct TimedQuery {
    convoy::StatusOr<QueryPlan> plan = convoy::Status::Internal("not run");
    convoy::StatusOr<convoy::ConvoyResultSet> result =
        convoy::Status::Internal("not run");
    double prepare_ms = 0.0, total_ms = 0.0;
  };
  const auto run_query = [](const ConvoyEngine& engine, const ConvoyQuery& query,
                            Tracer& t, uint64_t parent, uint64_t id) {
    TimedQuery q;
    ScopedSpan query_span(t, "query", parent, id);
    const double t0 = NowSeconds();
    {
      ScopedSpan span(t, "prepare", query_span.id(), id);
      q.plan = engine.Prepare(query, AlgorithmChoice::kAuto);
    }
    q.prepare_ms = MsSince(t0);
    if (q.plan.ok()) {
      ScopedSpan span(t, "execute", query_span.id(), id);
      q.result = engine.Execute(*q.plan);
    } else {
      q.result = q.plan.status();
    }
    q.total_ms = MsSince(t0);
    return q;
  };

  const size_t min_samples =
      options.trace ? 0 : SamplesForTail(shape.tail_percentile);
  // With rounds > 1 the run's work is fixed: `datasets` datasets, each swept
  // once per round, about --seconds on this host. With one round, passes go
  // on until the deadline, each over a new dataset.
  size_t datasets = 0;
  if (shape.rounds > 1) {
    datasets = std::max<size_t>(
        {shape.verified_passes,
         (min_samples + shape.queries_per_pass - 1) / shape.queries_per_pass,
         static_cast<size_t>(options.seconds * shape.passes_per_second /
                             static_cast<double>(shape.rounds))});
  }
  const auto more_passes = [&](double deadline, size_t pass) {
    if (shape.rounds > 1) return pass < datasets * shape.rounds;
    return NowSeconds() < deadline || pass < shape.verified_passes ||
           pass * shape.queries_per_pass < min_samples;
  };
  const double deadline = NowSeconds() + options.seconds;
  size_t pass = 0;
  for (; more_passes(deadline, pass); ++pass) {
    const size_t dataset = shape.rounds > 1 ? pass % datasets : pass;
    ResetPeakRss();
    ConvoyQuery base;
    const std::vector<Row> rows =
        PassRows(shape, options.seed, dataset, &base);
    total_rows += rows.size();
    if (dataset == dataset_rows.size()) {
      dataset_rows.push_back(static_cast<double>(rows.size()));
      setup_s.push_back(kNotRun);
      best_ms.resize(best_ms.size() + shape.queries_per_pass, kNotRun);
      traced_best_ms.resize(best_ms.size(), kNotRun);
    }
    ScopedSpan pass_span(tracer, "pass", 0, pass);

    double t0 = NowSeconds();
    std::unique_ptr<ConvoyEngine> engine;
    double store_ms = 0.0;
    {
      ScopedSpan span(tracer, "setup", pass_span.id(), 0);
      {
        ScopedSpan db_span(tracer, "setup.database", span.id(), 0);
        engine = std::make_unique<ConvoyEngine>(BuildDatabase(rows));
      }
      const double ts = NowSeconds();
      ScopedSpan store_span(tracer, "setup.store", span.id(), 0);
      engine->Store(shape.query_threads);
      store_ms = MsSince(ts);
    }
    setup_s[dataset] = std::min(setup_s[dataset], NowSeconds() - t0);
    layers.store_build_ms.push_back(store_ms);
    // The traced run measures the tracing overhead on the same data: a twin
    // engine over the same rows runs every query untraced, in alternating
    // order with the traced engine, so both see the same cache states.
    std::unique_ptr<ConvoyEngine> twin;
    if (options.trace) {
      twin = std::make_unique<ConvoyEngine>(BuildDatabase(rows));
      twin->Store(shape.query_threads);
    }

    // Each pass sweeps at a fresh e near the preset's. The range walks a
    // fixed ladder rather than a random draw: query cost rises steeply with
    // e, and a ladder gives every run the same mix of ranges.
    static const double kEScale[] = {0.95, 0.975, 1.0, 1.025, 1.05};
    const double e = base.e * kEScale[dataset % 5];
    Tracer off(false);
    for (size_t q = 0; q < shape.queries_per_pass; ++q) {
      ConvoyQuery query = PassQuery(base, e, q, shape.query_threads);
      ++query_id;
      // Self-test: one query with m = 1, which Prepare rejects.
      if (options.corrupt == "fail_query" && query_id == 1) query.m = 1;
      report.Attempted(1);
      TimedQuery run, twin_run;
      if (twin != nullptr && q % 2 == 0) {
        twin_run = run_query(*twin, query, off, 0, query_id);
      }
      run = run_query(*engine, query, tracer, pass_span.id(), query_id);
      if (twin != nullptr && q % 2 == 1) {
        twin_run = run_query(*twin, query, off, 0, query_id);
      }
      if (!run.result.ok() || (twin != nullptr && !twin_run.result.ok())) {
        report.Failed(1);
        continue;
      }
      const size_t slot = dataset * shape.queries_per_pass + q;
      best_ms[slot] = std::min(
          best_ms[slot], twin != nullptr ? twin_run.total_ms : run.total_ms);
      if (twin != nullptr) {
        traced_best_ms[slot] = std::min(traced_best_ms[slot], run.total_ms);
        layers.prepare_ms.push_back(run.prepare_ms);
        layers.execute_ms.push_back(run.total_ms - run.prepare_ms);
        if (run.plan->algorithm == convoy::AlgorithmId::kCutsStar) {
          SplitExecute(*engine, *run.plan, tracer, pass_span.id(), query_id,
                       &layers);
        }
      }
      if (pass < shape.verified_passes) {
        verified[pass].push_back(
            VerifiedQuery{*run.plan, run.result->convoys()});
      }
    }
    const convoy::EngineStoreMetrics metrics = engine->StoreMetrics();
    layers.cache_hits += metrics.simplify_cache_hits;
    layers.cache_misses += metrics.simplify_cache_misses;
    pass_peak_rss_mb.push_back(PeakRssMb());
  }
  {
    std::ostringstream note;
    note << options.workload << ": " << shape.scenario.name
         << " N=" << shape.scenario.num_objects
         << " T=" << shape.scenario.time_domain << ", " << pass
         << " passes over " << dataset_rows.size()
         << " distinct datasets of " << total_rows / pass
         << " rows on average (" << shape.rounds << " round(s), best of "
         << shape.rounds << " per query), " << shape.queries_per_pass
         << " kAuto queries per pass at " << shape.query_threads
         << " thread(s)";
    report.Note(note.str());
  }

  // The queries that ran, at their best over the rounds.
  std::vector<double> query_ms, traced_query_ms;
  double rows_queried = 0.0;
  for (size_t slot = 0; slot < best_ms.size(); ++slot) {
    if (best_ms[slot] == kNotRun) continue;
    query_ms.push_back(best_ms[slot]);
    if (traced_best_ms[slot] != kNotRun) {
      traced_query_ms.push_back(traced_best_ms[slot]);
    }
    rows_queried += dataset_rows[slot / shape.queries_per_pass];
  }
  report.EndToEnd("setup_s", Median(setup_s), "s");
  LatencyMetrics(report, "query_ms", query_ms, shape.tail_percentile,
                 /*end_to_end=*/true);
  // Archive rows each planned query covers, per second of query time.
  double total_query_s = 0.0;
  for (const double ms : query_ms) total_query_s += ms / 1e3;
  report.EndToEnd("rows_per_s",
                  total_query_s > 0 ? rows_queried / total_query_s : 0.0,
                  "1/s");
  report.EndToEnd("peak_rss_mb", Median(pass_peak_rss_mb), "MB");
  {
    std::ostringstream note;
    note << "setup samples = " << setup_s.size()
         << ", query samples = " << query_ms.size() << " (best of "
         << shape.rounds << " each)";
    report.Note(note.str());
  }

  if (options.corrupt == "drop_convoy") {
    bool dropped = false;
    for (auto& queries : verified) {
      for (VerifiedQuery& v : queries) {
        if (!dropped && !v.result.empty()) {
          v.result.pop_back();
          dropped = true;
          report.Note("corrupt: dropped one convoy from a planned result");
        }
      }
    }
  }
  const size_t missed = Verify(shape, options.seed, verified, report, layers);

  report.Layer("missed_convoys", static_cast<double>(missed), "count");
  if (options.trace) {
    // Traced and untraced twins ran the same queries on the same data.
    const double untraced = Median(query_ms);
    report.Layer("trace.overhead_pct",
                 untraced > 0
                     ? 100.0 * (Median(traced_query_ms) - untraced) / untraced
                     : 0.0,
                 "%");
    layers.Publish(report);
    // Layers off this workload's path, measured on its own data: the first
    // archive's leading ticks replayed as a live feed.
    ConvoyQuery base;
    const std::vector<Row> rows = PassRows(shape, options.seed, 0, &base);
    ProbeLiveLayers(options, FeedFromRows(rows, shape.probe_ticks, 64, base),
                    report);
    tracer.Dump(options.work_dir + "/spans.jsonl");
  }
  return 0;
}

}  // namespace perfbench
