#include "live.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

namespace perfbench {

namespace {

using convoy::Convoy;
using convoy::ConvoyQuery;
using convoy::StreamFeed;
using convoy::Tick;
using convoy::server::AckMsg;
using convoy::server::ClientOptions;
using convoy::server::ConvoyClient;
using convoy::server::ConvoyServer;
using convoy::server::EventKind;
using convoy::server::EventMsg;
using convoy::server::PositionReport;

/// StreamingCmc carry-forward the producers open their streams with.
constexpr Tick kCarryForward = 2;
/// Unacked batch frames a producer keeps in flight (convoy_loadgen's
/// default --window).
constexpr size_t kWindow = 4;
/// Producer, subscriber and query connections of one live_fleet epoch.
constexpr size_t kLiveConnections = 4;

std::vector<PositionReport> ToWire(const std::vector<convoy::FeedRow>& rows) {
  std::vector<PositionReport> wire;
  wire.reserve(rows.size());
  for (const convoy::FeedRow& row : rows) {
    wire.push_back(PositionReport{row.id, row.pos.x, row.pos.y});
  }
  return wire;
}

size_t FeedRows(const StreamFeed& feed) {
  size_t n = 0;
  for (const convoy::FeedTick& tick : feed.ticks) n += tick.total_rows;
  return n;
}

/// Replays a feed through a local StreamingCmc: the closed convoys in
/// emission order, and the wall time of each EndTick in microseconds.
std::vector<Convoy> LocalReplay(const StreamFeed& feed,
                                std::vector<double>* tick_us) {
  convoy::StreamingCmc::Options options;
  options.carry_forward_ticks = kCarryForward;
  convoy::StreamingCmc stream(feed.query, options);
  std::vector<Convoy> closed;
  for (const convoy::FeedTick& tick : feed.ticks) {
    const double t0 = NowSeconds();
    stream.BeginTick(tick.tick).IgnoreError();
    for (const auto& batch : tick.batches) {
      for (const convoy::FeedRow& row : batch) {
        stream.Report(row.id, row.pos).IgnoreError();
      }
    }
    auto result = stream.EndTick();
    if (tick_us != nullptr) tick_us->push_back(MsSince(t0) * 1e3);
    if (result.ok()) closed.insert(closed.end(), result->begin(), result->end());
  }
  auto final_result = stream.Finish();
  if (final_result.ok()) {
    closed.insert(closed.end(), final_result->begin(), final_result->end());
  }
  return closed;
}

/// The feed's rows as a database, built the way the server's snapshot does.
convoy::TrajectoryDatabase FeedDatabase(const StreamFeed& feed) {
  std::vector<Row> rows;
  for (const convoy::FeedTick& tick : feed.ticks) {
    for (const auto& batch : tick.batches) {
      for (const convoy::FeedRow& r : batch) {
        rows.push_back(Row{r.id, tick.tick, r.pos.x, r.pos.y});
      }
    }
  }
  return BuildDatabase(rows);
}

/// Reads one counter out of the server's stats JSON (0 when absent).
double StatsCounter(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const size_t at = json.find(key);
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + key.size(), nullptr);
}

/// What the epochs of one run accumulate.
struct LoadTotals {
  LoadTotals() {
    // Room for a long run's samples up front: a vector that doubles midway
    // would free a large block and so change how the allocator serves the
    // server (and each epoch's peak_rss_mb) for the rest of the run.
    tick_latency_ms.reserve(1u << 20);
    adhoc_ms.reserve(1u << 17);
  }
  std::vector<double> setup_s;
  std::vector<double> tick_latency_ms;
  std::vector<double> adhoc_ms;
  std::vector<double> epoch_rows_per_s;
  std::vector<double> peak_rss_mb;
  uint64_t rows_generated = 0;
  uint64_t rows_accepted = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< non-retryable NAKs, kGap events, non-OK queries
  uint64_t retry_naks = 0;
  size_t epochs = 0;
  // server.* / wal.* counters summed over epochs (ring high water: max).
  double batches_rejected = 0.0, ring_high_water = 0.0;
  double events_dropped = 0.0, wal_fsyncs = 0.0;
  /// Failed checks and load errors; each fails the gate.
  std::vector<std::string> errors;
  /// CMC convoys of the post-ingest queries, and how many those missed.
  size_t cmc_reference = 0, missed_convoys = 0;
  /// The first epoch's local StreamingCmc replay: wall time per EndTick.
  std::vector<double> replay_tick_us;
};

/// One producer connection of an epoch.
struct Producer {
  const StreamFeed* feed = nullptr;
  uint64_t stream_id = 0;
  std::unique_ptr<ConvoyClient> client;
  /// EndTick send time per tick (indexed by tick; feeds start at tick 0),
  /// read by the subscriber on kTick.
  std::unique_ptr<std::atomic<double>[]> endtick_sent_s;
  size_t ticks = 0;
  uint64_t rows_accepted = 0, retry_naks = 0, attempted = 0, failed = 0;
  std::string error;
};

/// Removes a directory tree when it goes out of scope.
struct DirRemover {
  std::string path;
  ~DirRemover() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
};

ClientOptions MakeClientOptions(uint64_t seed, uint64_t salt) {
  ClientOptions options;
  options.deadline_ms = 30000;
  options.jitter_seed = seed * 0x9e3779b97f4a7c15ULL + salt;
  return options;
}

/// Streams the producer's feed with a window of unacked batches, resending
/// on retryable NAKs; each tick ends with EndTick, the stream with Finish.
void ProduceLoop(Producer* p, Tracer& tracer, uint64_t parent) {
  ScopedSpan stream_span(tracer, "produce", parent, p->stream_id);
  ConvoyClient& client = *p->client;
  const auto fail = [p](const std::string& what) {
    ++p->failed;
    if (p->error.empty()) p->error = what;
  };
  const auto await_ok = [&](uint64_t seq, bool is_batch,
                            const auto& resend) -> bool {
    for (;;) {
      convoy::StatusOr<AckMsg> ack = client.AwaitAck(seq);
      if (!ack.ok()) {
        fail("AwaitAck: " + ack.status().ToString());
        return false;
      }
      if (ack->code == 0) {
        if (is_batch) p->rows_accepted += ack->accepted;
        return true;
      }
      if (ack->retryable == 0) {
        fail("NAK: " + ack->message);
        return false;
      }
      ++p->retry_naks;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      seq = resend();
    }
  };

  for (size_t ti = 0; ti < p->feed->ticks.size(); ++ti) {
    const convoy::FeedTick& tick = p->feed->ticks[ti];
    ScopedSpan tick_span(tracer, "produce.tick", stream_span.id(),
                         p->stream_id);
    std::vector<std::pair<uint64_t, size_t>> outstanding;  // (seq, batch)
    size_t next_await = 0;
    bool ok = true;
    const auto await_next = [&]() {
      const auto [seq, b] = outstanding[next_await++];
      ok = await_ok(seq, true, [&, b = b] {
        return client.SendBatch(tick.tick, ToWire(tick.batches[b]));
      });
    };
    for (size_t b = 0; b < tick.batches.size() && ok; ++b) {
      ++p->attempted;
      outstanding.emplace_back(
          client.SendBatch(tick.tick, ToWire(tick.batches[b])), b);
      if (outstanding.size() - next_await >= kWindow) await_next();
    }
    while (ok && next_await < outstanding.size()) await_next();
    if (!ok) return;
    ++p->attempted;
    p->endtick_sent_s[static_cast<size_t>(tick.tick)].store(NowSeconds());
    if (!await_ok(client.SendEndTick(tick.tick), false,
                  [&] { return client.SendEndTick(tick.tick); })) {
      return;
    }
  }
  ++p->attempted;
  await_ok(client.SendFinish(), false, [&] { return client.SendFinish(); });
}

/// One epoch: a fresh server with a fresh WAL directory, one producer per
/// feed, one subscriber on every stream, and (optionally) one connection
/// issuing ad-hoc kAuto queries back to back while the producers stream.
/// After the server is shut down the epoch is verified, untimed: each
/// stream's closed-convoy events must equal a local StreamingCmc replay of
/// its feed, and the post-ingest query (`final_queries`) must be sound
/// against CMC; its misses are measured, not gated.
void RunEpoch(const RunOptions& options, const std::vector<StreamFeed>& feeds,
              uint64_t feed_epoch, bool adhoc_queries, bool final_queries,
              Tracer& tracer, LoadTotals& totals) {
  const size_t epoch = totals.epochs++;
  ResetPeakRss();
  ScopedSpan epoch_span(tracer, "epoch", 0, epoch);
  const std::string wal_dir =
      options.work_dir + "/wal-" + std::to_string(epoch);
  std::filesystem::remove_all(wal_dir);
  // Declared before the server, so the directory goes after its shutdown.
  const DirRemover remove_wal{wal_dir};

  convoy::server::ServerOptions server_options;
  server_options.wal_dir = wal_dir;
  server_options.fsync = convoy::wal::FsyncPolicy::kInterval;
  // Deep enough that a subscriber on a shared core never sheds events.
  server_options.subscriber_queue_capacity = 1u << 16;
  ConvoyServer server(server_options);

  // ---- setup: Start (WAL open) + IngestBegin on each stream.
  std::vector<Producer> producers(feeds.size());
  double setup = 0.0;
  {
    ScopedSpan setup_span(tracer, "setup", epoch_span.id(), epoch);
    double t0 = NowSeconds();
    const convoy::Status started = server.Start();
    setup += NowSeconds() - t0;
    if (!started.ok()) {
      totals.errors.push_back("server Start: " + started.ToString());
      return;
    }
    for (size_t i = 0; i < feeds.size(); ++i) {
      Producer& p = producers[i];
      p.feed = &feeds[i];
      p.stream_id = epoch * feeds.size() + i + 1;
      p.ticks = feeds[i].ticks.empty()
                    ? 0
                    : static_cast<size_t>(feeds[i].ticks.back().tick) + 1;
      p.endtick_sent_s = std::make_unique<std::atomic<double>[]>(p.ticks);
      auto client = ConvoyClient::Connect(
          server.host(), server.port(), MakeClientOptions(options.seed, i));
      if (!client.ok()) {
        totals.errors.push_back("connect: " + client.status().ToString());
        return;
      }
      p.client = std::move(*client);
      t0 = NowSeconds();
      const convoy::Status begun =
          p.client->IngestBegin(p.stream_id, feeds[i].query, kCarryForward);
      setup += NowSeconds() - t0;
      if (!begun.ok()) {
        totals.errors.push_back("IngestBegin: " + begun.ToString());
        return;
      }
    }
  }
  totals.setup_s.push_back(setup);
  for (const StreamFeed& feed : feeds) totals.rows_generated += FeedRows(feed);

  auto subscriber = ConvoyClient::Connect(server.host(), server.port(),
                                          MakeClientOptions(options.seed, 100));
  auto querier = ConvoyClient::Connect(server.host(), server.port(),
                                       MakeClientOptions(options.seed, 200));
  if (!subscriber.ok() || !querier.ok()) {
    totals.errors.push_back("subscriber/query connect failed");
    return;
  }
  for (const Producer& p : producers) {
    ++totals.attempted;
    if (!(*subscriber)->Subscribe(p.stream_id).ok()) {
      totals.errors.push_back("Subscribe failed");
      return;
    }
  }

  // ---- load.
  std::vector<std::vector<Convoy>> closed(producers.size());
  std::vector<double> tick_latency_ms;
  uint64_t gaps = 0;
  std::vector<double> adhoc_ms;
  uint64_t query_attempted = 0, query_failed = 0;
  std::atomic<bool> stop_queries{false};
  bool subscriber_lost = false;  // written by the subscriber thread only
  const double load_start = NowSeconds();
  double load_end = load_start;
  {
    convoy::ServiceThread sub_thread("perfbench-subscriber", [&] {
      size_t ended = 0;
      while (ended < producers.size()) {
        convoy::StatusOr<EventMsg> event = (*subscriber)->NextEvent();
        if (!event.ok()) {
          subscriber_lost = true;
          return;
        }
        const size_t i = static_cast<size_t>(event->stream_id - 1) %
                         producers.size();
        switch (static_cast<EventKind>(event->kind)) {
          case EventKind::kTick: {
            const auto ti = static_cast<size_t>(event->tick);
            if (ti < producers[i].ticks) {
              const double sent = producers[i].endtick_sent_s[ti].load();
              if (sent > 0) tick_latency_ms.push_back(MsSince(sent));
            }
            break;
          }
          case EventKind::kConvoyClosed:
            closed[i].push_back(event->convoy);
            break;
          case EventKind::kGap:
            gaps += std::max<uint64_t>(1, event->live_candidates);
            break;
          case EventKind::kStreamEnd:
            ++ended;
            break;
          default:
            break;
        }
      }
    });
    convoy::ServiceThread query_thread;
    if (adhoc_queries) {
      query_thread = convoy::ServiceThread("perfbench-query", [&] {
        for (size_t round = 0; !stop_queries.load(); ++round) {
          const Producer& target = producers[round % producers.size()];
          ++query_attempted;
          ScopedSpan span(tracer, "adhoc_query", epoch_span.id(),
                          target.stream_id);
          ConvoyQuery query = target.feed->query;
          // Self-test: one query with m = 1, which the server rejects.
          if (options.corrupt == "fail_query" && epoch == 0 && round == 0) {
            query.m = 1;
          }
          const double t0 = NowSeconds();
          const auto result = (*querier)->Query(target.stream_id, query, 0);
          if (!result.ok()) {
            ++query_failed;
            return;
          }
          if (result->code != 0) {
            ++query_failed;
            continue;
          }
          adhoc_ms.push_back(MsSince(t0));
        }
      });
    }
    {
      std::vector<convoy::ServiceThread> producer_threads;
      for (Producer& p : producers) {
        Producer* pp = &p;
        producer_threads.emplace_back("perfbench-producer", [pp, &tracer,
                                                             &epoch_span] {
          ProduceLoop(pp, tracer, epoch_span.id());
        });
      }
      for (convoy::ServiceThread& t : producer_threads) t.Join();
    }
    load_end = NowSeconds();
    bool producers_ok = true;
    for (const Producer& p : producers) producers_ok &= p.error.empty();
    // A failed producer never finishes its stream: wake the subscriber.
    if (!producers_ok) (*subscriber)->ShutdownSocket();
    sub_thread.Join();
    stop_queries.store(true);
    query_thread.Join();
    if (producers_ok && subscriber_lost) {
      totals.errors.push_back("subscriber connection lost");
    }
  }

  // ---- after the load: Stats(), and the post-ingest query per stream.
  ++totals.attempted;
  const convoy::StatusOr<std::string> stats = (*querier)->Stats();
  if (stats.ok()) {
    totals.batches_rejected += StatsCounter(*stats, "server.batches_rejected");
    totals.ring_high_water = std::max(
        totals.ring_high_water, StatsCounter(*stats, "server.ring_high_water"));
    totals.events_dropped += StatsCounter(*stats, "server.events_dropped");
    totals.wal_fsyncs += StatsCounter(*stats, "wal.fsyncs");
  } else {
    ++totals.failed;
  }
  std::vector<std::vector<Convoy>> final_query(producers.size());
  if (final_queries) {
    for (size_t i = 0; i < producers.size(); ++i) {
      ++totals.attempted;
      const auto result = (*querier)->Query(producers[i].stream_id,
                                            producers[i].feed->query, 0);
      if (!result.ok() || result->code != 0) {
        ++totals.failed;
        totals.errors.push_back("post-ingest query failed");
        continue;
      }
      final_query[i] = result->convoys;
    }
  }

  uint64_t epoch_rows = 0;
  for (const Producer& p : producers) {
    epoch_rows += p.rows_accepted;
    totals.rows_accepted += p.rows_accepted;
    totals.retry_naks += p.retry_naks;
    totals.attempted += p.attempted;
    totals.failed += p.failed;
    if (!p.error.empty()) totals.errors.push_back(p.error);
  }
  {
    ScopedSpan span(tracer, "teardown", epoch_span.id(), epoch);
    producers.clear();
    subscriber->reset();
    querier->reset();
    server.Shutdown();
  }
  // Read before the samples below are merged and the epoch is verified.
  totals.peak_rss_mb.push_back(PeakRssMb());

  totals.epoch_rows_per_s.push_back(static_cast<double>(epoch_rows) /
                                    (load_end - load_start));
  totals.tick_latency_ms.insert(totals.tick_latency_ms.end(),
                                tick_latency_ms.begin(), tick_latency_ms.end());
  totals.adhoc_ms.insert(totals.adhoc_ms.end(), adhoc_ms.begin(),
                         adhoc_ms.end());
  totals.attempted += query_attempted + gaps;
  totals.failed += query_failed + gaps;

  // ---- verification, untimed.
  if (options.corrupt == "live_event" && epoch == 0 && !closed[0].empty()) {
    ++closed[0][0].end_tick;  // self-test: one changed closed-convoy event
  }
  for (size_t i = 0; i < feeds.size(); ++i) {
    const std::vector<Convoy> expected = LocalReplay(
        feeds[i], epoch == 0 ? &totals.replay_tick_us : nullptr);
    if (closed[i] != expected) {
      totals.errors.push_back("epoch " + std::to_string(feed_epoch) +
                              " stream " + std::to_string(i) +
                              ": closed-convoy events differ from the local "
                              "StreamingCmc replay");
    }
    if (!final_queries) continue;
    const std::vector<Convoy> cmc =
        convoy::Cmc(FeedDatabase(feeds[i]), feeds[i].query);
    const size_t unsound = convoy::Uncovered(final_query[i], cmc).size();
    if (unsound > 0) {
      totals.errors.push_back("stream " + std::to_string(i) + ": " +
                              std::to_string(unsound) +
                              " ad-hoc convoy(s) not covered by CMC");
    }
    totals.cmc_reference += cmc.size();
    totals.missed_convoys += convoy::Uncovered(cmc, final_query[i]).size();
  }
}

/// The gate over a run's epochs: no load error or failed check, and every
/// generated row accepted.
void GateLoad(const LoadTotals& totals, Report& report) {
  for (const std::string& e : totals.errors) report.GateFailure(e);
  if (totals.rows_accepted != totals.rows_generated) {
    report.GateFailure("accepted " + std::to_string(totals.rows_accepted) +
                       " rows of " + std::to_string(totals.rows_generated) +
                       " generated");
  }
}

void PublishServerLayers(const LoadTotals& totals, Report& report) {
  report.Layer("server.batches_rejected", totals.batches_rejected, "count");
  report.Layer("server.ring_high_water", totals.ring_high_water, "count");
  report.Layer("server.events_dropped", totals.events_dropped, "count");
  report.Layer("wal.fsyncs", totals.wal_fsyncs, "count");
  LatencyMetrics(report, "server.tick_latency_ms", totals.tick_latency_ms,
                 /*percentile=*/0, /*end_to_end=*/false);
}

/// The ingest-path layers measured by local calls on `feed`. With
/// `query_layers`, the ad-hoc probe's calls into the query path are also
/// sampled there (store.build_ms, plan.*, the split, cmc.ms).
void ProbeLocalLayers(const RunOptions& options, const StreamFeed& feed,
                      const std::vector<double>& tick_us,
                      QueryLayerSamples* query_layers, Report& report) {
  report.Layer("streaming.tick_us", Median(tick_us), "us");

  // protocol: decode every batch frame of the feed, three times over.
  std::vector<std::string> frames;
  size_t rows = 0;
  for (const convoy::FeedTick& tick : feed.ticks) {
    for (const auto& batch : tick.batches) {
      convoy::server::ReportBatchMsg msg;
      msg.tick = tick.tick;
      msg.rows = ToWire(batch);
      frames.push_back(convoy::server::Encode(msg));
      rows += batch.size();
    }
  }
  std::vector<double> decode_ns;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = NowSeconds();
    size_t decoded = 0;
    for (const std::string& f : frames) {
      const auto msg = convoy::server::DecodeReportBatch(f);
      if (msg.ok()) decoded += msg->rows.size();
    }
    if (decoded != rows) report.GateFailure("protocol decode lost rows");
    decode_ns.push_back((NowSeconds() - t0) * 1e9 /
                        static_cast<double>(std::max<size_t>(rows, 1)));
  }
  report.Layer("protocol.decode_ns_per_row", Median(decode_ns), "ns");

  // wal: the feed's records through a WalWriter at fsync=interval.
  const std::string wal_dir = options.work_dir + "/wal-probe";
  std::filesystem::remove_all(wal_dir);
  std::vector<double> append_us;
  {
    convoy::wal::WalOptions wal_options;
    wal_options.dir = wal_dir;
    wal_options.fsync = convoy::wal::FsyncPolicy::kInterval;
    auto writer = convoy::wal::WalWriter::Open(wal_options, nullptr);
    if (!writer.ok()) {
      report.GateFailure("WalWriter::Open: " + writer.status().ToString());
    } else {
      uint64_t seq = 0;
      const auto append = [&](convoy::wal::WalRecord record) {
        record.stream_id = 1;
        record.seq = ++seq;
        const double t0 = NowSeconds();
        if (!(*writer)->Append(record).ok()) {
          report.GateFailure("WalWriter::Append failed");
        }
        append_us.push_back(MsSince(t0) * 1e3);
      };
      convoy::wal::WalRecord begin;
      begin.kind = convoy::wal::WalRecordKind::kBegin;
      begin.m = static_cast<uint32_t>(feed.query.m);
      begin.k = feed.query.k;
      begin.e = feed.query.e;
      begin.carry_forward_ticks = kCarryForward;
      append(begin);
      for (const convoy::FeedTick& tick : feed.ticks) {
        for (const auto& batch : tick.batches) {
          convoy::wal::WalRecord record;
          record.kind = convoy::wal::WalRecordKind::kBatch;
          record.tick = tick.tick;
          for (const convoy::FeedRow& r : batch) {
            record.rows.push_back(convoy::wal::WalRow{r.id, r.pos.x, r.pos.y});
          }
          append(std::move(record));
        }
        convoy::wal::WalRecord end;
        end.kind = convoy::wal::WalRecordKind::kEndTick;
        end.tick = tick.tick;
        append(end);
      }
      if (!(*writer)->Sync().ok()) report.GateFailure("WalWriter::Sync failed");
    }
  }
  uintmax_t wal_bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(wal_dir, ec)) {
    if (entry.is_regular_file()) wal_bytes += entry.file_size();
  }
  std::filesystem::remove_all(wal_dir, ec);
  report.Layer("wal.append_us", Median(append_us), "us");
  report.Layer("wal.bytes_per_row",
               static_cast<double>(wal_bytes) /
                   static_cast<double>(std::max<size_t>(rows, 1)),
               "B");

  // adhoc: what one ad-hoc query does server-side on the feed's full
  // history: the snapshot (database, engine, store) rebuilt from its rows,
  // then one planned query.
  std::vector<double> build_ms, engine_ms;
  Tracer off(false);
  for (int rep = 0; rep < 3; ++rep) {
    double t0 = NowSeconds();
    convoy::ConvoyEngine engine(FeedDatabase(feed));
    engine.Store(1);
    build_ms.push_back(MsSince(t0));
    t0 = NowSeconds();
    const auto plan = engine.Prepare(feed.query);
    const double prepare_ms = MsSince(t0);
    const bool ok = plan.ok() && engine.Execute(*plan).ok();
    engine_ms.push_back(MsSince(t0));
    if (!ok) {
      report.GateFailure("ad-hoc probe query failed");
      continue;
    }
    if (query_layers == nullptr) continue;
    query_layers->store_build_ms.push_back(build_ms.back());
    query_layers->prepare_ms.push_back(prepare_ms);
    query_layers->execute_ms.push_back(engine_ms.back() - prepare_ms);
    if (plan->algorithm == convoy::AlgorithmId::kCutsStar) {
      SplitExecute(engine, *plan, off, 0, 0, query_layers);
    }
    t0 = NowSeconds();
    convoy::Cmc(*engine.Store(1), feed.query);
    query_layers->cmc_ms.push_back(MsSince(t0));
    const convoy::EngineStoreMetrics metrics = engine.StoreMetrics();
    query_layers->cache_hits += metrics.simplify_cache_hits;
    query_layers->cache_misses += metrics.simplify_cache_misses;
  }
  report.Layer("adhoc.snapshot_build_ms", Median(build_ms), "ms");
  report.Layer("adhoc.engine_ms", Median(engine_ms), "ms");
}

/// Ticks of one live_fleet feed. The stream shape below is convoy_loadgen's
/// default (the one BENCH_server.json records); only the feed is longer
/// than its 40 ticks, so that an epoch's ad-hoc queries see a history that
/// grows to 30k rows per stream, and the per-epoch fixed cost (server start,
/// connects, teardown) stays a small part of an epoch (see README.md).
constexpr Tick kLiveTicks = 1000;

/// The stream feed of producer `i` in the feeds of epoch `feed_epoch`:
/// every epoch streams fresh feeds, so one run averages over many of them.
StreamFeed LiveFeed(const RunOptions& options, uint64_t feed_epoch, size_t i) {
  // convoy_loadgen's default stream: 32 objects (three groups of four, the
  // rest wandering), 12-row batches, the same dropout and churn.
  convoy::StreamFeedConfig config;
  config.num_objects = 32;
  config.ticks = options.tiny ? 60 : kLiveTicks;
  config.batch_rows = 12;
  config.dropout = 0.05;
  config.leave_prob = 0.02;
  config.rejoin_prob = 0.3;
  StreamFeed feed = convoy::GenerateStreamFeed(
      config, (options.seed * 1000003ULL + feed_epoch) * 2 + i);
  // The generator sets k to a quarter of the feed; keep the k = 10 of the
  // loadgen's 40-tick feed, as churning groups (members leave and rejoin)
  // rarely stay together for 250 ticks.
  feed.query.k = 10;
  return feed;
}

}  // namespace

convoy::StreamFeed FeedFromRows(const std::vector<Row>& rows,
                                Tick max_ticks, size_t batch_rows,
                                const ConvoyQuery& query) {
  StreamFeed feed;
  feed.query = query;
  for (const Row& r : rows) {
    if (feed.ticks.empty() || feed.ticks.back().tick != r.t) {
      if (static_cast<Tick>(feed.ticks.size()) == max_ticks) break;
      feed.ticks.emplace_back();
      feed.ticks.back().tick = r.t;
    }
    convoy::FeedTick& tick = feed.ticks.back();
    if (tick.batches.empty() || tick.batches.back().size() == batch_rows) {
      tick.batches.emplace_back();
    }
    tick.batches.back().push_back(convoy::FeedRow{r.id, convoy::Point(r.x, r.y)});
    ++tick.total_rows;
  }
  // Rebase ticks to 0 so the feed's ticks index its EndTick timestamps.
  const Tick base = feed.ticks.empty() ? 0 : feed.ticks.front().tick;
  for (convoy::FeedTick& tick : feed.ticks) tick.tick -= base;
  return feed;
}

void ProbeLiveLayers(const RunOptions& options, const StreamFeed& feed,
                     Report& report) {
  Tracer off(false);
  LoadTotals totals;
  const std::vector<StreamFeed> feeds = {feed};
  RunEpoch(options, feeds, 0, /*adhoc_queries=*/false,
           /*final_queries=*/false, off, totals);
  Report probe;  // the probe's own gate verdicts are folded in below
  probe.Attempted(totals.attempted);
  probe.Failed(totals.failed);
  GateLoad(totals, probe);
  if (!probe.correct()) report.GateFailure("live-layer probe failed its gate");
  PublishServerLayers(totals, report);
  ProbeLocalLayers(options, feed, totals.replay_tick_us, nullptr, report);
}

int RunLive(const RunOptions& options, Report& report) {
  const unsigned nproc = std::thread::hardware_concurrency();
  if (nproc != 0 && nproc < kLiveConnections) {
    report.GateFailure("live_fleet needs " + std::to_string(kLiveConnections) +
                       " load threads but nproc is " + std::to_string(nproc));
    return 1;
  }
  Tracer tracer(options.trace);
  LoadTotals untraced, traced;
  // query_ms.tail's fixed percentile; an untraced run continues past its
  // deadline until it has ten samples beyond it.
  const double tail_percentile = options.tiny ? 90.0 : 99.0;
  const size_t min_samples = options.trace ? 0 : SamplesForTail(tail_percentile);
  const double deadline = NowSeconds() + options.seconds;
  // A traced run needs one untraced and one traced epoch at least.
  const size_t min_epochs = options.trace ? 2 : 1;
  for (size_t epoch = 0; NowSeconds() < deadline || epoch < min_epochs ||
                         untraced.adhoc_ms.size() < min_samples;
       ++epoch) {
    // Traced runs alternate untraced and traced epochs, and each traced
    // epoch streams the same feeds as the untraced one before it, so the
    // tracing overhead is measured on the same data within one process.
    const bool is_traced = options.trace && epoch % 2 == 1;
    const uint64_t feed_epoch = options.trace ? epoch / 2 : epoch;
    Tracer off(false);
    LoadTotals& totals = is_traced ? traced : untraced;
    const std::vector<StreamFeed> feeds = {LiveFeed(options, feed_epoch, 0),
                                           LiveFeed(options, feed_epoch, 1)};
    RunEpoch(options, feeds, feed_epoch, /*adhoc_queries=*/true,
             /*final_queries=*/totals.epochs == 0, is_traced ? tracer : off,
             totals);
  }

  report.Attempted(untraced.attempted + traced.attempted);
  report.Failed(untraced.failed + traced.failed);
  const double rows_per_s = Median(untraced.epoch_rows_per_s);
  report.EndToEnd("setup_s", Median(untraced.setup_s), "s");
  LatencyMetrics(report, "query_ms", untraced.adhoc_ms, tail_percentile,
                 /*end_to_end=*/true);
  report.EndToEnd("rows_per_s", rows_per_s, "1/s");
  report.EndToEnd("peak_rss_mb", Median(untraced.peak_rss_mb), "MB");
  {
    std::ostringstream note;
    note << "epochs = " << untraced.epochs + traced.epochs
         << ", ad-hoc query samples = " << untraced.adhoc_ms.size()
         << ", retryable NAKs resent = " << untraced.retry_naks;
    report.Note(note.str());
  }

  GateLoad(untraced, report);
  GateLoad(traced, report);
  report.Layer("missed_convoys", static_cast<double>(untraced.missed_convoys),
               "count");
  {
    std::ostringstream note;
    note << "missed_convoys = " << untraced.missed_convoys << " of "
         << untraced.cmc_reference
         << " CMC convoys over the post-ingest ad-hoc queries";
    report.Note(note.str());
  }

  LoadTotals all = untraced;
  all.batches_rejected += traced.batches_rejected;
  all.ring_high_water = std::max(all.ring_high_water, traced.ring_high_water);
  all.events_dropped += traced.events_dropped;
  all.wal_fsyncs += traced.wal_fsyncs;
  all.tick_latency_ms.insert(all.tick_latency_ms.end(),
                             traced.tick_latency_ms.begin(),
                             traced.tick_latency_ms.end());
  PublishServerLayers(all, report);

  if (options.trace) {
    const double traced_rate = Median(traced.epoch_rows_per_s);
    report.Layer("trace.overhead_pct",
                 traced_rate > 0 ? 100.0 * (rows_per_s / traced_rate - 1.0)
                                 : 0.0,
                 "%");
    // The query-path layers are off this workload's own path; they are
    // sampled on the ad-hoc probe's calls, on one stream's full history.
    QueryLayerSamples layers;
    ProbeLocalLayers(options, LiveFeed(options, 0, 0), untraced.replay_tick_us,
                     &layers, report);
    layers.Publish(report);
    tracer.Dump(options.work_dir + "/spans.jsonl");
  }
  return 0;
}

}  // namespace perfbench
