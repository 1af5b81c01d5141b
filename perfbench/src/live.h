#ifndef CONVOY_PERFBENCH_LIVE_H_
#define CONVOY_PERFBENCH_LIVE_H_

// The live workload (live_fleet): producers, a subscriber and an ad-hoc
// query client against an in-process ConvoyServer with its WAL on, plus the
// per-layer probe of the ingest path that every workload's traced run shares.

#include <cstddef>
#include <vector>

#include "batch.h"
#include "convoy/convoy.h"
#include "report.h"

namespace perfbench {

/// The first `max_ticks` ticks of an archive as a live feed: each tick's rows
/// split into batches of at most `batch_rows`.
convoy::StreamFeed FeedFromRows(const std::vector<Row>& rows,
                                convoy::Tick max_ticks, size_t batch_rows,
                                const convoy::ConvoyQuery& query);

/// Publishes the ingest-path per-layer metrics (streaming.*, protocol.*,
/// wal.*, adhoc.* and server.*) measured on `feed`: local calls into
/// StreamingCmc, the protocol codec and a WalWriter, plus one epoch of the
/// feed through an in-process server.
void ProbeLiveLayers(const RunOptions& options, const convoy::StreamFeed& feed,
                     Report& report);

/// Runs live_fleet.
int RunLive(const RunOptions& options, Report& report);

}  // namespace perfbench

#endif  // CONVOY_PERFBENCH_LIVE_H_
