// convoy_perfbench — the repository benchmark.
//
//   convoy_perfbench --workload archive_fleet|dense_herd|live_fleet
//                    --seed N --seconds S --trace 0|1
//                    [--tiny]
//                    [--corrupt none|drop_convoy|live_event|fail_query]
//                    [--work-dir DIR] [--commit ID]
//
// Prints a "# fingerprint" line, a human-readable report ("# ..." lines)
// and, last, one JSON object: {"correct", "attempted", "failed", "metrics"}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit 0 when the correctness gate passes, 3 when it fails,
// 2 on usage errors.

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "batch.h"
#include "live.h"
#include "report.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::RunOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      options->tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << arg << "\n";
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options->workload = value;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (!(options->seconds > 0)) return false;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (arg == "--corrupt") {
      options->corrupt = value;
    } else if (arg == "--work-dir") {
      options->work_dir = value;
    } else if (arg == "--commit") {
      options->commit = value;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::cerr << "bad value for " << arg << ": " << value << "\n";
      return false;
    }
  }
  const std::string& w = options->workload;
  if (w != "archive_fleet" && w != "dense_herd" && w != "live_fleet") {
    std::cerr << "unknown workload: " << w << "\n";
    return false;
  }
  const std::string& c = options->corrupt;
  return c == "none" || c == "drop_convoy" || c == "live_event" ||
         c == "fail_query";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    std::cerr << "usage: convoy_perfbench --workload archive_fleet|dense_herd|"
                 "live_fleet --seed N --seconds S --trace 0|1 [--tiny] "
                 "[--corrupt none|drop_convoy|live_event|fail_query] "
                 "[--work-dir DIR] "
                 "[--commit ID]\n";
    return 2;
  }
  std::filesystem::create_directories(options.work_dir);
  std::cout << perfbench::Fingerprint(options) << "\n";

  perfbench::Report report;
  const int rc = options.workload == "live_fleet"
                     ? perfbench::RunLive(options, report)
                     : perfbench::RunBatch(options, report);
  report.Layer("error_rate", report.ErrorRate(), "ratio");
  report.Print(options.trace);
  if (rc != 0) return rc;
  return report.correct() ? 0 : 3;
}
