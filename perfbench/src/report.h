#ifndef CONVOY_PERFBENCH_REPORT_H_
#define CONVOY_PERFBENCH_REPORT_H_

// Shared plumbing of the convoy benchmark: run options, latency summaries,
// the benchmark-side span tracer, and the result report whose last line is
// the machine-readable JSON object.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// What one invocation runs. `tiny` shrinks every input so the self-test can
/// exercise each workload in seconds; `corrupt` damages one output after the
/// timed phase, or sends one invalid query during it, so the self-test can
/// prove the correctness gate trips.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string corrupt = "none";  ///< none|drop_convoy|live_event|fail_query
  std::string work_dir = ".bench_build/run";  ///< WAL dirs and span dumps
  std::string commit = "unknown";
};

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double MsSince(double start_s) { return (NowSeconds() - start_s) * 1e3; }

double Median(std::vector<double> values);

/// A tail percentile of a latency sample, with its value and the sample
/// count.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  size_t samples = 0;
};
/// `percentile` of `values`; 0 picks the highest of {50, 75, 90, 95, 99,
/// 99.9} that leaves at least ten samples beyond it.
Tail TailOf(std::vector<double> values, double percentile);

/// Samples a run needs so that `percentile` leaves ten samples beyond it.
size_t SamplesForTail(double percentile);

/// Returns freed heap to the kernel (unless KeepFreedHeap was called) and
/// restarts the process's peak-resident-set watermark (VmHWM) at the current
/// resident set, so PeakRssMb covers one pass or epoch. No effect where the
/// kernel does not offer the reset; PeakRssMb then reports the process peak.
void ResetPeakRss();

/// Makes the allocator keep the memory the program frees for reuse instead
/// of handing it back to the kernel, so later passes do not page-fault it in
/// again; ResetPeakRss then no longer trims the heap.
void KeepFreedHeap();

/// Peak resident set (VmHWM) since the last ResetPeakRss, in MiB.
double PeakRssMb();

/// Spans recorded by the benchmark around its calls into the library: name,
/// start, end, parent span and query id. Disabled tracers record nothing and
/// cost one branch per call. Thread-safe: the live workload's producer,
/// subscriber and query threads record into one tracer.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (0 when disabled).
  uint64_t Begin(const char* name, uint64_t parent, uint64_t query_id);
  void End(uint64_t id);

  /// Writes every span as one JSON object per line.
  bool Dump(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t parent;
    uint64_t query_id;
    double start_s;
    double end_s;
  };
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;     // GUARDED_BY(mu_)
};

/// RAII form of Tracer::Begin/End.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t parent,
             uint64_t query_id)
      : tracer_(tracer), id_(tracer.Begin(name, parent, query_id)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  uint64_t id_;
};

/// Collects one run's metrics, operation counts and correctness verdict,
/// prints the human-readable report and the final JSON line.
class Report {
 public:
  /// An end-to-end metric (reported with --trace 0).
  void EndToEnd(const std::string& name, double value, const std::string& unit);
  /// A per-layer metric (reported with --trace 1).
  void Layer(const std::string& name, double value, const std::string& unit);
  /// A detail printed in the human-readable report only.
  void Note(const std::string& line) { notes_.push_back(line); }

  void Attempted(uint64_t n) { attempted_ += n; }
  void Failed(uint64_t n) { failed_ += n; }
  /// Failed operations / attempted operations (0 when none were attempted).
  double ErrorRate() const;

  /// Records a failed correctness check; any failure makes the run incorrect.
  void GateFailure(const std::string& what);
  /// A run is correct when no check failed and no operation failed: a failed
  /// operation also drops out of the latency samples, so it could otherwise
  /// make a regression look like a speed-up.
  bool correct() const { return gate_failures_.empty() && failed_ == 0; }

  /// Prints notes, every metric with its unit, the gate verdict, and last
  /// the JSON object holding the metrics of the requested kind.
  void Print(bool trace) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layer_;
  std::vector<std::string> notes_;
  std::vector<std::string> gate_failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Host, nproc, compiler, build type, SIMD kernel, seed and commit, as one
/// "# fingerprint {...}" line.
std::string Fingerprint(const RunOptions& options);

/// Records `samples` as `<name>.p50` and `<name>.tail` (the given
/// percentile, see TailOf), plus a note naming the tail's percentile and the
/// sample count.
void LatencyMetrics(Report& report, const std::string& name,
                    const std::vector<double>& samples_ms, double percentile,
                    bool end_to_end);

}  // namespace perfbench

#endif  // CONVOY_PERFBENCH_REPORT_H_
