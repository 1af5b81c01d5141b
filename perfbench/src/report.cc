#include "report.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "simd/dist_kernels.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

/// Linear interpolation between closest ranks (numpy's default).
double Quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

}  // namespace

size_t SamplesForTail(double percentile) {
  return static_cast<size_t>(std::ceil(10.0 / (1.0 - percentile / 100.0) - 1e-9));
}

Tail TailOf(std::vector<double> values, double percentile) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  if (percentile <= 0) {
    for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
      if (p > 50.0 && values.size() < SamplesForTail(p)) break;
      percentile = p;
    }
  }
  tail.percentile = percentile;
  tail.value = Quantile(values, percentile / 100.0);
  return tail;
}

namespace {
bool keep_freed_heap = false;
}  // namespace

void KeepFreedHeap() {
  keep_freed_heap = true;
  // Never shrink the heap top, and serve blocks up to 32 MiB (glibc's
  // largest mmap threshold) from the heap rather than from fresh mappings.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
}

void ResetPeakRss() {
  // Return the heap that earlier passes freed but the allocator kept cached,
  // so that the watermark starts from what the process holds.
  if (!keep_freed_heap) malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // "5" resets the VmHWM watermark (Linux >= 4.0)
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t Tracer::Begin(const char* name, uint64_t parent, uint64_t query_id) {
  if (!enabled_) return 0;
  const double t0 = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, parent, query_id, t0, t0});
  return spans_.size();
}

void Tracer::End(uint64_t id) {
  if (!enabled_ || id == 0) return;
  const double t = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_s = t;
}

bool Tracer::Dump(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i + 1 << ",\"name\":\"" << s.name
        << "\",\"parent\":" << s.parent << ",\"query\":" << s.query_id
        << ",\"start_us\":" << FormatNumber((s.start_s - origin) * 1e6)
        << ",\"end_us\":" << FormatNumber((s.end_s - origin) * 1e6) << "}\n";
  }
  return static_cast<bool>(out);
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end_.push_back(Metric{name, value, unit});
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layer_.push_back(Metric{name, value, unit});
}

double Report::ErrorRate() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

void Report::GateFailure(const std::string& what) {
  gate_failures_.push_back(what);
}

void Report::Print(bool trace) const {
  for (const std::string& note : notes_) std::cout << "# " << note << "\n";
  const auto print_all = [](const char* kind, const std::vector<Metric>& ms) {
    for (const Metric& m : ms) {
      std::cout << "# " << kind << " " << m.name << " = " << FormatNumber(m.value)
                << " " << m.unit << "\n";
    }
  };
  print_all("end_to_end", end_to_end_);
  print_all("per_layer", layer_);
  std::cout << "# error_rate = " << FormatNumber(ErrorRate()) << " ("
            << failed_ << " failed / " << attempted_ << " attempted)\n";
  for (const std::string& f : gate_failures_) {
    std::cout << "# GATE FAILED: " << f << "\n";
  }
  if (failed_ > 0) {
    std::cout << "# GATE FAILED: " << failed_ << " of " << attempted_
              << " operations failed\n";
  }
  std::cout << "# gate: " << (correct() ? "pass" : "FAIL") << "\n";

  const std::vector<Metric>& chosen = trace ? layer_ : end_to_end_;
  std::ostringstream json;
  json << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
  for (size_t i = 0; i < chosen.size(); ++i) {
    if (i > 0) json << ", ";
    json << "\"" << chosen[i].name << "\": {\"value\": "
         << FormatNumber(chosen[i].value) << ", \"unit\": \""
         << chosen[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

std::string Fingerprint(const RunOptions& options) {
  char host[256] = {};
  if (gethostname(host, sizeof(host) - 1) != 0) host[0] = '\0';
  std::ostringstream out;
  out << "# fingerprint {\"host\": \"" << JsonEscape(host)
      << "\", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": \"" << PERFBENCH_COMPILER
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"simd_kernel\": \"" << convoy::simd::ActiveKernelIsa()
      << "\", \"workload\": \"" << JsonEscape(options.workload)
      << "\", \"seed\": " << options.seed
      << ", \"seconds\": " << FormatNumber(options.seconds)
      << ", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"tiny\": " << (options.tiny ? 1 : 0)
      << ", \"commit\": \"" << JsonEscape(options.commit)
      << "\", \"runs\": 1}";
  return out.str();
}

void LatencyMetrics(Report& report, const std::string& name,
                    const std::vector<double>& samples_ms, double percentile,
                    bool end_to_end) {
  const Tail tail = TailOf(samples_ms, percentile);
  const double p50 = Median(samples_ms);
  if (end_to_end) {
    report.EndToEnd(name + ".p50", p50, "ms");
    report.EndToEnd(name + ".tail", tail.value, "ms");
  } else {
    report.Layer(name + ".p50", p50, "ms");
    report.Layer(name + ".tail", tail.value, "ms");
  }
  std::ostringstream note;
  note << name << ".tail is p" << tail.percentile << " of " << tail.samples
       << " samples";
  report.Note(note.str());
}

}  // namespace perfbench
