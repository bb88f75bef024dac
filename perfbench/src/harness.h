// What every workload shares: the command line, the run record and
// its final JSON line, client-side latency samples, set-up timing,
// process resource readings, and the traced run's query-log drain and
// per-layer breakdown.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/query_log.h"
#include "service/query_service.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch space inside the checkout (durable data dirs).
  std::string work_dir = ".bench_build/perfbench-work";
};

/// Statement classes with their own latency metrics.
enum class Kind { kClosed, kSemiOpen, kOpen, kWrite };
constexpr int kNumKinds = 4;
const char* KindName(Kind kind);

/// Monotonic clock in nanoseconds (steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One executed statement as the client saw it.
struct Sample {
  Kind kind = Kind::kClosed;
  double ms = 0.0;        ///< client-side latency
  int64_t end_ns = 0;     ///< completion time (NowNs)
  uint64_t trace_id = 0;  ///< nonzero in the traced run
};

/// The run record: human-readable lines on stdout, then the JSON
/// result as the last line. Thread-safe.
class Report {
 public:
  void Info(const std::string& key, const std::string& value);
  /// An end-to-end or per-layer metric; `detail` (sample count, tail
  /// percentile) is printed in the record, not in the JSON.
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& detail = "");
  /// A failed operation: a statement error or a wrong answer.
  void Fail(const std::string& what);
  void Attempted(uint64_t n) { attempted_ += n; }
  /// Print the JSON line; returns the process exit code.
  int Finish();

 private:
  std::mutex mu_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  uint64_t failures_printed_ = 0;
};

/// Windows the timed loop [start_ns, end_ns) is split into for the
/// windowed estimators (measure.h): a host slow phase covering a few
/// seconds of a run then moves the reported medians little.
constexpr int kWindows = 10;

/// `<kind>_p50_ms` and `<kind>_tail_ms` from raw samples, the tail at
/// the fixed percentile `tail_pct`; each is the median over `windows`
/// windows of the loop of that window's quantile (1: pooled). The
/// record shows the count, the percentile, how many samples lie beyond
/// it, and the pooled quantiles.
void ReportLatency(Report* report, const std::vector<Sample>& samples,
                   Kind kind, int tail_pct, int windows, int64_t start_ns,
                   int64_t end_ns);

/// Median of the set-up times (seconds) as `setup_s`.
void ReportSetup(Report* report, const std::vector<double>& seconds);

/// throughput_qps (median over kWindows windows of the loop of the
/// statements completed per second) and peak_rss_mb, the high-water
/// mark `setup_peak_mb` read just before the timed loop. Over the loop
/// the heap of scan grows by fragmentation at a rate that differs by
/// tens of percent between identical runs, so the loop's own growth is
/// a per-layer metric (common.loop_rss_growth_mb) and a record line.
void ReportThroughputAndMemory(Report* report, const std::vector<Sample>& samples,
                               int64_t start_ns, int64_t end_ns,
                               double setup_peak_mb);

/// Process CPU seconds (user + system) so far.
double ProcessCpuSeconds();
/// VmHWM in MB.
double PeakRssMb();
/// Hand freed heap back to the OS between set-up repetitions, so each
/// starts from the same footprint and the high-water mark does not
/// depend on how earlier repetitions fragmented the heap.
void ReleaseFreedMemory();

/// Host block of the run record: nproc, SIMD ISA, L2 size, service
/// options, environment overrides, seed.
void RecordHost(Report* report, const Options& opt,
                const mosaic::service::ServiceOptions& service_options);
size_t L2CacheBytes();

/// mosaic_serve's default ServiceOptions plus morsel_size = 65536; the
/// traced run also sets trace_queries.
mosaic::service::ServiceOptions BenchServiceOptions(bool trace);

/// Trace ids for the traced run: nonzero, distinct, seeded.
class TraceIds {
 public:
  explicit TraceIds(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  uint64_t Next();

 private:
  std::mutex mu_;
  uint64_t state_;
};

/// Drains QueryLog::Global() on a background thread while a traced loop
/// runs, so the 1024-slot ring never wraps past an unread record.
class QueryLogDrain {
 public:
  QueryLogDrain();
  ~QueryLogDrain();
  QueryLogDrain(const QueryLogDrain&) = delete;
  QueryLogDrain& operator=(const QueryLogDrain&) = delete;

  /// Stop draining and return every record appended since
  /// construction. `lost` counts records overwritten before they were
  /// read.
  std::vector<mosaic::qlog::QueryRecord> Finish(uint64_t* lost);

 private:
  void DrainOnce();

  uint64_t next_id_;
  uint64_t lost_ = 0;
  std::vector<mosaic::qlog::QueryRecord> records_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Inputs to the per-layer breakdown of one traced loop.
struct LayerInputs {
  std::vector<Sample> samples;                   ///< client side
  std::vector<mosaic::qlog::QueryRecord> records;  ///< server side
  bool networked = false;  ///< statements went through net::Client
  mosaic::service::ServiceStats stats_before, stats_after;
  double cpu_s = 0.0, wall_s = 0.0;
  double rss_before_mb = 0.0, rss_after_mb = 0.0;  ///< VmHWM around the loop
};

/// Span, count and ratio metrics of the service / sql / core / exec /
/// net / common layers. Every traced statement must have a record.
void ReportLayers(Report* report, const LayerInputs& in);

/// Storage metrics from the registry, as deltas over a loop.
struct WalCounters {
  uint64_t appends = 0, append_bytes = 0, fsyncs = 0;
  uint64_t append_us_sum = 0, append_us_count = 0;
  static WalCounters Read();
};
void ReportStorage(Report* report, const WalCounters& before,
                   const WalCounters& after, uint64_t writes,
                   uint64_t user_bytes);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
