#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/cpu.h"
#include "common/metrics.h"
#include "exec/simd.h"
#include "measure.h"

namespace perfbench {

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kClosed: return "closed";
    case Kind::kSemiOpen: return "semi_open";
    case Kind::kOpen: return "open";
    case Kind::kWrite: return "write";
  }
  return "?";
}

void Report::Info(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  std::printf("# %s: %s\n", key.c_str(), value.c_str());
  std::fflush(stdout);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  std::printf("metric %-36s %16.6f %-8s %s\n", name.c_str(), value,
              unit.c_str(), detail.c_str());
  std::fflush(stdout);
  metrics_.push_back({name, {value, unit}});
}

void Report::Fail(const std::string& what) {
  failed_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu_);
  // The first failures say what went wrong; the count says how often.
  if (failures_printed_++ < 20) {
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

int Report::Finish() {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t attempted = attempted_.load();
  uint64_t failed = failed_.load();
  std::string json = "{\"correct\": ";
  std::string body;
  for (const auto& [name, vu] : metrics_) {
    if (!std::isfinite(vu.first)) {
      std::fprintf(stderr, "FAILED: metric %s is not finite\n", name.c_str());
      ++failed;
      continue;
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body.empty() ? "" : ", ", name.c_str(), vu.first,
                  vu.second.c_str());
    body += buf;
  }
  const bool correct = failed == 0 && attempted > 0;
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
          body + "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void ReportLatency(Report* report, const std::vector<Sample>& samples,
                   Kind kind, int tail_pct, int windows, int64_t start_ns,
                   int64_t end_ns) {
  std::vector<double> ms;
  std::vector<int64_t> at;
  for (const Sample& s : samples) {
    if (s.kind == kind) ms.push_back(s.ms), at.push_back(s.end_ns);
  }
  const std::string name = KindName(kind);
  const double tail_q = tail_pct / 100.0;
  const size_t beyond = SamplesBeyond(ms.size(), tail_pct);
  const std::string basis = "median of " + std::to_string(windows) + " windows";
  report->Metric(name + "_p50_ms",
                 WindowedQuantile(ms, at, start_ns, end_ns, windows, 0.5), "ms",
                 "n=" + std::to_string(ms.size()) + " " + basis + " pooled=" +
                     std::to_string(Median(ms)));
  report->Metric(name + "_tail_ms",
                 WindowedQuantile(ms, at, start_ns, end_ns, windows, tail_q), "ms",
                 "n=" + std::to_string(ms.size()) + " p" +
                     std::to_string(tail_pct) + " beyond=" +
                     std::to_string(beyond) + " " + basis + " pooled=" +
                     std::to_string(Quantile(ms, tail_q)) +
                     (beyond < 10 ? " (fewer than ten beyond: tail rule not met)"
                                  : ""));
  if (ms.empty()) report->Fail(name + ": no statements completed");
}

void ReportSetup(Report* report, const std::vector<double>& seconds) {
  std::string all;
  for (double s : seconds) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.3f", all.empty() ? "" : ",", s);
    all += buf;
  }
  report->Metric("setup_s", Median(seconds), "s",
                 "median of " + std::to_string(seconds.size()) + " [" + all + "]");
}

void ReportThroughputAndMemory(Report* report, const std::vector<Sample>& samples,
                               int64_t start_ns, int64_t end_ns,
                               double setup_peak_mb) {
  std::vector<int64_t> at;
  for (const Sample& s : samples) at.push_back(s.end_ns);
  const double wall_s = static_cast<double>(end_ns - start_ns) * 1e-9;
  report->Metric("throughput_qps", WindowedRate(at, start_ns, end_ns, kWindows),
                 "1/s",
                 "median of " + std::to_string(kWindows) + " windows; statements=" +
                     std::to_string(samples.size()) + " wall_s=" +
                     std::to_string(wall_s) + " pooled=" +
                     std::to_string(static_cast<double>(samples.size()) / wall_s));
  report->Metric("peak_rss_mb", setup_peak_mb, "MB",
                 "VmHWM before the timed loop; after it: " +
                     std::to_string(PeakRssMb()));
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void ReleaseFreedMemory() { malloc_trim(0); }

size_t L2CacheBytes() {
  long v = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (v > 0) return static_cast<size_t>(v);
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index2/size");
  std::string s;
  if (in >> s && !s.empty()) {
    size_t n = std::strtoull(s.c_str(), nullptr, 10);
    if (s.back() == 'K') n *= 1024;
    if (s.back() == 'M') n *= 1024 * 1024;
    return n;
  }
  return 0;
}

mosaic::service::ServiceOptions BenchServiceOptions(bool trace) {
  mosaic::service::ServiceOptions o;
  o.morsel_size = 65536;
  o.trace_queries = trace;
  return o;
}

void RecordHost(Report* report, const Options& opt,
                const mosaic::service::ServiceOptions& o) {
  auto env = [](const char* name) {
    const char* v = std::getenv(name);
    return std::string(v != nullptr ? v : "");
  };
  report->Info("workload", opt.workload);
  report->Info("seed", std::to_string(opt.seed));
  report->Info("seconds", std::to_string(opt.seconds));
  report->Info("trace", opt.trace ? "1" : "0");
  report->Info("host.nproc", std::to_string(mosaic::HardwareThreads()));
  report->Info("host.simd_isa", mosaic::exec::simd::ActiveIsaName());
  report->Info("host.l2_bytes", std::to_string(L2CacheBytes()));
  report->Info("host.env",
               "MOSAIC_SIMD=" + env("MOSAIC_SIMD") + " MOSAIC_MORSELS=" +
                   env("MOSAIC_MORSELS") + " MOSAIC_TRACE=" + env("MOSAIC_TRACE") +
                   " MOSAIC_ROW_PATH=" + env("MOSAIC_ROW_PATH"));
  report->Info(
      "service_options",
      "num_request_threads=" + std::to_string(o.num_request_threads) +
          " num_generation_threads=" + std::to_string(o.num_generation_threads) +
          " result_cache_capacity=" + std::to_string(o.result_cache_capacity) +
          " model_cache_capacity=" + std::to_string(o.model_cache_capacity) +
          " force_row_exec=" + std::to_string(o.force_row_exec) +
          " morsel_size=" + std::to_string(o.morsel_size) +
          " morsel_parallelism=" + std::to_string(o.morsel_parallelism) +
          " trace_queries=" + std::to_string(o.trace_queries) +
          " slow_query_ms=" + std::to_string(o.slow_query_ms) +
          " durable_fsync_dml=" + std::to_string(o.durable_fsync_dml));
}

uint64_t TraceIds::Next() {
  std::lock_guard<std::mutex> lock(mu_);
  // splitmix64: distinct outputs for distinct states.
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

QueryLogDrain::QueryLogDrain()
    : next_id_(mosaic::qlog::QueryLog::Global().total_appended() + 1) {
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      DrainOnce();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
}

QueryLogDrain::~QueryLogDrain() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void QueryLogDrain::DrainOnce() {
  auto& log = mosaic::qlog::QueryLog::Global();
  const uint64_t appended = log.total_appended();
  if (appended < next_id_) return;
  std::map<uint64_t, mosaic::qlog::QueryRecord> fresh;
  for (auto& r : log.Snapshot()) {
    if (r.query_id >= next_id_) fresh.emplace(r.query_id, std::move(r));
  }
  // Take records in id order. A missing id is either still being
  // appended (claimed but not yet written: stop and retry) or already
  // overwritten by the ring (lost).
  for (; next_id_ <= appended; ++next_id_) {
    auto it = fresh.find(next_id_);
    if (it != fresh.end()) {
      records_.push_back(std::move(it->second));
    } else if (appended >= log.capacity() && next_id_ <= appended - log.capacity()) {
      ++lost_;
    } else {
      break;
    }
  }
}

std::vector<mosaic::qlog::QueryRecord> QueryLogDrain::Finish(uint64_t* lost) {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  // Every statement has returned, so every append has completed.
  DrainOnce();
  const uint64_t appended = mosaic::qlog::QueryLog::Global().total_appended();
  if (appended + 1 > next_id_) lost_ += appended + 1 - next_id_;
  *lost = lost_;
  return std::move(records_);
}

namespace {

/// Median over the statements that had the span, 0 when none did.
double MedianOf(const std::vector<double>& v) { return v.empty() ? 0.0 : Median(v); }

std::string Count(size_t n) { return "n=" + std::to_string(n); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void ReportLayers(Report* report, const LayerInputs& in) {
  std::unordered_map<uint64_t, const mosaic::qlog::QueryRecord*> by_trace;
  for (const auto& r : in.records) {
    if (r.trace_id != 0) by_trace[r.trace_id] = &r;
  }
  // Span durations (service/core layers) and span self times (exec
  // layer), summed per statement, one vector entry per statement that
  // had the span.
  static const char* kDurations[] = {"parse", "canonicalize", "lock_wait",
                                     "cache_lookup", "cache_store",
                                     "weight_pin", "reweight",
                                     "train_or_fetch_model", "combine_runs"};
  static const char* kSelf[] = {"filter", "group_keys", "accumulate",
                                "emit", "sort", "materialize"};
  std::map<std::string, std::vector<double>> per_span;
  std::vector<double> statement_us, self_us, roundtrip_us, overhead_us,
      coverage;
  double rows_scanned = 0, rows_produced = 0, morsels = 0;
  size_t matched = 0;
  for (const Sample& s : in.samples) {
    auto it = by_trace.find(s.trace_id);
    if (it == by_trace.end()) {
      report->Fail("traced statement " + std::to_string(s.trace_id) +
                   " has no query-log record (" + KindName(s.kind) + ")");
      continue;
    }
    const mosaic::qlog::QueryRecord& rec = *it->second;
    ++matched;
    std::vector<SpanRec> spans;
    for (const auto& sp : rec.spans) {
      spans.push_back({sp.id, sp.parent, sp.name, sp.start_us, sp.duration_us});
    }
    std::vector<uint64_t> self = SelfTimes(spans);
    std::map<std::string, double> dur, slf;
    double stmt = -1.0, stmt_self = 0.0;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent == 0 && spans[i].name == "statement") {
        stmt = static_cast<double>(spans[i].duration_us);
        stmt_self = static_cast<double>(self[i]);
      }
      dur[spans[i].name] += static_cast<double>(spans[i].duration_us);
      slf[spans[i].name] += static_cast<double>(self[i]);
    }
    if (stmt < 0.0) {
      report->Fail("query-log record without a statement span");
      continue;
    }
    const double client_us = s.ms * 1000.0;
    statement_us.push_back(stmt);
    self_us.push_back(stmt_self);
    coverage.push_back(Ratio(stmt, client_us));
    if (in.networked) {
      roundtrip_us.push_back(client_us);
      overhead_us.push_back(client_us - stmt);
    }
    for (const char* n : kDurations) {
      if (dur.count(n)) per_span[n].push_back(dur[n]);
    }
    for (const char* n : kSelf) {
      if (slf.count(n)) per_span[n].push_back(slf[n]);
    }
    rows_scanned += static_cast<double>(rec.rows_scanned);
    rows_produced += static_cast<double>(rec.rows_produced);
    morsels += static_cast<double>(rec.morsels);
  }
  auto span_metric = [&](const std::string& metric, const char* span) {
    const auto& v = per_span[span];
    report->Metric(metric, MedianOf(v), "us", Count(v.size()));
  };
  report->Metric("net.roundtrip_us", MedianOf(roundtrip_us), "us",
                 Count(roundtrip_us.size()));
  report->Metric("net.overhead_us", MedianOf(overhead_us), "us",
                 Count(overhead_us.size()) + " roundtrip minus statement span");
  report->Metric("service.statement_us", MedianOf(statement_us), "us",
                 Count(statement_us.size()));
  report->Metric("service.self_us", MedianOf(self_us), "us",
                 Count(self_us.size()));
  span_metric("service.lock_wait_us", "lock_wait");
  {
    const auto& v = per_span["lock_wait"];
    const int pct = TailPercentile(v.size());
    report->Metric("service.lock_wait_tail_us",
                   v.empty() ? 0.0 : Quantile(v, (pct == 0 ? 90 : pct) / 100.0),
                   "us", Count(v.size()) + " p" + std::to_string(pct == 0 ? 90 : pct));
  }
  span_metric("service.cache_lookup_us", "cache_lookup");
  span_metric("service.cache_store_us", "cache_store");
  span_metric("service.canonicalize_us", "canonicalize");
  span_metric("sql.parse_us", "parse");
  span_metric("core.weight_pin_us", "weight_pin");
  span_metric("core.reweight_us", "reweight");
  span_metric("core.train_or_fetch_model_us", "train_or_fetch_model");
  span_metric("core.combine_runs_us", "combine_runs");
  for (const char* n : kSelf) span_metric(std::string("exec.") + n + "_us", n);
  report->Metric("exec.rows_scanned_per_row_out", Ratio(rows_scanned, rows_produced),
                 "ratio", "rows_scanned=" + std::to_string(rows_scanned));
  report->Metric("exec.morsels_per_stmt", Ratio(morsels, static_cast<double>(matched)),
                 "count", Count(matched));
  report->Metric("trace.span_coverage", MedianOf(coverage), "ratio",
                 "statement span / client latency, " + Count(coverage.size()));

  const auto& a = in.stats_after;
  const auto& b = in.stats_before;
  const double hits = static_cast<double>(a.result_cache.hits - b.result_cache.hits);
  const double misses =
      static_cast<double>(a.result_cache.misses - b.result_cache.misses);
  report->Metric("service.result_cache_hit_ratio", Ratio(hits, hits + misses),
                 "ratio", "lookups=" + std::to_string(hits + misses));
  const double mhits = static_cast<double>(a.model_cache.hits - b.model_cache.hits);
  const double mmiss =
      static_cast<double>(a.model_cache.misses - b.model_cache.misses);
  report->Metric("core.model_cache_hit_ratio", Ratio(mhits, mhits + mmiss),
                 "ratio", "lookups=" + std::to_string(mhits + mmiss));
  report->Metric("core.retrains",
                 static_cast<double>(a.model_cache.insertions - b.model_cache.insertions),
                 "count");
  report->Metric("core.refits",
                 static_cast<double>(a.weight_refits_total - b.weight_refits_total),
                 "count");
  report->Metric("core.refits_incremental",
                 static_cast<double>(a.weight_refits_incremental -
                                     b.weight_refits_incremental),
                 "count");
  report->Metric("core.refits_skipped",
                 static_cast<double>(a.weight_refits_skipped - b.weight_refits_skipped),
                 "count");
  report->Metric("common.cpu_per_wall", Ratio(in.cpu_s, in.wall_s), "ratio",
                 "cpu_s=" + std::to_string(in.cpu_s));
  report->Metric("common.loop_rss_growth_mb", in.rss_after_mb - in.rss_before_mb,
                 "MB", "VmHWM after minus before the traced loop");
}

WalCounters WalCounters::Read() {
  auto& reg = mosaic::metrics::Registry::Global();
  WalCounters c;
  c.appends = reg.GetCounter("mosaic_wal_appends_total")->Value();
  c.append_bytes = reg.GetCounter("mosaic_wal_append_bytes_total")->Value();
  c.fsyncs = reg.GetCounter("mosaic_wal_fsyncs_total")->Value();
  auto snaps = reg.HistogramSnapshots();
  auto it = snaps.find("mosaic_wal_append_us");
  if (it != snaps.end()) {
    c.append_us_sum = it->second.sum;
    c.append_us_count = it->second.count;
  }
  return c;
}

void ReportStorage(Report* report, const WalCounters& before,
                   const WalCounters& after, uint64_t writes,
                   uint64_t user_bytes) {
  const double n = static_cast<double>(after.append_us_count - before.append_us_count);
  report->Metric("storage.wal_append_us",
                 Ratio(static_cast<double>(after.append_us_sum - before.append_us_sum), n),
                 "us", "mean of " + std::to_string(static_cast<uint64_t>(n)) +
                           " (registry mosaic_wal_append_us)");
  report->Metric("storage.fsyncs_per_write",
                 Ratio(static_cast<double>(after.fsyncs - before.fsyncs),
                       static_cast<double>(writes)),
                 "ratio", "writes=" + std::to_string(writes));
  report->Metric("storage.wal_bytes_per_user_byte",
                 Ratio(static_cast<double>(after.append_bytes - before.append_bytes),
                       static_cast<double>(user_bytes)),
                 "ratio", "user_bytes=" + std::to_string(user_bytes));
}

}  // namespace perfbench
