// Pieces the workloads assemble: the timed loop's statement
// record, layer probes the benchmark times itself around public calls,
// and the per-layer metrics that come from those probes.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <string>
#include <vector>

#include "check.h"
#include "core/database.h"
#include "harness.h"
#include "world.h"

namespace perfbench {

/// Run one workload; failures go to the report.
void RunScan(const Options& opt, Report* report);
void RunServe(const Options& opt, Report* report);

/// Seconds since `start_ns`.
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// ReweightForPopulation timed (the benchmark's own `stats.ipf_fit`
/// span), with the fit's report.
struct IpfFit {
  double ms = 0.0;
  mosaic::stats::IpfReport report;
};
mosaic::Result<IpfFit> FitIpf(mosaic::core::Database* db, const std::string& gp);

/// Per-layer metrics the benchmark measures by timing public calls
/// itself; zero where the workload's layer does no such work.
struct LayerProbes {
  double parse_replay_us = 0.0;  ///< sql::ParseStatement over the stream
  double generate_us = 0.0;      ///< Database::GenerateOpenWorldTable
  IpfFit ipf;                    ///< the set-up fit
  double train_ms = 0.0;         ///< core::TrainPopulationGenerator
  double frames_per_stmt = 0.0;
  double inflight_highwater = 0.0;
  double trace_overhead_us = 0.0;  ///< traced p50 minus untraced p50
  std::string overhead_basis;      ///< which class the overhead compares
};
void ReportProbes(Report* report, const LayerProbes& p);

/// Median microseconds of sql::ParseStatement over `sqls`.
double ParseReplayUs(const std::vector<std::string>& sqls);

/// Median microseconds of `reps` GenerateOpenWorldTable calls, after
/// one untimed call that trains a stale model.
double GenerateUs(mosaic::core::Database* db, const std::string& gp,
                  size_t rows, int reps);

/// Milliseconds of one M-SWG training at the workload's budget.
double TrainMs(const World& world, const WorldSpec& spec);

/// Client-side p50 (ms) of one class.
double KindP50(const std::vector<Sample>& samples, Kind kind);

/// Statement text and client latency of every executed statement, plus
/// the reply to check after the loop.
struct Executed {
  Sample sample;
  std::string sql;
  std::vector<Row> rows;
  bool ok = false;
  std::string error;
};

std::vector<Sample> SamplesOf(const std::vector<Executed>& done);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
