#include "workload.h"

#include "core/generator.h"
#include "measure.h"
#include "sql/parser.h"

namespace perfbench {

mosaic::Result<IpfFit> FitIpf(mosaic::core::Database* db, const std::string& gp) {
  IpfFit fit;
  const int64_t t0 = NowNs();
  MOSAIC_ASSIGN_OR_RETURN(fit.report, db->ReweightForPopulation(gp));
  fit.ms = SecondsSince(t0) * 1e3;
  return fit;
}

void ReportProbes(Report* report, const LayerProbes& p) {
  report->Metric("sql.parse_replay_us", p.parse_replay_us, "us",
                 "sql::ParseStatement over the statement stream");
  report->Metric("core.generate_us", p.generate_us, "us",
                 "Database::GenerateOpenWorldTable, median");
  report->Metric("stats.ipf_fit_ms", p.ipf.ms, "ms",
                 "Database::ReweightForPopulation in set-up");
  report->Metric("stats.ipf_iterations", static_cast<double>(p.ipf.report.iterations),
                 "count", p.ipf.report.converged ? "converged" : "not converged");
  report->Metric("stats.ipf_max_l1", p.ipf.report.max_l1_error, "ratio");
  report->Metric("stats.uncovered_mass", p.ipf.report.uncovered_target_mass, "ratio");
  report->Metric("nn.train_ms", p.train_ms, "ms",
                 "core::TrainPopulationGenerator at the workload's budget");
  report->Metric("net.frames_per_stmt", p.frames_per_stmt, "count",
                 "Server::stats() frames received + sent per statement");
  report->Metric("net.inflight_highwater", p.inflight_highwater, "count");
  report->Metric("trace.overhead_us", p.trace_overhead_us, "us",
                 "traced p50 minus untraced p50 of " + p.overhead_basis);
}

double ParseReplayUs(const std::vector<std::string>& sqls) {
  std::vector<double> us;
  us.reserve(sqls.size());
  for (const std::string& sql : sqls) {
    const int64_t t0 = NowNs();
    auto parsed = mosaic::sql::ParseStatement(sql);
    us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    if (!parsed.ok()) return -1.0;
  }
  return us.empty() ? 0.0 : Median(us);
}

double GenerateUs(mosaic::core::Database* db, const std::string& gp,
                  size_t rows, int reps) {
  if (!db->GenerateOpenWorldTable(gp, rows, 1).ok()) return -1.0;
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = NowNs();
    if (!db->GenerateOpenWorldTable(gp, rows, 2 + static_cast<uint64_t>(i)).ok()) {
      return -1.0;
    }
    us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
  }
  return Median(us);
}

double TrainMs(const World& world, const WorldSpec& spec) {
  mosaic::core::GeneratorOptions go;
  go.mswg = spec.mswg;
  const int64_t t0 = NowNs();
  auto model = mosaic::core::TrainPopulationGenerator(
      mosaic::core::OpenEngine::kMswg, world.sample, world.marginals, go);
  if (!model.ok()) return -1.0;
  return SecondsSince(t0) * 1e3;
}

double KindP50(const std::vector<Sample>& samples, Kind kind) {
  std::vector<double> v;
  for (const Sample& s : samples) {
    if (s.kind == kind) v.push_back(s.ms);
  }
  return v.empty() ? 0.0 : Median(v);
}

std::vector<Sample> SamplesOf(const std::vector<Executed>& done) {
  std::vector<Sample> out;
  out.reserve(done.size());
  for (const Executed& e : done) out.push_back(e.sample);
  return out;
}

}  // namespace perfbench
