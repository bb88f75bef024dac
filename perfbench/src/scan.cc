// `scan`: one in-process session in a closed loop over a 1M-row
// flights sample. Seeded literals keep almost every statement new to
// the result cache, so time goes to the executor (filter, group keys,
// accumulate, sort on 65536-row morsels). IPF is fit once in set-up;
// SEMI-OPEN statements only pin its weights afterwards.
#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "data/flights.h"
#include "workload.h"

namespace perfbench {
namespace {

using mosaic::Rng;
using mosaic::service::QueryService;

constexpr int64_t kMaxDistance = 4983;  // GenerateFlights clips here
constexpr int kCarriers = 14;
// Tail percentile per class (closed, semi_open, open, write), fixed so
// that each has at least ten samples beyond it at this workload's
// statement count. p99 of closed would have only ten to twelve beyond
// at 30 s, so it would flip with the machine's speed.
constexpr int kTailPct[kNumKinds] = {95, 95, 90, 90};

WorldSpec ScanSpec() {
  WorldSpec s;
  s.population_rows = 2000000;
  s.sample_fraction = 0.5;  // 1M sample rows, long flights over-represented
  s.marginals = {{"carrier", "elapsed_time"}};
  s.mswg = ReducedMswg();
  s.generated_rows = 500;
  s.seeded_tail_rows = 1000;
  return s;
}

const char* kCols[] = {"taxi_out", "taxi_in", "elapsed_time"};

int64_t ColOf(const Flight& f, int c) {
  return c == 0 ? f.taxi_out : c == 1 ? f.taxi_in : f.elapsed;
}

struct Stmt {
  Kind kind = Kind::kClosed;
  int tmpl = 0;  ///< 0 AVG, 1 GROUP BY, 2 ORDER BY LIMIT, 3/4 OPEN, 5 INSERT
  int col = 0;
  int64_t lit = 0;
  int64_t limit = 0;
  std::string sql;
};

/// Seeded statement stream. The class mix is exact: every block of 100
/// statements holds each template's fixed share, in a seeded order, so
/// a run's cost does not depend on how many of each the seed drew.
class Stream {
 public:
  explicit Stream(uint64_t seed) : rng_(seed) {
    // (template, visibility) shares out of 100: AVG, GROUP BY and
    // ORDER BY ... LIMIT; OPEN AVG and GROUP BY; INSERT.
    const std::pair<int, int> kShares[] = {{0, 18}, {10, 18}, {1, 14}, {11, 14},
                                           {2, 10}, {3, 6},   {4, 7},  {5, 13}};
    for (auto [code, n] : kShares) block_.insert(block_.end(), n, code);
  }

  Stmt Next() {
    if (pos_ % block_.size() == 0) {
      const std::vector<size_t> perm = rng_.Permutation(block_.size());
      order_.clear();
      for (size_t i : perm) order_.push_back(block_[i]);
    }
    const int code = order_[pos_++ % block_.size()];
    Stmt s;
    s.tmpl = code % 10;
    s.col = static_cast<int>(rng_.UniformInt(uint64_t{3}));
    s.lit = rng_.UniformInt(int64_t{31}, int64_t{2500});
    const char* vis = "CLOSED";
    if (code >= 10) {
      s.kind = Kind::kSemiOpen, vis = "SEMI-OPEN";
    } else if (code == 3 || code == 4) {
      s.kind = Kind::kOpen;
      s.lit = rng_.UniformInt(int64_t{31}, int64_t{1500});
    } else if (code == 5) {
      s.kind = Kind::kWrite;
    }
    const std::string d = std::to_string(s.lit);
    switch (s.tmpl) {
      case 0:
        s.sql = std::string("SELECT ") + vis + " AVG(" + kCols[s.col] +
                ") FROM F WHERE distance > " + d;
        break;
      case 1:
        s.col %= 2;
        s.sql = std::string("SELECT ") + vis +
                " carrier, SUM(elapsed_time) AS s, AVG(" + kCols[s.col] +
                ") AS a FROM F WHERE distance > " + d + " GROUP BY carrier";
        break;
      case 2:
        s.lit = rng_.UniformInt(int64_t{5}, int64_t{30});
        s.limit = rng_.UniformInt(int64_t{5}, int64_t{50});
        s.sql = "SELECT CLOSED distance, elapsed_time FROM F WHERE taxi_out > " +
                std::to_string(s.lit) +
                " ORDER BY distance DESC, elapsed_time LIMIT " +
                std::to_string(s.limit);
        break;
      case 3:
        s.sql = std::string("SELECT OPEN AVG(") + kCols[s.col] +
                ") FROM F WHERE distance > " + d;
        break;
      case 4:
        s.sql = std::string("SELECT OPEN carrier, AVG(") + kCols[s.col] +
                ") AS a FROM F WHERE distance > " + d + " GROUP BY carrier";
        break;
      default:
        s.sql = "INSERT INTO Notes VALUES (" + std::to_string(++writes_) +
                ", " + d + ")";
    }
    return s;
  }

 private:
  Rng rng_;
  std::vector<int> block_, order_;
  size_t pos_ = 0;
  int64_t writes_ = 0;
};

/// Plain C++ answers from the benchmark's own rows. SEMI-OPEN weights
/// follow from the single carrier x elapsed marginal in closed form:
/// one raking step fits it exactly, w = T(c) / S(c) * P / T_covered,
/// where T is the population count of cell c, S the sample count, P the
/// population size and T_covered the target mass in sampled cells.
class Reference {
 public:
  explicit Reference(const World& w) : rows_(w.sample_rows) {
    std::map<std::pair<int, int64_t>, double> target, sampled;
    for (const Flight& f : w.population_rows) target[{f.carrier, f.elapsed}] += 1;
    for (const Flight& f : rows_) sampled[{f.carrier, f.elapsed}] += 1;
    double covered = 0.0;
    for (const auto& [cell, n] : sampled) covered += target[cell];
    const double pop = static_cast<double>(w.population_rows.size());
    acc_.assign(kCarriers * (kMaxDistance + 2), Acc{});
    for (const Flight& f : rows_) {
      const double wt = target[{f.carrier, f.elapsed}] /
                        sampled[{f.carrier, f.elapsed}] * pop / covered;
      Acc& a = acc_[Index(f.carrier, f.distance)];
      a.n += 1;
      a.w += wt;
      for (int c = 0; c < 3; ++c) {
        a.s[c] += static_cast<double>(ColOf(f, c));
        a.ws[c] += wt * static_cast<double>(ColOf(f, c));
      }
    }
    // Suffix sums over distance: entry d covers distance >= d.
    for (int car = 0; car < kCarriers; ++car) {
      for (int64_t d = kMaxDistance; d >= 0; --d) {
        acc_[Index(car, d)].Add(acc_[Index(car, d + 1)]);
      }
    }
    order_.resize(rows_.size());
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::sort(order_.begin(), order_.end(), [this](size_t a, size_t b) {
      if (rows_[a].distance != rows_[b].distance) {
        return rows_[a].distance > rows_[b].distance;
      }
      return rows_[a].elapsed < rows_[b].elapsed;
    });
  }

  std::vector<Row> Expected(const Stmt& s) const {
    const bool semi = s.kind == Kind::kSemiOpen;
    std::vector<Row> out;
    if (s.tmpl == 0) {
      Acc total;
      for (int car = 0; car < kCarriers; ++car) total.Add(acc_[Index(car, s.lit + 1)]);
      out.push_back({Cell::Num(semi ? total.ws[s.col] / total.w
                                    : total.s[s.col] / total.n)});
    } else if (s.tmpl == 1) {
      for (int car = 0; car < kCarriers; ++car) {
        const Acc& a = acc_[Index(car, s.lit + 1)];
        if (a.n == 0) continue;
        out.push_back({Cell::Str(CarrierName(car)),
                       Cell::Num(semi ? a.ws[2] : a.s[2]),
                       Cell::Num(semi ? a.ws[s.col] / a.w : a.s[s.col] / a.n)});
      }
    } else if (s.tmpl == 2) {
      for (size_t i : order_) {
        if (static_cast<int64_t>(out.size()) == s.limit) break;
        if (rows_[i].taxi_out > s.lit) {
          out.push_back({Cell::Num(static_cast<double>(rows_[i].distance)),
                         Cell::Num(static_cast<double>(rows_[i].elapsed))});
        }
      }
    }
    return out;
  }

 private:
  struct Acc {
    double n = 0, w = 0, s[3] = {0, 0, 0}, ws[3] = {0, 0, 0};
    void Add(const Acc& o) {
      n += o.n;
      w += o.w;
      for (int c = 0; c < 3; ++c) s[c] += o.s[c], ws[c] += o.ws[c];
    }
  };
  static size_t Index(int carrier, int64_t d) {
    return static_cast<size_t>(carrier) * (kMaxDistance + 2) +
           static_cast<size_t>(std::min<int64_t>(d, kMaxDistance + 1));
  }

  const std::vector<Flight>& rows_;
  std::vector<Acc> acc_;
  std::vector<size_t> order_;
};

struct Live {
  std::unique_ptr<QueryService> service;
  IpfFit fit;
  double setup_s = 0.0;
};

Live SetUp(const World& world, const WorldSpec& spec, bool trace, Report* report) {
  Live live;
  const int64_t t0 = NowNs();
  live.service = std::make_unique<QueryService>(BenchServiceOptions(trace));
  auto* db = live.service->database();
  mosaic::Status st = LoadWorld(db, world, spec, "F", "FS");
  if (st.ok()) st = db->Execute("CREATE TABLE Notes (id INT, v INT)").status();
  if (st.ok()) {
    auto fit = FitIpf(db, "F");
    st = fit.status();
    if (fit.ok()) live.fit = *fit;
  }
  // Train the OPEN model now so the loop measures generation, not the
  // first statement's training.
  if (st.ok()) st = db->GenerateOpenWorldTable("F", 1, 0).status();
  if (!st.ok()) report->Fail("scan set-up: " + st.ToString());
  live.setup_s = SecondsSince(t0);
  return live;
}

std::vector<Executed> Loop(QueryService* service, uint64_t seed, double seconds,
                           TraceIds* ids, std::vector<Stmt>* stmts) {
  auto session = service->OpenSession();
  Stream stream(seed);
  std::vector<Executed> done;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < end) {
    Stmt s = stream.Next();
    Executed e;
    e.sample.kind = s.kind;
    mosaic::service::RequestContext ctx;
    if (ids != nullptr) {
      ctx.trace_id = e.sample.trace_id = ids->Next();
      ctx.sampled = true;
    }
    const int64_t t0 = NowNs();
    auto result = ids != nullptr ? session.Execute(s.sql, ctx) : session.Execute(s.sql);
    e.sample.end_ns = NowNs();
    e.sample.ms = static_cast<double>(e.sample.end_ns - t0) * 1e-6;
    e.ok = result.ok();
    if (e.ok) {
      e.rows = RowsOf(*result);
    } else {
      e.error = result.status().ToString();
    }
    e.sql = s.sql;
    done.push_back(std::move(e));
    stmts->push_back(std::move(s));
  }
  return done;
}

void Verify(QueryService* service, const std::vector<Executed>& done,
            const std::vector<Stmt>& stmts, const Reference& ref, Report* report) {
  report->Attempted(done.size());
  const std::vector<std::string> carriers = mosaic::data::FlightCarriers();
  size_t writes = 0;
  for (size_t i = 0; i < done.size(); ++i) {
    const Executed& e = done[i];
    const Stmt& s = stmts[i];
    if (!e.ok) {
      report->Fail(e.sql + ": " + e.error);
      continue;
    }
    std::string why;
    if (s.kind == Kind::kWrite) {
      ++writes;
    } else if (s.kind == Kind::kOpen) {
      why = CheckFiniteAndKeys(e.rows, carriers);
      if (why.empty() && e.rows.empty()) why = "empty OPEN answer";
    } else {
      why = Mismatch(e.rows, ref.Expected(s), 1e-9, s.tmpl == 1);
    }
    if (!why.empty()) report->Fail(e.sql + ": " + why);
  }
  auto count = service->Execute("SELECT COUNT(*) FROM Notes");
  if (!count.ok() || RowsOf(*count).at(0).at(0).d != static_cast<double>(writes)) {
    report->Fail("Notes does not hold every acknowledged INSERT");
  }
}

}  // namespace

void RunScan(const Options& opt, Report* report) {
  const WorldSpec spec = ScanSpec();
  World world = MakeWorld(spec, /*world_seed=*/2020, opt.seed);
  world.population = mosaic::Table();  // only its rows are needed now
  const Reference ref(world);
  RecordHost(report, opt, BenchServiceOptions(opt.trace));
  report->Info("flush_policy", "in-memory service (no data dir)");
  report->Info("data",
               "sample_rows=" + std::to_string(world.sample_rows.size()) +
                   " column_bytes=" + std::to_string(world.sample_rows.size() * 36) +
                   " l2_bytes=" + std::to_string(L2CacheBytes()) +
                   " result_cache_capacity=256 marginals=carrier x elapsed_time");
  report->Info("load", "1 in-process session, closed loop");

  if (!opt.trace) {
    std::vector<double> setups;
    Live live;
    for (int rep = 0; rep < 3; ++rep) {
      live = Live();  // release the previous service first
      ReleaseFreedMemory();
      live = SetUp(world, spec, false, report);
      setups.push_back(live.setup_s);
    }
    auto session = live.service->OpenSession();
    auto probe = ProbeErrors(&session, "F", world.population_rows);
    std::vector<Stmt> stmts;
    const double setup_peak_mb = PeakRssMb();
    const double cpu0 = ProcessCpuSeconds();
    const int64_t t0 = NowNs();
    std::vector<Executed> done = Loop(live.service.get(), opt.seed, opt.seconds,
                                      nullptr, &stmts);
    const double wall = SecondsSince(t0);
    report->Info("cpu_per_wall", std::to_string((ProcessCpuSeconds() - cpu0) / wall));
    Verify(live.service.get(), done, stmts, ref, report);
    const std::vector<Sample> samples = SamplesOf(done);
    ReportSetup(report, setups);
    const int64_t t1 = t0 + static_cast<int64_t>(wall * 1e9);
    ReportThroughputAndMemory(report, samples, t0, t1, setup_peak_mb);
    for (int k = 0; k < kNumKinds; ++k) {
      // Every class has dozens of statements in each window.
      ReportLatency(report, samples, static_cast<Kind>(k), kTailPct[k], kWindows,
                    t0, t1);
    }
    if (!probe.ok()) {
      report->Fail("error probe: " + probe.status().ToString());
      return;
    }
    report->Metric("semi_open_err", probe->semi_open_err, "%", "Table 2 q1-8, IPF");
    report->Metric("open_err", probe->open_err, "%", "Table 2 q1-8, M-SWG");
    return;
  }

  LayerProbes probes;
  probes.overhead_basis = "closed";
  double untraced_p50 = 0.0;
  {
    Live plain = SetUp(world, spec, false, report);
    std::vector<Stmt> stmts;
    auto done = Loop(plain.service.get(), opt.seed + 1, opt.seconds / 3, nullptr, &stmts);
    untraced_p50 = KindP50(SamplesOf(done), Kind::kClosed);
  }
  Live live = SetUp(world, spec, true, report);
  probes.ipf = live.fit;
  TraceIds ids(opt.seed);
  LayerInputs in;
  std::vector<Stmt> stmts;
  in.stats_before = live.service->Stats();
  const WalCounters wal0 = WalCounters::Read();
  std::vector<Executed> done;
  {
    QueryLogDrain drain;
    in.rss_before_mb = PeakRssMb();
    const double cpu0 = ProcessCpuSeconds();
    const int64_t t0 = NowNs();
    done = Loop(live.service.get(), opt.seed, opt.seconds, &ids, &stmts);
    in.wall_s = SecondsSince(t0);
    in.cpu_s = ProcessCpuSeconds() - cpu0;
    in.rss_after_mb = PeakRssMb();
    uint64_t lost = 0;
    in.records = drain.Finish(&lost);
    if (lost > 0) report->Fail(std::to_string(lost) + " query-log records lost");
  }
  in.stats_after = live.service->Stats();
  in.samples = SamplesOf(done);
  Verify(live.service.get(), done, stmts, ref, report);
  std::vector<std::string> sqls;
  for (const Executed& e : done) sqls.push_back(e.sql);
  probes.parse_replay_us = ParseReplayUs(sqls);
  probes.trace_overhead_us = (KindP50(in.samples, Kind::kClosed) - untraced_p50) * 1e3;
  probes.generate_us = GenerateUs(live.service->database(), "F", spec.generated_rows, 5);
  probes.train_ms = TrainMs(world, spec);
  ReportLayers(report, in);
  ReportProbes(report, probes);
  ReportStorage(report, wal0, WalCounters::Read(), 0, 0);
}

}  // namespace perfbench
