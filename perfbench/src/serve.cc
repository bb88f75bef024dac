// `serve`: two loopback TCP connections to an in-process net::Server,
// closed loop, one QUERY frame per statement, against a durable service
// (WAL fsync per DML). A 20k-row sample under two categorical
// marginals keeps execution at tens of microseconds, so time goes to
// the client, the socket, the reactor, the request pool, the catalog
// lock, the result cache, the WAL fsync and the ingest-time IPF refit.
#include <filesystem>
#include <memory>
#include <thread>
#include <unistd.h>

#include "common/rng.h"
#include "data/flights.h"
#include "net/client.h"
#include "net/server.h"
#include "workload.h"

namespace perfbench {
namespace {

using mosaic::Rng;
using mosaic::service::QueryService;

constexpr int kCarriers = 14;
constexpr int64_t kMaxTaxiOut = 255;
// Tail percentile per class (closed, semi_open, open, write) at ~3500
// reads of each class and ~400 writes in 30 s; the ~50 OPENs fall short
// of ten beyond p90, which the run record flags. Each OPEN retrains and
// holds up one write, so ~12% of writes wait behind training and the
// p95 write sits inside that mode, not on its edge.
constexpr int kTailPct[kNumKinds] = {99, 99, 90, 95};
// The OPENs are too few to split; their quantiles pool the whole loop.
constexpr int kClassWindows[kNumKinds] = {kWindows, kWindows, 1, kWindows};
constexpr size_t kHotSet = 50;
constexpr uint64_t kOpenEvery = 75;  // client 1's OPEN cadence

WorldSpec ServeSpec() {
  WorldSpec s;
  s.population_rows = 400000;
  s.sample_fraction = 0.05;  // 20k sample rows
  s.marginals = {{"carrier"}, {"elapsed_time"}};
  s.mswg = ReducedMswg();
  s.generated_rows = 500;
  s.seeded_tail_rows = 10;
  s.incremental_max_iterations = 5;
  return s;
}

struct Stmt {
  Kind kind = Kind::kClosed;
  int tmpl = 0;  ///< 0-2 CLOSED, 3-5 SEMI-OPEN, 6 OPEN, 7 INSERT
  int64_t x = 0;
  std::string sql;
};

Stmt MakeStmt(int tmpl, int64_t x) {
  Stmt s;
  s.tmpl = tmpl;
  s.x = x;
  const std::string w = " WHERE taxi_out > " + std::to_string(x);
  switch (tmpl) {
    case 0:
      s.sql = "SELECT CLOSED COUNT(*) AS n, SUM(distance) AS s FROM F" + w;
      break;
    case 1:
      s.sql = "SELECT CLOSED carrier, COUNT(*) AS n, AVG(taxi_in) AS a FROM F" +
              w + " GROUP BY carrier";
      break;
    case 2:  // the sample itself: pins a weight epoch
      s.sql = "SELECT CLOSED COUNT(*) AS n, AVG(elapsed_time) AS a FROM FS" + w;
      break;
    case 3:
      s.kind = Kind::kSemiOpen;
      s.sql = "SELECT SEMI-OPEN COUNT(*) AS n FROM F";
      break;
    case 4:
      s.kind = Kind::kSemiOpen;
      s.sql = "SELECT SEMI-OPEN carrier, SUM(distance) AS s FROM F" + w +
              " GROUP BY carrier";
      break;
    case 5:
      s.kind = Kind::kSemiOpen;
      s.sql = "SELECT SEMI-OPEN AVG(distance) AS a FROM F" + w;
      break;
    default:
      s.kind = Kind::kOpen;
      s.sql = "SELECT OPEN carrier, COUNT(*) AS n FROM F" + w + " GROUP BY carrier";
  }
  return s;
}

/// The seeded hot set every client draws 75% of its statements from,
/// uniformly: CLOSED and SEMI-OPEN templates alternating. Writes (5%)
/// bump the catalog version the result cache is keyed on, so between
/// two writes only repeats hit.
std::vector<Stmt> HotSet(uint64_t seed) {
  Rng rng(seed ^ 0x5eedULL);
  std::vector<Stmt> hot;
  while (hot.size() < kHotSet) {
    // Pair k is (SEMI-OPEN, CLOSED); the literal-free weighted
    // COUNT(*) leads, then the literal templates take turns.
    const size_t i = hot.size();
    const size_t k = i / 2;
    const int tmpl = i % 2 == 1 ? static_cast<int>(k % 3)
                     : k == 0   ? 3
                                : 4 + static_cast<int>(k % 2);
    // Literals stratified over [1, 30] (seeded jitter), so every seed's
    // hot set has the same spread of selectivities.
    const int64_t x = 1 + static_cast<int64_t>(k) * 28 / 24 +
                      rng.UniformInt(int64_t{0}, int64_t{1});
    hot.push_back(MakeStmt(tmpl, x));
  }
  return hot;
}

/// One client's seeded stream: every tenth statement of client 0 is a
/// write, every kOpenEvery-th of client 1 an OPEN read; the rest are
/// hot reads (79%) or cold reads with fresh literals.
class Stream {
 public:
  Stream(uint64_t seed, const std::vector<Stmt>* hot, const World* world,
         bool writer)
      : rng_(seed), hot_(hot), world_(world), writer_(writer) {}

  Stmt Next() {
    ++n_;
    if (writer_ && n_ % 10 == 0) {
      const Flight& f = world_->population_rows[rng_.UniformInt(
          uint64_t{world_->population_rows.size()})];
      Stmt s;
      s.kind = Kind::kWrite;
      s.tmpl = 7;
      s.sql = InsertSql("FS", f);
      inserted.push_back(f);
      return s;
    }
    // Every ingest drops the trained models, so each OPEN retrains; a
    // fixed cadence keeps their count, and their cost, steady.
    if (!writer_ && n_ % kOpenEvery == 0) {
      return MakeStmt(6, rng_.UniformInt(int64_t{1}, int64_t{30}));
    }
    if (rng_.Uniform() < 0.79) return (*hot_)[rng_.UniformInt(uint64_t{hot_->size()})];
    static const int kCold[] = {0, 1, 2, 4, 5};  // templates with literals
    return MakeStmt(kCold[rng_.UniformInt(uint64_t{5})],
                    rng_.UniformInt(int64_t{1}, int64_t{30}));
  }

  std::vector<Flight> inserted;  ///< in send order

 private:
  Rng rng_;
  const std::vector<Stmt>* hot_;
  const World* world_;
  bool writer_;
  uint64_t n_ = 0;
};

/// One reply plus the window of write-sequence states it may reflect:
/// at least `lo` inserts were acknowledged before it was sent, at most
/// `hi` had been sent when it returned.
struct Reply {
  Executed e;
  Stmt stmt;
  int64_t lo = 0, hi = 0;
  size_t bytes_hash = 0;
};

struct Live {
  std::unique_ptr<QueryService> service;
  std::unique_ptr<mosaic::net::Server> server;
  // Held by pointer: a moved net::Client forgets the server's protocol
  // minor version and then silently drops trace contexts.
  std::vector<std::unique_ptr<mosaic::net::Client>> clients;
  std::string data_dir;
  IpfFit fit;
  double setup_s = 0.0;

  ~Live() {
    clients.clear();
    if (server) server->Shutdown();
    server.reset();
    service.reset();
    if (!data_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(data_dir, ec);
    }
  }
};

std::unique_ptr<Live> SetUp(const World& world, const WorldSpec& spec,
                            const Options& opt, bool trace, int rep,
                            Report* report) {
  auto live = std::make_unique<Live>();
  live->data_dir = opt.work_dir + "/serve-" + std::to_string(getpid()) + "-" +
                   std::to_string(rep);
  std::error_code ec;
  std::filesystem::remove_all(live->data_dir, ec);
  std::filesystem::create_directories(live->data_dir, ec);
  const int64_t t0 = NowNs();
  auto options = BenchServiceOptions(trace);
  options.data_dir = live->data_dir;
  live->service = std::make_unique<QueryService>(options);
  auto* db = live->service->database();
  mosaic::Status st = live->service->durability_status();
  if (st.ok()) st = LoadWorld(db, world, spec, "F", "FS");
  if (st.ok()) {
    auto fit = FitIpf(db, "F");
    st = fit.status();
    if (fit.ok()) live->fit = *fit;
  }
  if (st.ok()) st = db->GenerateOpenWorldTable("F", 1, 0).status();
  if (st.ok()) {
    live->server = std::make_unique<mosaic::net::Server>(
        live->service.get(), mosaic::net::ServerOptions());
    st = live->server->Start();
  }
  for (int c = 0; c < 2 && st.ok(); ++c) {
    mosaic::net::ClientOptions co;
    co.port = live->server->port();
    co.client_name = "perfbench";
    live->clients.push_back(std::make_unique<mosaic::net::Client>());
    st = live->clients.back()->Connect(co);
  }
  if (!st.ok()) report->Fail("serve set-up: " + st.ToString());
  live->setup_s = SecondsSince(t0);
  return live;
}

struct LoopResult {
  std::vector<Reply> replies;
  std::vector<Flight> inserted;
  int64_t start_ns = 0;
  double wall_s = 0.0;
};

LoopResult Loop(Live* live, const World& world, const std::vector<Stmt>& hot,
                uint64_t seed, double seconds, TraceIds* ids) {
  std::atomic<int64_t> started{0}, acked{0};
  std::vector<std::vector<Reply>> per_client(2);
  Stream s0(seed * 2 + 11, &hot, &world, true), s1(seed * 2 + 12, &hot, &world, false);
  Stream* streams[2] = {&s0, &s1};
  const int64_t t_start = NowNs();
  const int64_t t_end = t_start + static_cast<int64_t>(seconds * 1e9);
  auto run = [&](int c) {
    mosaic::net::Client& client = *live->clients[static_cast<size_t>(c)];
    while (NowNs() < t_end) {
      Reply r;
      r.stmt = streams[c]->Next();
      r.e.sample.kind = r.stmt.kind;
      r.e.sql = r.stmt.sql;
      const bool write = r.stmt.kind == Kind::kWrite;
      if (write) started.fetch_add(1);
      r.lo = acked.load();
      mosaic::net::TraceContext ctx;
      if (ids != nullptr) {
        ctx.trace_id = r.e.sample.trace_id = ids->Next();
        ctx.sampled = true;
      }
      const int64_t t0 = NowNs();
      auto result = ids != nullptr ? client.Query(r.stmt.sql, ctx)
                                   : client.Query(r.stmt.sql);
      r.e.sample.end_ns = NowNs();
      r.e.sample.ms = static_cast<double>(r.e.sample.end_ns - t0) * 1e-6;
      if (write) acked.fetch_add(1);
      r.hi = started.load();
      r.e.ok = result.ok();
      if (r.e.ok) {
        r.e.rows = RowsOf(*result);
        r.bytes_hash = std::hash<std::string>()(CanonicalBytes(*result));
      } else {
        r.e.error = result.status().ToString();
        if (!client.connected()) break;
      }
      per_client[static_cast<size_t>(c)].push_back(std::move(r));
    }
  };
  std::thread t1(run, 1);
  run(0);
  t1.join();
  LoopResult out;
  out.start_ns = t_start;
  out.wall_s = SecondsSince(t_start);
  for (auto& v : per_client) {
    for (auto& r : v) out.replies.push_back(std::move(r));
  }
  out.inserted = s0.inserted;
  return out;
}

/// CLOSED answers from the sample rows plus the first k inserted rows,
/// bucketed by (carrier, taxi_out).
class Reference {
 public:
  Reference(const std::vector<Flight>& base) : cells_(kCarriers * (kMaxTaxiOut + 1)) {
    for (const Flight& f : base) Add(f);
  }
  void Add(const Flight& f) {
    Acc& a = cells_[static_cast<size_t>(f.carrier) * (kMaxTaxiOut + 1) +
                    static_cast<size_t>(std::min(f.taxi_out, kMaxTaxiOut))];
    a.n += 1;
    a.dist += static_cast<double>(f.distance);
    a.in += static_cast<double>(f.taxi_in);
    a.el += static_cast<double>(f.elapsed);
  }
  std::vector<Row> Expected(const Stmt& s) const {
    std::vector<Acc> by_carrier(kCarriers);
    Acc total;
    for (int car = 0; car < kCarriers; ++car) {
      for (int64_t o = s.x + 1; o <= kMaxTaxiOut; ++o) {
        const Acc& a = cells_[static_cast<size_t>(car) * (kMaxTaxiOut + 1) +
                              static_cast<size_t>(o)];
        by_carrier[static_cast<size_t>(car)].Add(a);
        total.Add(a);
      }
    }
    std::vector<Row> out;
    if (s.tmpl == 0) {
      out.push_back({Cell::Num(total.n), Cell::Num(total.dist)});
    } else if (s.tmpl == 1) {
      for (int car = 0; car < kCarriers; ++car) {
        const Acc& a = by_carrier[static_cast<size_t>(car)];
        if (a.n > 0) {
          out.push_back({Cell::Str(CarrierName(car)), Cell::Num(a.n),
                         Cell::Num(a.in / a.n)});
        }
      }
    } else {
      out.push_back({Cell::Num(total.n), Cell::Num(total.el / total.n)});
    }
    return out;
  }

 private:
  struct Acc {
    double n = 0, dist = 0, in = 0, el = 0;
    void Add(const Acc& o) { n += o.n, dist += o.dist, in += o.in, el += o.el; }
  };
  std::vector<Acc> cells_;
};

void Verify(const LoopResult& lr, const World& world, double population,
            Report* report) {
  report->Attempted(lr.replies.size());
  const std::vector<std::string> carriers = mosaic::data::FlightCarriers();
  std::vector<bool> passed(lr.replies.size(), false);
  // (k, reply) pairs for every write-sequence state a CLOSED reply may
  // reflect; swept in k order against an incrementally built reference.
  std::vector<std::pair<int64_t, size_t>> todo;
  std::map<std::pair<std::string, int64_t>, size_t> first_bytes;
  for (size_t i = 0; i < lr.replies.size(); ++i) {
    const Reply& r = lr.replies[i];
    if (!r.e.ok) {
      report->Fail(r.e.sql + ": " + r.e.error);
      continue;
    }
    if (r.lo == r.hi && r.stmt.kind != Kind::kWrite) {
      auto [it, fresh] = first_bytes.insert({{r.e.sql, r.lo}, r.bytes_hash});
      if (!fresh && it->second != r.bytes_hash) {
        report->Fail(r.e.sql + ": repeat at the same catalog state differs");
        continue;
      }
    }
    std::string why;
    switch (r.stmt.kind) {
      case Kind::kWrite:
        passed[i] = true;
        break;
      case Kind::kClosed:
        for (int64_t k = r.lo; k <= r.hi; ++k) todo.push_back({k, i});
        break;
      case Kind::kSemiOpen:
        why = CheckFiniteAndKeys(r.e.rows, carriers);
        if (why.empty() && r.stmt.tmpl == 3) {
          why = Mismatch(r.e.rows, {{Cell::Num(population)}}, 1e-6, false);
        }
        passed[i] = why.empty();
        break;
      case Kind::kOpen:
        why = CheckFiniteAndKeys(r.e.rows, carriers);
        passed[i] = why.empty();
        break;
    }
    if (!why.empty()) report->Fail(r.e.sql + ": " + why);
  }
  std::sort(todo.begin(), todo.end());
  Reference ref(world.sample_rows);
  int64_t applied = 0;
  std::vector<std::string> last_why(lr.replies.size());
  for (const auto& [k, i] : todo) {
    while (applied < k && applied < static_cast<int64_t>(lr.inserted.size())) {
      ref.Add(lr.inserted[static_cast<size_t>(applied++)]);
    }
    if (passed[i]) continue;
    last_why[i] = Mismatch(lr.replies[i].e.rows, ref.Expected(lr.replies[i].stmt),
                           1e-9, lr.replies[i].stmt.tmpl == 1);
    passed[i] = last_why[i].empty();
  }
  for (size_t i = 0; i < lr.replies.size(); ++i) {
    if (lr.replies[i].e.ok && lr.replies[i].stmt.kind == Kind::kClosed && !passed[i]) {
      report->Fail(lr.replies[i].e.sql + ": " + last_why[i]);
    }
  }
}

std::vector<Sample> SamplesOf(const LoopResult& lr) {
  std::vector<Sample> out;
  for (const Reply& r : lr.replies) out.push_back(r.e.sample);
  return out;
}

}  // namespace

void RunServe(const Options& opt, Report* report) {
  const WorldSpec spec = ServeSpec();
  const World world = MakeWorld(spec, /*world_seed=*/2021, opt.seed);
  const double population = static_cast<double>(world.population_rows.size());
  const std::vector<Stmt> hot = HotSet(opt.seed);
  RecordHost(report, opt, BenchServiceOptions(opt.trace));
  report->Info("flush_policy",
               "durable data dir, WAL fsync on every DML (durable_fsync_dml=1, "
               "the product default)");
  report->Info("data", "sample_rows=" + std::to_string(world.sample_rows.size()) +

                           " hot_set=" + std::to_string(kHotSet) +
                           " result_cache_capacity=256 l2_bytes=" +
                           std::to_string(L2CacheBytes()) +
                           " marginals=carrier; elapsed_time");
  report->Info("load", "2 loopback TCP connections, closed loop, one QUERY "
                       "frame per statement; client 0 also writes");

  if (!opt.trace) {
    std::vector<double> setups;
    std::unique_ptr<Live> live;
    for (int rep = 0; rep < 3; ++rep) {
      live.reset();
      ReleaseFreedMemory();
      live = SetUp(world, spec, opt, false, rep, report);
      setups.push_back(live->setup_s);
    }
    auto session = live->service->OpenSession();
    auto probe = ProbeErrors(&session, "F", world.population_rows);
    const double setup_peak_mb = PeakRssMb();
    LoopResult lr = Loop(live.get(), world, hot, opt.seed, opt.seconds, nullptr);
    Verify(lr, world, population, report);
    const std::vector<Sample> samples = SamplesOf(lr);
    ReportSetup(report, setups);
    const int64_t t1 = lr.start_ns + static_cast<int64_t>(lr.wall_s * 1e9);
    ReportThroughputAndMemory(report, samples, lr.start_ns, t1, setup_peak_mb);
    for (int k = 0; k < kNumKinds; ++k) {
      ReportLatency(report, samples, static_cast<Kind>(k), kTailPct[k],
                    kClassWindows[k], lr.start_ns, t1);
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
    auto plain = SetUp(world, spec, opt, false, 0, report);
    LoopResult lr = Loop(plain.get(), world, hot, opt.seed + 1, opt.seconds / 3, nullptr);
    untraced_p50 = KindP50(SamplesOf(lr), Kind::kClosed);
  }
  auto live = SetUp(world, spec, opt, true, 1, report);
  probes.ipf = live->fit;
  TraceIds ids(opt.seed);
  LayerInputs in;
  in.networked = true;
  in.stats_before = live->service->Stats();
  const auto net0 = live->server->stats();
  const WalCounters wal0 = WalCounters::Read();
  LoopResult lr;
  {
    QueryLogDrain drain;
    in.rss_before_mb = PeakRssMb();
    const double cpu0 = ProcessCpuSeconds();
    lr = Loop(live.get(), world, hot, opt.seed, opt.seconds, &ids);
    in.wall_s = lr.wall_s;
    in.cpu_s = ProcessCpuSeconds() - cpu0;
    in.rss_after_mb = PeakRssMb();
    uint64_t lost = 0;
    in.records = drain.Finish(&lost);
    if (lost > 0) report->Fail(std::to_string(lost) + " query-log records lost");
  }
  const WalCounters wal1 = WalCounters::Read();
  const auto net1 = live->server->stats();
  in.stats_after = live->service->Stats();
  in.samples = SamplesOf(lr);
  Verify(lr, world, population, report);
  std::vector<std::string> sqls;
  uint64_t user_bytes = 0;
  for (const Reply& r : lr.replies) sqls.push_back(r.e.sql);
  for (const Flight& f : lr.inserted) user_bytes += UserBytes(f);
  probes.parse_replay_us = ParseReplayUs(sqls);
  probes.trace_overhead_us = (KindP50(in.samples, Kind::kClosed) - untraced_p50) * 1e3;
  probes.frames_per_stmt =
      static_cast<double>((net1.frames_received - net0.frames_received) +
                          (net1.frames_sent - net0.frames_sent)) /
      static_cast<double>(std::max<size_t>(1, lr.replies.size()));
  probes.inflight_highwater = static_cast<double>(net1.inflight_highwater);
  probes.generate_us = GenerateUs(live->service->database(), "F", spec.generated_rows, 5);
  probes.train_ms = TrainMs(world, spec);
  ReportLayers(report, in);
  ReportProbes(report, probes);
  ReportStorage(report, wal0, wal1, lr.inserted.size(), user_bytes);
}

}  // namespace perfbench
