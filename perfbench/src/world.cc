#include "world.h"

#include <cmath>

#include "check.h"
#include "common/rng.h"
#include "data/flights.h"

namespace perfbench {

using mosaic::Result;
using mosaic::Status;
using mosaic::Table;

mosaic::core::MswgOptions ReducedMswg() {
  mosaic::core::MswgOptions m;
  m.epochs = 4;
  m.steps_per_epoch = 8;
  m.batch_size = 128;
  m.num_projections = 64;
  m.projections_per_step = 8;
  return m;
}

const std::string& CarrierName(int carrier) {
  return mosaic::data::FlightCarriers()[static_cast<size_t>(carrier)];
}

namespace {

std::vector<Flight> FlightsOf(const Table& table) {
  const auto& names = mosaic::data::FlightCarriers();
  std::map<std::string, int> code;
  for (size_t i = 0; i < names.size(); ++i) code[names[i]] = static_cast<int>(i);
  const int64_t* out = table.column(1).raw_int64();
  const int64_t* in = table.column(2).raw_int64();
  const int64_t* el = table.column(3).raw_int64();
  const int64_t* di = table.column(4).raw_int64();
  std::vector<Flight> rows(table.num_rows());
  for (size_t r = 0; r < rows.size(); ++r) {
    rows[r] = Flight{code.at(table.GetValue(r, 0).AsString()), out[r], in[r],
                     el[r], di[r]};
  }
  return rows;
}

}  // namespace

World MakeWorld(const WorldSpec& spec, uint64_t world_seed, uint64_t seed) {
  World w;
  mosaic::Rng rng(world_seed);
  mosaic::data::FlightsOptions fo;
  fo.num_rows = spec.population_rows;
  w.population = mosaic::data::GenerateFlights(fo, &rng);
  mosaic::data::FlightsBiasOptions bias;
  bias.sample_fraction = spec.sample_fraction;
  w.sample = mosaic::data::DrawBiasedFlightsSample(w.population, bias, &rng)
                 .value();
  mosaic::Rng tail_rng(seed);
  for (size_t i = 0; i < spec.seeded_tail_rows; ++i) {
    const size_t r = tail_rng.UniformInt(uint64_t{w.population.num_rows()});
    (void)w.sample.AppendRow(w.population.GetRow(r));
  }
  for (const auto& attrs : spec.marginals) {
    w.marginals.push_back(
        mosaic::stats::Marginal::FromData(w.population, attrs).value());
  }
  w.population_rows = FlightsOf(w.population);
  w.sample_rows = FlightsOf(w.sample);
  return w;
}

Status LoadWorld(mosaic::core::Database* db, const World& world,
                 const WorldSpec& spec, const std::string& gp,
                 const std::string& sample) {
  MOSAIC_RETURN_IF_ERROR(
      db->Execute("CREATE GLOBAL POPULATION " + gp +
                  " (carrier VARCHAR, taxi_out INT, taxi_in INT, "
                  "elapsed_time INT, distance INT)")
          .status());
  MOSAIC_RETURN_IF_ERROR(
      db->Execute("CREATE SAMPLE " + sample + " AS (SELECT * FROM " + gp + ")")
          .status());
  MOSAIC_RETURN_IF_ERROR(db->IngestSample(sample, world.sample));
  for (size_t i = 0; i < world.marginals.size(); ++i) {
    MOSAIC_RETURN_IF_ERROR(db->RegisterMarginal(
        gp, gp + "_M" + std::to_string(i), world.marginals[i]));
  }
  auto* open = db->mutable_open_options();
  open->mswg = spec.mswg;
  open->generated_rows = spec.generated_rows;
  open->num_generated_samples = 10;
  auto* ipf = &db->mutable_semi_open_options()->ipf;
  if (spec.incremental_max_iterations > 0) {
    ipf->incremental_max_iterations = spec.incremental_max_iterations;
  }
  return Status::OK();
}

std::string InsertSql(const std::string& sample, const Flight& f) {
  return "INSERT INTO " + sample + " VALUES ('" + CarrierName(f.carrier) +
         "', " + std::to_string(f.taxi_out) + ", " +
         std::to_string(f.taxi_in) + ", " + std::to_string(f.elapsed) +
         ", " + std::to_string(f.distance) + ")";
}

size_t UserBytes(const Flight& f) {
  return CarrierName(f.carrier).size() + 4 * sizeof(int64_t);
}

namespace {

enum Attr { kTaxiOut, kTaxiIn, kElapsed, kDistance };

int64_t Get(const Flight& f, Attr a) {
  switch (a) {
    case kTaxiOut: return f.taxi_out;
    case kTaxiIn: return f.taxi_in;
    case kElapsed: return f.elapsed;
    case kDistance: return f.distance;
  }
  return 0;
}

const char* Name(Attr a) {
  static const char* kNames[] = {"taxi_out", "taxi_in", "elapsed_time",
                                 "distance"};
  return kNames[a];
}

/// Table 2 of the paper: AVG(target) WHERE filter {>,<} threshold,
/// queries 5-8 grouped by carrier over an IN-list.
struct Table2Query {
  Attr target;
  Attr filter;
  bool greater;
  int64_t threshold;
  std::vector<std::string> carriers;  ///< empty = ungrouped
};

std::vector<Table2Query> Table2() {
  const std::vector<std::string> big = {"WN", "AA"}, light = {"US", "F9"};
  return {{kDistance, kElapsed, true, 200, {}},
          {kTaxiIn, kElapsed, false, 200, {}},
          {kElapsed, kDistance, true, 1000, {}},
          {kTaxiOut, kDistance, false, 1000, {}},
          {kDistance, kElapsed, true, 200, big},
          {kTaxiIn, kElapsed, false, 200, big},
          {kElapsed, kDistance, true, 1000, big},
          {kTaxiOut, kDistance, false, 1000, light}};
}

std::string Sql(const Table2Query& q, const char* vis, const std::string& gp) {
  std::string where = std::string(Name(q.filter)) + (q.greater ? " > " : " < ") +
                      std::to_string(q.threshold);
  if (q.carriers.empty()) {
    return std::string("SELECT ") + vis + " AVG(" + Name(q.target) +
           ") FROM " + gp + " WHERE " + where;
  }
  return std::string("SELECT ") + vis + " carrier, AVG(" + Name(q.target) +
         ") FROM " + gp + " WHERE " + where + " AND carrier IN ('" +
         q.carriers[0] + "','" + q.carriers[1] + "') GROUP BY carrier";
}

using Answer = std::map<std::string, double>;

Answer Truth(const Table2Query& q, const std::vector<Flight>& rows) {
  std::map<std::string, std::pair<double, double>> acc;
  for (const Flight& f : rows) {
    int64_t v = Get(f, q.filter);
    if (q.greater ? v <= q.threshold : v >= q.threshold) continue;
    std::string key;
    if (!q.carriers.empty()) {
      key = CarrierName(f.carrier);
      if (key != q.carriers[0] && key != q.carriers[1]) continue;
    }
    acc[key].first += static_cast<double>(Get(f, q.target));
    acc[key].second += 1.0;
  }
  Answer out;
  for (const auto& [k, s] : acc) out[k] = s.first / s.second;
  return out;
}

/// Fig. 7's metric: mean percent difference over the truth's groups,
/// a missing group counting as 100 percent.
double PercentError(const Answer& est, const Answer& truth) {
  if (truth.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& [k, t] : truth) {
    auto it = est.find(k);
    acc += it == est.end() ? 100.0 : std::fabs(it->second - t) / std::fabs(t) * 100.0;
  }
  return acc / static_cast<double>(truth.size());
}

Result<Answer> Ask(mosaic::service::Session* session, const std::string& sql) {
  auto result = session->Execute(sql);
  if (!result.ok()) return result.status();
  Answer out;
  for (const Row& row : RowsOf(*result)) {
    if (row.size() == 1) {
      out[""] = row[0].d;
    } else {
      out[row[0].s] = row[1].d;
    }
  }
  return out;
}

}  // namespace

Result<ErrorProbe> ProbeErrors(mosaic::service::Session* session,
                               const std::string& gp,
                               const std::vector<Flight>& truth) {
  ErrorProbe probe;
  for (const Table2Query& q : Table2()) {
    Answer t = Truth(q, truth);
    MOSAIC_ASSIGN_OR_RETURN(Answer semi, Ask(session, Sql(q, "SEMI-OPEN", gp)));
    MOSAIC_ASSIGN_OR_RETURN(Answer open, Ask(session, Sql(q, "OPEN", gp)));
    probe.semi_open_per_query.push_back(PercentError(semi, t));
    probe.open_per_query.push_back(PercentError(open, t));
  }
  for (double e : probe.semi_open_per_query) probe.semi_open_err += e;
  for (double e : probe.open_per_query) probe.open_err += e;
  probe.semi_open_err /= static_cast<double>(probe.semi_open_per_query.size());
  probe.open_err /= static_cast<double>(probe.open_per_query.size());
  return probe;
}

}  // namespace perfbench
