// The flights world every workload is built on (§5.3 of the paper): a
// generated flights population kept as ground truth, an elapsed-time
// biased sample of it, and value-level population marginals. Also the
// Table-2 answer-error probe (Fig. 7's mean percent difference).
#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/mswg.h"
#include "service/query_service.h"
#include "stats/ipf.h"
#include "stats/marginal.h"
#include "storage/table.h"

namespace perfbench {

/// One flight, with the carrier as an index into FlightCarriers().
struct Flight {
  int carrier = 0;
  int64_t taxi_out = 0;
  int64_t taxi_in = 0;
  int64_t elapsed = 0;
  int64_t distance = 0;
};

struct WorldSpec {
  size_t population_rows = 0;
  /// Sample size as a share of the population; 95% of the sample has
  /// elapsed_time > 200 where the population allows (the paper's bias).
  double sample_fraction = 0.05;
  /// Attribute lists of the population marginals.
  std::vector<std::vector<std::string>> marginals;
  /// OPEN-query budget (M-SWG training; rows per generated sample, ten
  /// samples per answer as in the paper).
  mosaic::core::MswgOptions mswg;
  size_t generated_rows = 2000;
  /// Cycles of a warm-started ingest refit (stats/ipf.h); 0 keeps the
  /// default.
  size_t incremental_max_iterations = 0;
  /// Population rows drawn with the run's seed and appended to the
  /// sample, so the answer-error probe varies with the seed.
  size_t seeded_tail_rows = 0;
};

/// The M-SWG budget bench_service uses: seconds, not minutes, per train.
mosaic::core::MswgOptions ReducedMswg();

struct World {
  mosaic::Table population;
  mosaic::Table sample;
  std::vector<Flight> population_rows;
  std::vector<Flight> sample_rows;
  std::vector<mosaic::stats::Marginal> marginals;
};

/// The population and the biased sample come from `world_seed`, a
/// fixed dataset like the paper's; the seeded tail from `seed`.
World MakeWorld(const WorldSpec& spec, uint64_t world_seed, uint64_t seed);

const std::string& CarrierName(int carrier);

/// "CREATE GLOBAL POPULATION <gp>", "CREATE SAMPLE <sample>", the
/// sample rows, the marginals and the OPEN / ingest-refit options, all
/// through core::Database's public API. Does not fit or train.
mosaic::Status LoadWorld(mosaic::core::Database* db, const World& world,
                         const WorldSpec& spec, const std::string& gp,
                         const std::string& sample);

/// "INSERT INTO <sample> VALUES (...)" for one flight.
std::string InsertSql(const std::string& sample, const Flight& f);

/// Raw bytes of one flight's values, the "user bytes" of a write.
size_t UserBytes(const Flight& f);

/// Answer-error probe over Table-2 queries 1-8 (thresholds 200 and
/// 1000), SEMI-OPEN and OPEN, against the population in `world`.
struct ErrorProbe {
  double semi_open_err = 0.0;  ///< mean over queries of Fig. 7's % diff
  double open_err = 0.0;
  std::vector<double> semi_open_per_query;
  std::vector<double> open_per_query;
};
mosaic::Result<ErrorProbe> ProbeErrors(mosaic::service::Session* session,
                                       const std::string& gp,
                                       const std::vector<Flight>& truth);

}  // namespace perfbench

#endif  // PERFBENCH_WORLD_H_
