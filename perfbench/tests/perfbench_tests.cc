// The benchmark's own tests: exact quantiles and the tail rule, span
// self times, and the answer checker catching perturbed answers.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "check.h"
#include "measure.h"
#include "service/query_service.h"
#include "world.h"

namespace perfbench {
namespace {

TEST(Quantile, ExactOnKnownVectors) {
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Quantile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.9), 91.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.99), 100.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 101.0);
  // Interpolates between order statistics, never snaps to a bucket.
  EXPECT_DOUBLE_EQ(Quantile({0.0, 10.0}, 0.25), 2.5);
  // A log2 histogram would report 1024-ish for both; exact quantiles
  // keep them apart.
  EXPECT_LT(Median({937.7, 937.7, 937.7}), Median({1663.0, 1663.0, 1663.0}));
}

TEST(TailRule, HighestPercentileWithTenBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(SamplesBeyond(99, 90), 9u);
  EXPECT_EQ(TailPercentile(1000), 99);
  EXPECT_EQ(TailPercentile(999), 95);
  EXPECT_EQ(TailPercentile(200), 95);
  EXPECT_EQ(TailPercentile(199), 90);
  EXPECT_EQ(TailPercentile(100), 90);
  EXPECT_EQ(TailPercentile(99), 0);
  EXPECT_EQ(TailPercentile(0), 0);
}

TEST(Windows, SlowPhaseInOneWindowBarelyMovesTheMedians) {
  // Ten windows of 1 s, ten 1 ms statements completing in each; the
  // third window is a slow phase: 3 statements of 10 ms.
  const int64_t s = 1000000000;
  std::vector<double> ms;
  std::vector<int64_t> at;
  for (int w = 0; w < 10; ++w) {
    const int n = w == 2 ? 3 : 10;
    for (int i = 0; i < n; ++i) {
      ms.push_back(w == 2 ? 10.0 : 1.0);
      at.push_back(w * s + (i + 1) * s / (n + 1));
    }
  }
  const auto slices = Slices(ms, at, 0, 10 * s, 10);
  ASSERT_EQ(slices.size(), 10u);
  EXPECT_EQ(slices[2].size(), 3u);
  EXPECT_DOUBLE_EQ(WindowedQuantile(ms, at, 0, 10 * s, 10, 0.98), 1.0);
  EXPECT_DOUBLE_EQ(WindowedRate(at, 0, 10 * s, 10), 10.0);
  // Pooled, the slow phase owns the tail; one window is the pooled value.
  EXPECT_DOUBLE_EQ(Quantile(ms, 0.98), 10.0);
  EXPECT_DOUBLE_EQ(WindowedQuantile(ms, at, 0, 10 * s, 1, 0.98), 10.0);
  EXPECT_DOUBLE_EQ(WindowedRate(at, 0, 10 * s, 1), 9.3);
  // Stamps outside the loop land in its first or last window.
  const auto edges = Slices({1.0, 2.0}, {-5, 20 * s}, 0, 10 * s, 10);
  EXPECT_EQ(edges.front().size(), 1u);
  EXPECT_EQ(edges.back().size(), 1u);
}

TEST(SelfTimes, HandBuiltTree) {
  // statement [0,100): parse [0,10), execute [10,90)
  //   execute: filter [15,35) and two parallel morsel spans
  //   accumulate [30,60) and [40,70) that overlap each other.
  std::vector<SpanRec> spans = {
      {1, 0, "statement", 0, 100}, {2, 1, "parse", 0, 10},
      {3, 1, "execute", 10, 80},   {4, 3, "filter", 15, 20},
      {5, 3, "accumulate", 30, 30}, {6, 3, "accumulate", 40, 30},
      {7, 4, "late_child", 30, 50},  // runs past its parent: clipped
  };
  std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 10u);  // 100 - (10 + 80)
  EXPECT_EQ(self[1], 10u);
  EXPECT_EQ(self[2], 25u);  // 80 - union([15,70)) = 80 - 55
  EXPECT_EQ(self[3], 15u);  // 20 - [30,35)
  EXPECT_EQ(self[4], 30u);
  EXPECT_EQ(self[5], 30u);
  EXPECT_EQ(self[6], 50u);
}

TEST(Checker, CatchesPerturbedAnswers) {
  std::vector<Row> want = {{Cell::Str("AA"), Cell::Num(10.0), Cell::Num(2.5)},
                           {Cell::Str("WN"), Cell::Num(20.0), Cell::Num(1.25)}};
  std::vector<Row> reordered = {want[1], want[0]};
  EXPECT_EQ(Mismatch(reordered, want, 1e-9, /*sort_rows=*/true), "");
  EXPECT_NE(Mismatch(reordered, want, 1e-9, /*sort_rows=*/false), "");

  std::vector<Row> off = want;
  off[1][2].d *= 1.0 + 1e-7;
  EXPECT_NE(Mismatch(off, want, 1e-9, true), "");
  std::vector<Row> missing = {want[0]};
  EXPECT_NE(Mismatch(missing, want, 1e-9, true), "");
  std::vector<Row> renamed = want;
  renamed[0][0].s = "DL";
  EXPECT_NE(Mismatch(renamed, want, 1e-9, true), "");

  EXPECT_EQ(CheckFiniteAndKeys(want, {"AA", "WN"}), "");
  EXPECT_NE(CheckFiniteAndKeys(want, {"AA"}), "");
  std::vector<Row> nan = want;
  nan[0][1].d = std::nan("");
  EXPECT_NE(CheckFiniteAndKeys(nan, {}), "");
}

TEST(Checker, PlainReferenceMatchesTheEngineAndCatchesAPerturbation) {
  WorldSpec spec;
  spec.population_rows = 4000;
  spec.sample_fraction = 0.25;
  spec.marginals = {{"carrier", "elapsed_time"}};
  spec.mswg = ReducedMswg();
  const World world = MakeWorld(spec, 7, 8);
  mosaic::service::QueryService service;
  ASSERT_TRUE(LoadWorld(service.database(), world, spec, "F", "FS").ok());
  auto result = service.Execute(
      "SELECT CLOSED carrier, SUM(distance) AS s, AVG(taxi_out) AS a FROM F "
      "WHERE distance > 700 GROUP BY carrier");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::map<int, std::pair<double, std::pair<double, double>>> acc;
  for (const Flight& f : world.sample_rows) {
    if (f.distance <= 700) continue;
    auto& a = acc[f.carrier];
    a.first += static_cast<double>(f.distance);
    a.second.first += static_cast<double>(f.taxi_out);
    a.second.second += 1.0;
  }
  std::vector<Row> want;
  for (const auto& [car, a] : acc) {
    want.push_back({Cell::Str(CarrierName(car)), Cell::Num(a.first),
                    Cell::Num(a.second.first / a.second.second)});
  }
  const std::vector<Row> got = RowsOf(*result);
  EXPECT_EQ(Mismatch(got, want, 1e-9, true), "");

  std::vector<Row> perturbed = got;
  perturbed[0][1].d += 1.0;  // one more mile in one group's SUM
  EXPECT_NE(Mismatch(perturbed, want, 1e-9, true), "");
  EXPECT_EQ(CanonicalBytes(*result), CanonicalBytes(*result));
}

}  // namespace
}  // namespace perfbench
