// Exact order statistics over raw per-statement samples, their medians
// over windows of the timed loop, the tail percentile rule, and
// span-tree self times. Header-only so the benchmark's own tests
// exercise exactly the code the runs use.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

/// Exact q-quantile (0 <= q <= 1) of raw samples: linear interpolation
/// between the two closest order statistics (numpy's default, Hyndman
/// & Fan type 7). Never bucketed. Empty input yields 0.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// `values` split by their time stamps `at` into `windows` equal slices
/// of [start, end); a stamp outside the range goes to the nearest end
/// slice.
inline std::vector<std::vector<double>> Slices(const std::vector<double>& values,
                                               const std::vector<int64_t>& at,
                                               int64_t start, int64_t end,
                                               int windows) {
  std::vector<std::vector<double>> out(static_cast<size_t>(std::max(1, windows)));
  const double span = static_cast<double>(std::max<int64_t>(1, end - start));
  for (size_t i = 0; i < values.size(); ++i) {
    const double pos = static_cast<double>(at[i] - start) / span *
                       static_cast<double>(out.size());
    const double clamped =
        std::min(std::max(pos, 0.0), static_cast<double>(out.size() - 1));
    out[static_cast<size_t>(clamped)].push_back(values[i]);
  }
  return out;
}

/// Median over the non-empty slices of each slice's q-quantile. A slow
/// phase of the host that covers fewer than half of the slices moves it
/// far less than it moves the quantile of the pooled samples; one
/// window gives the pooled quantile.
inline double WindowedQuantile(const std::vector<double>& values,
                               const std::vector<int64_t>& at, int64_t start,
                               int64_t end, int windows, double q) {
  std::vector<double> per;
  for (const auto& s : Slices(values, at, start, end, windows)) {
    if (!s.empty()) per.push_back(Quantile(s, q));
  }
  return per.empty() ? 0.0 : Median(per);
}

/// Median over `windows` equal slices of [start, end) of the events
/// (completion stamps `at`) per second in the slice.
inline double WindowedRate(const std::vector<int64_t>& at, int64_t start,
                           int64_t end, int windows) {
  const std::vector<double> ones(at.size(), 1.0);
  const auto slices = Slices(ones, at, start, end, windows);
  const double slice_s =
      static_cast<double>(end - start) * 1e-9 / static_cast<double>(slices.size());
  std::vector<double> rates;
  for (const auto& s : slices) rates.push_back(static_cast<double>(s.size()) / slice_s);
  return Median(rates);
}

/// Samples ranked strictly above the pct-th percentile of n samples.
inline size_t SamplesBeyond(size_t n, int pct) {
  const size_t at = static_cast<size_t>(
      std::ceil(static_cast<double>(pct) * static_cast<double>(n) / 100.0));
  return n > at ? n - at : 0;
}

/// The tail rule: the highest of p99 / p95 / p90 that still has at
/// least ten samples beyond it; 0 when even p90 has fewer.
inline int TailPercentile(size_t n) {
  for (int pct : {99, 95, 90}) {
    if (SamplesBeyond(n, pct) >= 10) return pct;
  }
  return 0;
}

/// One timed region of a span tree (ids unique, parent 0 = root).
struct SpanRec {
  uint32_t id = 0;
  uint32_t parent = 0;
  std::string name;
  uint64_t start_us = 0;
  uint64_t duration_us = 0;
};

/// Self time of every span, in input order: its duration minus the
/// union of its children's intervals clipped to its own. Children may
/// overlap each other (morsels and generation runs execute on several
/// threads at once); the union counts each covered microsecond once.
inline std::vector<uint64_t> SelfTimes(const std::vector<SpanRec>& spans) {
  std::unordered_map<uint32_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(spans.size());
  for (const SpanRec& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    kids[it->second].push_back({s.start_us, s.start_us + s.duration_us});
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t lo = spans[i].start_us;
    const uint64_t hi = lo + spans[i].duration_us;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (a >= b) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = spans[i].duration_us - std::min(covered, spans[i].duration_us);
  }
  return self;
}

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
