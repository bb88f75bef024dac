#include "check.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::vector<Row> RowsOf(const mosaic::Table& table) {
  std::vector<Row> rows(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      mosaic::Value v = table.GetValue(r, c);
      if (v.type() == mosaic::DataType::kString) {
        rows[r].push_back(Cell::Str(v.AsString()));
      } else {
        auto d = v.ToDouble();
        rows[r].push_back(Cell::Num(d.ok() ? *d : std::nan("")));
      }
    }
  }
  return rows;
}

namespace {

std::string Show(const Cell& c) {
  if (c.is_str) return "'" + c.s + "'";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", c.d);
  return buf;
}

bool KeyLess(const Row& a, const Row& b) {
  if (a.empty() || b.empty()) return a.size() < b.size();
  if (a[0].is_str != b[0].is_str) return a[0].is_str < b[0].is_str;
  return a[0].is_str ? a[0].s < b[0].s : a[0].d < b[0].d;
}

}  // namespace

std::string Mismatch(std::vector<Row> got, std::vector<Row> want,
                     double rel_tol, bool sort_rows) {
  if (sort_rows) {
    std::sort(got.begin(), got.end(), KeyLess);
    std::sort(want.begin(), want.end(), KeyLess);
  }
  if (got.size() != want.size()) {
    return "row count " + std::to_string(got.size()) + ", want " +
           std::to_string(want.size());
  }
  for (size_t r = 0; r < got.size(); ++r) {
    if (got[r].size() != want[r].size()) {
      return "row " + std::to_string(r) + " has " +
             std::to_string(got[r].size()) + " cells, want " +
             std::to_string(want[r].size());
    }
    for (size_t c = 0; c < got[r].size(); ++c) {
      const Cell& g = got[r][c];
      const Cell& w = want[r][c];
      bool same = g.is_str == w.is_str &&
                  (g.is_str ? g.s == w.s
                            : std::fabs(g.d - w.d) <=
                                  rel_tol * std::max(1.0, std::fabs(w.d)));
      if (!same) {
        return "row " + std::to_string(r) + " col " + std::to_string(c) +
               ": got " + Show(g) + ", want " + Show(w);
      }
    }
  }
  return "";
}

std::string CheckFiniteAndKeys(const std::vector<Row>& rows,
                               const std::vector<std::string>& keys) {
  for (const Row& row : rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (row[c].is_str) {
        if (c == 0 && !keys.empty() &&
            std::find(keys.begin(), keys.end(), row[c].s) == keys.end()) {
          return "unexpected group " + Show(row[c]);
        }
      } else if (!std::isfinite(row[c].d)) {
        return "non-finite value " + Show(row[c]);
      }
    }
  }
  return "";
}

std::string CanonicalBytes(const mosaic::Table& table) {
  std::string out;
  for (const Row& row : RowsOf(table)) {
    for (const Cell& c : row) {
      out += Show(c);
      out += '\x1f';
    }
    out += '\n';
  }
  return out;
}

}  // namespace perfbench
