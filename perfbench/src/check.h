// Answer checking: result tables flattened to rows of cells and
// compared against rows the benchmark computed itself.
#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <string>
#include <vector>

#include "storage/table.h"

namespace perfbench {

/// One result cell: a string (group keys) or a number.
struct Cell {
  bool is_str = false;
  std::string s;
  double d = 0.0;

  static Cell Str(std::string v) { return Cell{true, std::move(v), 0.0}; }
  static Cell Num(double v) { return Cell{false, std::string(), v}; }
};
using Row = std::vector<Cell>;

/// Every row of a result table, numbers widened to double.
std::vector<Row> RowsOf(const mosaic::Table& table);

/// Empty when `got` matches `want` (numbers within `rel_tol` relative
/// to max(1, |want|)); otherwise a one-line description of the first
/// difference. `sort_rows` compares GROUP BY answers, whose row order
/// is unspecified, by key.
std::string Mismatch(std::vector<Row> got, std::vector<Row> want,
                     double rel_tol, bool sort_rows);

/// Empty when every number is finite and every string cell of the
/// first column is one of `keys` (pass an empty list to skip the key
/// check); otherwise what is wrong.
std::string CheckFiniteAndKeys(const std::vector<Row>& rows,
                               const std::vector<std::string>& keys);

/// Exact byte image of a result (doubles at 17 significant digits),
/// for the repeat-identity check.
std::string CanonicalBytes(const mosaic::Table& table);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
