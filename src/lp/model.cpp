#include "lp/model.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "support/strings.hpp"

namespace elrr::lp {

int Model::add_col(double lo, double hi, double obj, bool is_integer,
                   std::string name) {
  ELRR_REQUIRE(!(lo > hi), "empty column bounds [", lo, ", ", hi, "]");
  ELRR_REQUIRE(std::isfinite(obj), "objective coefficient must be finite");
  cols_.push_back(Column{lo, hi, obj, is_integer, std::move(name)});
  return static_cast<int>(cols_.size()) - 1;
}

int Model::add_row(double lo, double hi, std::vector<ColEntry> entries,
                   std::string name) {
  ELRR_REQUIRE(!(lo > hi), "empty row bounds [", lo, ", ", hi, "]");
  // Merge duplicate columns.
  std::map<int, double> merged;
  for (const auto& entry : entries) {
    ELRR_REQUIRE(entry.col >= 0 && entry.col < num_cols(),
                 "row references unknown column ", entry.col);
    ELRR_REQUIRE(std::isfinite(entry.coef), "non-finite row coefficient");
    merged[entry.col] += entry.coef;
  }
  Row row;
  row.lo = lo;
  row.hi = hi;
  row.name = std::move(name);
  row.entries.reserve(merged.size());
  for (const auto& [col, coef] : merged) {
    if (coef != 0.0) row.entries.push_back({col, coef});
  }
  rows_.push_back(std::move(row));
  return static_cast<int>(rows_.size()) - 1;
}

void Model::set_col_bounds(int col, double lo, double hi) {
  ELRR_REQUIRE(col >= 0 && col < num_cols(), "unknown column ", col);
  ELRR_REQUIRE(!(lo > hi), "empty column bounds [", lo, ", ", hi, "]");
  cols_[static_cast<std::size_t>(col)].lo = lo;
  cols_[static_cast<std::size_t>(col)].hi = hi;
}

void Model::set_row_bounds(int row, double lo, double hi) {
  ELRR_REQUIRE(row >= 0 && row < num_rows(), "unknown row ", row);
  ELRR_REQUIRE(!(lo > hi), "empty row bounds [", lo, ", ", hi, "]");
  rows_[static_cast<std::size_t>(row)].lo = lo;
  rows_[static_cast<std::size_t>(row)].hi = hi;
}

void Model::set_obj(int col, double coef) {
  ELRR_REQUIRE(col >= 0 && col < num_cols(), "unknown column ", col);
  ELRR_REQUIRE(std::isfinite(coef), "objective coefficient must be finite");
  cols_[static_cast<std::size_t>(col)].obj = coef;
}

bool Model::has_integers() const {
  return std::any_of(cols_.begin(), cols_.end(),
                     [](const Column& c) { return c.is_integer; });
}

void Model::validate() const {
  for (int j = 0; j < num_cols(); ++j) {
    const Column& c = col(j);
    ELRR_REQUIRE(!(c.lo > c.hi), "column ", j, " has empty bounds");
    ELRR_REQUIRE(!std::isnan(c.lo) && !std::isnan(c.hi), "NaN column bound");
  }
  for (int i = 0; i < num_rows(); ++i) {
    const Row& r = row(i);
    ELRR_REQUIRE(!(r.lo > r.hi), "row ", i, " has empty bounds");
    for (const auto& entry : r.entries) {
      ELRR_REQUIRE(entry.col >= 0 && entry.col < num_cols(),
                   "row ", i, " references unknown column");
      ELRR_REQUIRE(std::isfinite(entry.coef), "row ", i,
                   " has non-finite coefficient");
    }
  }
}

double Model::objective_value(const std::vector<double>& x) const {
  ELRR_REQUIRE(x.size() == static_cast<std::size_t>(num_cols()),
               "point dimension mismatch");
  double value = 0.0;
  for (int j = 0; j < num_cols(); ++j) {
    value += col(j).obj * x[static_cast<std::size_t>(j)];
  }
  return value;
}

double Model::max_infeasibility(const std::vector<double>& x) const {
  ELRR_REQUIRE(x.size() == static_cast<std::size_t>(num_cols()),
               "point dimension mismatch");
  double worst = 0.0;
  for (int j = 0; j < num_cols(); ++j) {
    const Column& c = col(j);
    const double v = x[static_cast<std::size_t>(j)];
    worst = std::max(worst, c.lo - v);
    worst = std::max(worst, v - c.hi);
    if (c.is_integer) {
      worst = std::max(worst, std::abs(v - std::round(v)));
    }
  }
  for (int i = 0; i < num_rows(); ++i) {
    const Row& r = row(i);
    double activity = 0.0;
    for (const auto& entry : r.entries) {
      activity += entry.coef * x[static_cast<std::size_t>(entry.col)];
    }
    worst = std::max(worst, r.lo - activity);
    worst = std::max(worst, activity - r.hi);
  }
  return worst;
}

namespace {
std::string col_name(const Model& m, int j) {
  const std::string& n = m.col(j).name;
  return n.empty() ? indexed_name('x', j) : n;
}
}  // namespace

std::string Model::to_lp_format() const {
  std::ostringstream os;
  os << (sense_ == Sense::kMinimize ? "Minimize" : "Maximize") << "\n obj:";
  for (int j = 0; j < num_cols(); ++j) {
    if (col(j).obj != 0.0) {
      os << (col(j).obj >= 0 ? " + " : " - ") << std::abs(col(j).obj) << " "
         << col_name(*this, j);
    }
  }
  os << "\nSubject To\n";
  for (int i = 0; i < num_rows(); ++i) {
    const Row& r = row(i);
    std::ostringstream expr;
    for (const auto& e : r.entries) {
      expr << (e.coef >= 0 ? " + " : " - ") << std::abs(e.coef) << " "
           << col_name(*this, e.col);
    }
    const std::string rname = r.name.empty() ? indexed_name('c', i) : r.name;
    if (r.lo == r.hi) {
      os << " " << rname << ":" << expr.str() << " = " << r.lo << "\n";
    } else {
      if (r.lo != -kInf) {
        os << " " << rname << ".lo:" << expr.str() << " >= " << r.lo << "\n";
      }
      if (r.hi != kInf) {
        os << " " << rname << ".hi:" << expr.str() << " <= " << r.hi << "\n";
      }
    }
  }
  os << "Bounds\n";
  for (int j = 0; j < num_cols(); ++j) {
    os << " " << col(j).lo << " <= " << col_name(*this, j) << " <= "
       << col(j).hi << "\n";
  }
  bool any_int = false;
  for (int j = 0; j < num_cols(); ++j) any_int |= col(j).is_integer;
  if (any_int) {
    os << "General\n";
    for (int j = 0; j < num_cols(); ++j) {
      if (col(j).is_integer) os << " " << col_name(*this, j);
    }
    os << "\n";
  }
  os << "End\n";
  return os.str();
}

}  // namespace elrr::lp
