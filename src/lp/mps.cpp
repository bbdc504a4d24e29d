#include "lp/mps.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <vector>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace elrr::lp {

namespace {

/// Shortest decimal form that parses back to exactly `v` -- so that
/// from_mps(to_mps(m)) reproduces every coefficient bit for bit.
std::string number(double v) {
  char buffer[64];
  for (const int precision : {12, 15, 17}) {
    std::snprintf(buffer, sizeof buffer, "%.*g", precision, v);
    if (std::strtod(buffer, nullptr) == v) break;
  }
  return buffer;
}

/// MPS-safe, unique identifiers: alphanumerics plus [._], non-empty,
/// capped length, uniquified with an index suffix on collision.
std::vector<std::string> sanitize(const std::vector<std::string>& raw,
                                  char prefix) {
  std::vector<std::string> names;
  std::map<std::string, int> used;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    std::string name = raw[i];
    for (char& c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '.';
      if (!ok) c = '_';
    }
    if (name.empty()) name = indexed_name(prefix, i);
    if (name.size() > 60) name.resize(60);
    if (used.count(name) != 0) name += indexed_name('_', i);
    used.emplace(name, 1);
    names.push_back(std::move(name));
  }
  return names;
}

}  // namespace

std::string to_mps(const Model& model, const std::string& name) {
  model.validate();
  std::vector<std::string> raw_rows, raw_cols;
  for (int i = 0; i < model.num_rows(); ++i) raw_rows.push_back(model.row(i).name);
  for (int j = 0; j < model.num_cols(); ++j) raw_cols.push_back(model.col(j).name);
  const std::vector<std::string> rows = sanitize(raw_rows, 'r');
  const std::vector<std::string> cols = sanitize(raw_cols, 'x');

  const bool maximize = model.sense() == Sense::kMaximize;
  std::ostringstream os;
  os << "* ElasticRR MILP export (MPS fixed format)\n";
  if (maximize) {
    os << "* NOTE: model maximizes; objective coefficients are negated\n"
       << "*       below -- the true optimum is -(value reported here).\n";
  }
  os << "NAME          " << name << "\n";

  // ROWS: type per row. Ranged rows (both bounds finite, different)
  // emit type L on the upper bound with a RANGES entry; equalities E;
  // one-sided G/L; free rows are not produced by our models but map to N.
  os << "ROWS\n N  OBJ\n";
  struct RowShape {
    char type = 'N';
    double rhs = 0.0;
    double range = 0.0;  ///< 0 = none
  };
  std::vector<RowShape> shapes(static_cast<std::size_t>(model.num_rows()));
  for (int i = 0; i < model.num_rows(); ++i) {
    const Row& row = model.row(i);
    RowShape& shape = shapes[static_cast<std::size_t>(i)];
    const bool lo_fin = std::isfinite(row.lo);
    const bool hi_fin = std::isfinite(row.hi);
    if (lo_fin && hi_fin && row.lo == row.hi) {
      shape = {'E', row.lo, 0.0};
    } else if (lo_fin && hi_fin) {
      shape = {'L', row.hi, row.hi - row.lo};
    } else if (hi_fin) {
      shape = {'L', row.hi, 0.0};
    } else if (lo_fin) {
      shape = {'G', row.lo, 0.0};
    } else {
      shape = {'N', 0.0, 0.0};
    }
    os << " " << shape.type << "  " << rows[static_cast<std::size_t>(i)]
       << "\n";
  }

  // COLUMNS, column-major with INTORG/INTEND markers around integers.
  os << "COLUMNS\n";
  // Row entries per column.
  std::vector<std::vector<std::pair<int, double>>> by_col(
      static_cast<std::size_t>(model.num_cols()));
  for (int i = 0; i < model.num_rows(); ++i) {
    for (const ColEntry& entry : model.row(i).entries) {
      by_col[static_cast<std::size_t>(entry.col)].push_back({i, entry.coef});
    }
  }
  bool in_int = false;
  int marker = 0;
  for (int j = 0; j < model.num_cols(); ++j) {
    const Column& col = model.col(j);
    if (col.is_integer != in_int) {
      os << "    MARKER" << marker << "  'MARKER'  "
         << (col.is_integer ? "'INTORG'" : "'INTEND'") << "\n";
      ++marker;
      in_int = col.is_integer;
    }
    const std::string& cname = cols[static_cast<std::size_t>(j)];
    if (col.obj != 0.0) {
      os << "    " << cname << "  OBJ  "
         << number(maximize ? -col.obj : col.obj) << "\n";
    }
    for (const auto& [i, coef] : by_col[static_cast<std::size_t>(j)]) {
      os << "    " << cname << "  " << rows[static_cast<std::size_t>(i)]
         << "  " << number(coef) << "\n";
    }
  }
  if (in_int) {
    os << "    MARKER" << marker << "  'MARKER'  'INTEND'\n";
  }

  // RHS + RANGES.
  os << "RHS\n";
  for (int i = 0; i < model.num_rows(); ++i) {
    const RowShape& shape = shapes[static_cast<std::size_t>(i)];
    if (shape.type != 'N' && shape.rhs != 0.0) {
      os << "    RHS  " << rows[static_cast<std::size_t>(i)] << "  "
         << number(shape.rhs) << "\n";
    }
  }
  bool any_range = false;
  for (const RowShape& shape : shapes) any_range |= shape.range != 0.0;
  if (any_range) {
    os << "RANGES\n";
    for (int i = 0; i < model.num_rows(); ++i) {
      const RowShape& shape = shapes[static_cast<std::size_t>(i)];
      if (shape.range != 0.0) {
        os << "    RNG  " << rows[static_cast<std::size_t>(i)] << "  "
           << number(shape.range) << "\n";
      }
    }
  }

  // BOUNDS. Default MPS bounds are [0, +inf); emit only deviations.
  os << "BOUNDS\n";
  for (int j = 0; j < model.num_cols(); ++j) {
    const Column& col = model.col(j);
    const std::string& cname = cols[static_cast<std::size_t>(j)];
    const bool lo_fin = std::isfinite(col.lo);
    const bool hi_fin = std::isfinite(col.hi);
    if (!lo_fin && !hi_fin) {
      os << " FR BND  " << cname << "\n";
      continue;
    }
    if (lo_fin && hi_fin && col.lo == col.hi) {
      os << " FX BND  " << cname << "  " << number(col.lo) << "\n";
      continue;
    }
    if (!lo_fin) {
      os << " MI BND  " << cname << "\n";
    } else if (col.lo != 0.0) {
      os << " LO BND  " << cname << "  " << number(col.lo) << "\n";
    }
    if (hi_fin) {
      os << " UP BND  " << cname << "  " << number(col.hi) << "\n";
    } else if (col.is_integer) {
      // Integer columns default to an upper bound of 1 in classic MPS;
      // make the intended infinity explicit.
      os << " PL BND  " << cname << "\n";
    }
  }
  os << "ENDATA\n";
  return os.str();
}

namespace {

[[noreturn]] void parse_fail(int line_no, const std::string& why) {
  throw InvalidInputError("MPS parse error at line " +
                          std::to_string(line_no) + ": " + why);
}

std::vector<std::string> tokens_of(const std::string& line) {
  std::vector<std::string> toks;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) toks.push_back(std::move(tok));
  return toks;
}

double parse_number(const std::string& tok, int line_no) {
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0') {
    parse_fail(line_no, "expected a number, got '" + tok + "'");
  }
  return v;
}

}  // namespace

Model from_mps(const std::string& text) {
  enum class Section { kNone, kRows, kColumns, kRhs, kRanges, kBounds, kDone };
  struct PRow {
    char type = 'N';
    std::string name;
    double rhs = 0.0;
    double range = 0.0;  ///< 0 = none
    std::vector<ColEntry> entries;
  };
  struct PCol {
    std::string name;
    bool is_integer = false;
    double obj = 0.0;          ///< as written (still negated if maximizing)
    double lo = 0.0;           ///< MPS default bounds [0, +inf)
    double hi = kInf;
  };

  std::vector<PRow> rows;
  std::map<std::string, int> row_index;
  std::vector<PCol> cols;
  std::map<std::string, int> col_index;
  std::string obj_name;
  bool maximize = false;
  bool in_integer_block = false;
  Section section = Section::kNone;

  // Creates the column on first appearance (COLUMNS order); a column
  // first seen in BOUNDS -- legal MPS, never written by to_mps -- joins
  // the tail as a continuous variable.
  const auto col_of = [&](const std::string& name) -> PCol& {
    const auto [it, fresh] =
        col_index.emplace(name, static_cast<int>(cols.size()));
    if (fresh) {
      cols.push_back(PCol{name, in_integer_block, 0.0, 0.0, kInf});
    }
    return cols[static_cast<std::size_t>(it->second)];
  };

  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '*') {
      if (line.find("model maximizes") != std::string::npos) maximize = true;
      continue;
    }
    const std::vector<std::string> toks = tokens_of(line);
    if (toks.empty()) continue;

    // Section headers start in column 1; data lines are indented.
    if (line[0] != ' ' && line[0] != '\t') {
      const std::string& head = toks[0];
      if (head == "NAME") {
        section = Section::kNone;  // the model name is not retained
      } else if (head == "ROWS") {
        section = Section::kRows;
      } else if (head == "COLUMNS") {
        section = Section::kColumns;
      } else if (head == "RHS") {
        section = Section::kRhs;
      } else if (head == "RANGES") {
        section = Section::kRanges;
      } else if (head == "BOUNDS") {
        section = Section::kBounds;
      } else if (head == "ENDATA") {
        section = Section::kDone;
        break;
      } else {
        parse_fail(line_no, "unknown section '" + head + "'");
      }
      continue;
    }

    switch (section) {
      case Section::kRows: {
        if (toks.size() != 2 || toks[0].size() != 1) {
          parse_fail(line_no, "expected '<type> <name>'");
        }
        const char type = toks[0][0];
        if (type != 'N' && type != 'E' && type != 'L' && type != 'G') {
          parse_fail(line_no, "unknown row type '" + toks[0] + "'");
        }
        if (type == 'N' && obj_name.empty()) {
          obj_name = toks[1];  // first N row is the objective
          break;
        }
        if (!row_index.emplace(toks[1], static_cast<int>(rows.size()))
                 .second) {
          parse_fail(line_no, "duplicate row '" + toks[1] + "'");
        }
        rows.push_back(PRow{type, toks[1], 0.0, 0.0, {}});
        break;
      }
      case Section::kColumns: {
        if (toks.size() == 3 && toks[1] == "'MARKER'") {
          if (toks[2] == "'INTORG'") {
            in_integer_block = true;
          } else if (toks[2] == "'INTEND'") {
            in_integer_block = false;
          } else {
            parse_fail(line_no, "unknown marker '" + toks[2] + "'");
          }
          break;
        }
        if (toks.size() != 3 && toks.size() != 5) {
          parse_fail(line_no, "expected '<col> <row> <value>' pairs");
        }
        PCol& col = col_of(toks[0]);
        const int col_id = col_index.at(toks[0]);
        for (std::size_t k = 1; k + 1 < toks.size(); k += 2) {
          const double value = parse_number(toks[k + 1], line_no);
          if (toks[k] == obj_name) {
            col.obj += value;
          } else {
            const auto it = row_index.find(toks[k]);
            if (it == row_index.end()) {
              parse_fail(line_no, "unknown row '" + toks[k] + "'");
            }
            rows[static_cast<std::size_t>(it->second)].entries.push_back(
                {col_id, value});
          }
        }
        break;
      }
      case Section::kRhs:
      case Section::kRanges: {
        // "<setname> <row> <value>" (pairs allowed); the set name is
        // ignored, as is conventional.
        if (toks.size() != 3 && toks.size() != 5) {
          parse_fail(line_no, "expected '<set> <row> <value>' pairs");
        }
        for (std::size_t k = 1; k + 1 < toks.size(); k += 2) {
          const double value = parse_number(toks[k + 1], line_no);
          if (toks[k] == obj_name) {
            parse_fail(line_no, "objective-row RHS is not supported");
          }
          const auto it = row_index.find(toks[k]);
          if (it == row_index.end()) {
            parse_fail(line_no, "unknown row '" + toks[k] + "'");
          }
          PRow& row = rows[static_cast<std::size_t>(it->second)];
          (section == Section::kRhs ? row.rhs : row.range) = value;
        }
        break;
      }
      case Section::kBounds: {
        if (toks.size() < 3) {
          parse_fail(line_no, "expected '<type> <set> <col> [value]'");
        }
        const std::string& kind = toks[0];
        PCol& col = col_of(toks[2]);
        const bool needs_value = kind == "UP" || kind == "LO" || kind == "FX";
        if (needs_value && toks.size() != 4) {
          parse_fail(line_no, kind + " bound requires a value");
        }
        if (kind == "UP") {
          col.hi = parse_number(toks[3], line_no);
        } else if (kind == "LO") {
          col.lo = parse_number(toks[3], line_no);
        } else if (kind == "FX") {
          col.lo = col.hi = parse_number(toks[3], line_no);
        } else if (kind == "FR") {
          col.lo = -kInf;
          col.hi = kInf;
        } else if (kind == "MI") {
          col.lo = -kInf;
        } else if (kind == "PL") {
          col.hi = kInf;
        } else {
          parse_fail(line_no, "unknown bound type '" + kind + "'");
        }
        break;
      }
      case Section::kNone:
      case Section::kDone:
        parse_fail(line_no, "data line outside any section");
    }
  }
  if (section != Section::kDone) {
    parse_fail(line_no, "missing ENDATA");
  }
  if (obj_name.empty()) {
    parse_fail(line_no, "no objective (N) row");
  }

  Model model;
  if (maximize) model.set_sense(Sense::kMaximize);
  for (const PCol& col : cols) {
    model.add_col(col.lo, col.hi, maximize ? -col.obj : col.obj,
                  col.is_integer, col.name);
  }
  for (PRow& row : rows) {
    double lo = -kInf;
    double hi = kInf;
    switch (row.type) {
      case 'E':
        lo = hi = row.rhs;
        break;
      case 'L':
        hi = row.rhs;
        if (row.range != 0.0) lo = row.rhs - std::abs(row.range);
        break;
      case 'G':
        lo = row.rhs;
        if (row.range != 0.0) hi = row.rhs + std::abs(row.range);
        break;
      default:  // free row
        break;
    }
    model.add_row(lo, hi, std::move(row.entries), row.name);
  }
  model.validate();
  return model;
}

}  // namespace elrr::lp
