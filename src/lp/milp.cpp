#include "lp/milp.hpp"

#include "lp/session.hpp"

#include <algorithm>
#include <cmath>

#include "support/failpoint.hpp"

namespace elrr::lp {

const char* to_string(MilpStatus status) {
  switch (status) {
    case MilpStatus::kOptimal: return "optimal";
    case MilpStatus::kInfeasible: return "infeasible";
    case MilpStatus::kUnbounded: return "unbounded";
    case MilpStatus::kFeasible: return "feasible";
    case MilpStatus::kNoSolution: return "no-solution";
    case MilpStatus::kFutile: return "futile";
    case MilpStatus::kNumericError: return "numeric-error";
  }
  return "unknown";
}

double MilpResult::gap() const {
  if (!has_solution()) return kInf;
  const double denom = std::max(1.0, std::abs(objective));
  return std::abs(objective - best_bound) / denom;
}

MilpResult solve_milp(const Model& model, const MilpOptions& options) {
  failpoint::trip("milp.solve");
  model.validate();
  // The branch-and-bound core lives in session.cpp (it is shared with
  // the warm-starting MilpSession); a null warm context is the
  // stateless fresh-engine path.
  return detail::solve_branch_and_bound(model, options, nullptr);
}

}  // namespace elrr::lp
