#include "core/analysis.hpp"

#include <algorithm>

#include "core/evaluator.hpp"
#include "graph/cycle_ratio.hpp"
#include "graph/topo.hpp"

namespace elrr {

double late_eval_throughput(const Rrg& rrg) {
  rrg.validate();
  // Acyclic graphs are not token limited.
  const bool acyclic =
      graph::topological_order(rrg.graph(), [](EdgeId) { return true; })
          .has_value();
  if (acyclic) return 1.0;

  std::vector<std::int64_t> cost, time;
  cost.reserve(rrg.num_edges());
  time.reserve(rrg.num_edges());
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    cost.push_back(rrg.tokens(e));
    time.push_back(rrg.buffers(e));
  }
  const auto mcr = graph::min_cycle_ratio(rrg.graph(), cost, time);
  return std::min(1.0, mcr.ratio);
}

RcEvaluation evaluate_config(const Rrg& rrg, const RrConfig& config) {
  const ConfigEvaluator evaluator(rrg);
  evaluator.require_valid(config);
  return evaluator.evaluate(config);
}

RcEvaluation evaluate_rrg(const Rrg& rrg) {
  return evaluate_config(rrg, initial_config(rrg));
}

}  // namespace elrr
