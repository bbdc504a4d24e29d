#pragma once

/// \file oracles.hpp
/// Test-side references for the Leiserson-Saxe retiming of
/// retime/leiserson_saxe.hpp, sharing nothing with its solver:
///  * the correlator circuit of the Leiserson-Saxe paper;
///  * FEAS, the iterative clock-period relaxation algorithm, and the
///    retimed cycle time it bounds;
///  * OPT as it was first written: one constraint graph built per
///    candidate period and solved cold by
///    graph::solve_difference_constraints.

#include <vector>

#include "core/rrg.hpp"
#include "retime/leiserson_saxe.hpp"

namespace elrr::retime {

/// The correlator example from the Leiserson-Saxe paper: a host (delay 0),
/// three comparators (delay 3) and three adders (delay 7) in the classic
/// ring; optimal period 13 (down from 24).
Rrg correlator();

/// FEAS: is clock period `period` achievable by retiming? If so and `r`
/// is non-null, stores a witness.
bool feasible_period(const Rrg& rrg, double period,
                     std::vector<int>* r = nullptr);

/// The cycle time of the RRG after applying retiming vector `r` with
/// buffers equal to max(tokens', 0) -- the quantity both algorithms bound.
double retimed_cycle_time(const Rrg& rrg, const std::vector<int>& r);

/// OPT with a fresh constraint graph and a cold
/// graph::solve_difference_constraints for every probed period: the
/// reference min_period_retiming must match bit for bit.
RetimingResult reference_min_period_retiming(const Rrg& rrg);

}  // namespace elrr::retime
