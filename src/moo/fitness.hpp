#pragma once
/// \file fitness.hpp
/// \brief WBGA fitness: the normalised weighted summation of paper eq. (5).
///
///   O(w, x_i) = sum_j w_j * (f_j(x_i) - f_j_min) / (f_j_max - f_j_min)
///
/// where the min/max normalisation runs over the current population and a
/// minimised objective contributes (f_max - f) / (f_max - f_min) instead, so
/// every term - and thus the total fitness of a unit-sum weight vector -
/// lies in [0, 1].

#include <vector>

#include "eval/request.hpp"
#include "moo/problem.hpp"

namespace ypm::moo {

/// Population-wide objective min/max used for eq. (5) normalisation.
struct ObjectiveBounds {
    std::vector<double> min;
    std::vector<double> max;
};

/// Bounds over all valid (non-NaN) rows of engine output.
/// \throws ypm::InvalidInputError when no valid row exists.
[[nodiscard]] ObjectiveBounds
objective_bounds(const std::vector<eval::EvalResult>& results,
                 const std::vector<ObjectiveSpec>& specs);

/// Eq. (5) for a whole population straight from engine output. A failed
/// (NaN) row scores 0, the worst fitness.
[[nodiscard]] std::vector<double>
wbga_fitness_all(const std::vector<eval::EvalResult>& results,
                 const std::vector<std::vector<double>>& weights,
                 const std::vector<ObjectiveSpec>& specs);

} // namespace ypm::moo
