#pragma once
/// \file pareto.hpp
/// \brief Dominance relations and Pareto-front extraction (paper section
///        3.3: conditions (a) and (b) for the non-dominated set), plus the
///        front-quality metrics used by the optimiser ablation.

#include <cstddef>
#include <vector>

#include "moo/problem.hpp"

namespace ypm::moo {

/// True if objective vector a dominates b under the given directions:
/// a is no worse in every objective and strictly better in at least one.
/// Vectors containing NaN never dominate and are always dominated.
[[nodiscard]] bool dominates(const std::vector<double>& a,
                             const std::vector<double>& b,
                             const std::vector<ObjectiveSpec>& specs);

/// Indices of the non-dominated points for exactly two objectives, via
/// sort-and-scan (Kung's algorithm specialised to m = 2), O(n log n).
/// Failed (NaN) rows are never on the front.
[[nodiscard]] std::vector<std::size_t>
pareto_front_indices_2d(const std::vector<std::vector<double>>& objectives,
                        const std::vector<ObjectiveSpec>& specs);

/// NSGA-II fast non-dominated sort: returns fronts in rank order; fronts[0]
/// is the Pareto front.
[[nodiscard]] std::vector<std::vector<std::size_t>>
non_dominated_sort(const std::vector<std::vector<double>>& objectives,
                   const std::vector<ObjectiveSpec>& specs);

/// NSGA-II crowding distance for the given subset of points (indices into
/// `objectives`). Boundary points get +infinity.
[[nodiscard]] std::vector<double>
crowding_distance(const std::vector<std::vector<double>>& objectives,
                  const std::vector<std::size_t>& subset,
                  const std::vector<ObjectiveSpec>& specs);

/// Two-objective hypervolume (area dominated between the front and a
/// reference point). Directions are honoured; the reference must be weakly
/// worse than every point or its contribution clips to zero.
[[nodiscard]] double hypervolume_2d(const std::vector<std::vector<double>>& front,
                                    const std::vector<double>& reference,
                                    const std::vector<ObjectiveSpec>& specs);

} // namespace ypm::moo
