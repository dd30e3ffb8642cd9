#pragma once
/// \file random_search.hpp
/// \brief Uniform random sampling baseline - the "conventional simulation
///        based approach" of blindly sweeping the design space with the
///        same evaluation budget as the GA.

#include <vector>

#include "moo/problem.hpp"
#include "moo/wbga.hpp" // EvaluatedIndividual
#include "util/rng.hpp"

namespace ypm::moo {

struct RandomSearchResult {
    std::vector<EvaluatedIndividual> archive;
    std::size_t evaluations = 0;
};

/// Evaluate `samples` uniform points in the parameter box, submitted as one
/// batch through a shared engine. Deterministic in the RNG seed regardless
/// of the engine's parallelism.
[[nodiscard]] RandomSearchResult random_search(eval::Engine& engine,
                                               const Problem& problem,
                                               std::size_t samples, Rng& rng);

} // namespace ypm::moo
