#pragma once
/// \file nsga2.hpp
/// \brief NSGA-II baseline optimiser (Deb et al.), used by the optimiser
///        ablation (bench A2) to put the paper's WBGA choice in context.

#include <functional>
#include <vector>

#include "eval/engine.hpp"
#include "moo/problem.hpp"
#include "moo/wbga.hpp" // EvaluatedIndividual
#include "util/rng.hpp"

namespace ypm::moo {

struct Nsga2Config {
    std::size_t population = 100;
    std::size_t generations = 100;
};

struct Nsga2Result {
    std::vector<EvaluatedIndividual> archive;
    std::vector<EvaluatedIndividual> final_population; ///< rank-0 first
    std::size_t evaluations = 0;
};

/// Classic NSGA-II: fast non-dominated sort + crowding distance, binary
/// crowded-comparison tournament, (mu + lambda) environmental selection.
/// Offspring come from moo::breed, the same operators WBGA uses.
/// Chromosomes reuse GaString with zero weight genes.
class Nsga2 {
public:
    Nsga2(const Problem& problem, Nsga2Config config);

    using ProgressFn = std::function<void(std::size_t)>;

    /// Every population is evaluated through `engine`. Deterministic in the
    /// RNG seed regardless of the engine's parallelism.
    [[nodiscard]] Nsga2Result run(eval::Engine& engine, Rng& rng,
                                  const ProgressFn& progress = {}) const;

private:
    const Problem& problem_;
    Nsga2Config config_;
};

} // namespace ypm::moo
