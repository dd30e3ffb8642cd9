#pragma once
/// \file nsga2.hpp
/// \brief NSGA-II baseline optimiser (Deb et al.), used by the optimiser
///        ablation (bench A2) to put the paper's WBGA choice in context.

#include <functional>
#include <vector>

#include "moo/ga_string.hpp"
#include "moo/operators.hpp"
#include "moo/problem.hpp"
#include "moo/wbga.hpp" // EvaluatedIndividual
#include "util/rng.hpp"

namespace ypm::moo {

struct Nsga2Config {
    std::size_t population = 100;
    std::size_t generations = 100;
    double crossover_rate = 0.9;
    CrossoverKind crossover = CrossoverKind::blend;
    double mutation_rate = 0.0; ///< per-gene; 0 selects 1/genes
    double mutation_sigma = 0.08;
    MutationKind mutation = MutationKind::gaussian;
    bool parallel = true;
    bool keep_archive = true;

    /// Shared evaluation engine (non-owning; must outlive the run). When
    /// null the optimiser creates a private engine honouring `parallel`.
    eval::Engine* engine = nullptr;
};

struct Nsga2Result {
    std::vector<EvaluatedIndividual> archive;
    std::vector<EvaluatedIndividual> final_population; ///< rank-0 first
    std::size_t evaluations = 0;
};

/// Classic NSGA-II: fast non-dominated sort + crowding distance, binary
/// crowded-comparison tournament, (mu + lambda) environmental selection.
/// Chromosomes reuse GaString with zero weight genes.
class Nsga2 {
public:
    Nsga2(const Problem& problem, Nsga2Config config);

    using ProgressFn = std::function<void(std::size_t)>;
    [[nodiscard]] Nsga2Result run(Rng& rng, const ProgressFn& progress = {}) const;

private:
    const Problem& problem_;
    Nsga2Config config_;
};

} // namespace ypm::moo
