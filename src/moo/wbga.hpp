#pragma once
/// \file wbga.hpp
/// \brief Weight-Based Genetic Algorithm (paper section 3.2, after Hajela &
///        Lin [9]).
///
/// Each chromosome carries the designable parameters *and* the objective
/// weights (GaString), so the GA searches weight space and parameter space
/// simultaneously instead of requiring a designer-chosen weight vector.
/// Fitness is the normalised weighted sum of eq. (5); fitness sharing over
/// the weight sub-vector maintains a spread of weightings, which is what
/// makes a single WBGA run trace out the whole trade-off cloud the Pareto
/// filter then reduces (paper Fig. 7). Each generation keeps the two best
/// strings and breeds the rest with moo::breed, picking parents by binary
/// tournament on the shared fitness.

#include <functional>
#include <limits>
#include <vector>

#include "eval/engine.hpp"
#include "moo/problem.hpp"
#include "moo/robustness.hpp"
#include "util/rng.hpp"

namespace ypm::moo {

/// One evaluated design point (kept for the full-run archive).
struct EvaluatedIndividual {
    std::vector<double> params;     ///< decoded physical parameters
    std::vector<double> objectives; ///< raw performance values (NaN = failed)
    std::vector<double> weights;    ///< eq. (4)-normalised weights
    double fitness = 0.0;           ///< eq. (5) score within its generation
    std::size_t generation = 0;
    /// Estimated yield from the robustness channel (NaN = not probed).
    /// When probed, `fitness` already folds it in per the RobustnessConfig.
    double robustness = std::numeric_limits<double>::quiet_NaN();
};

/// The two values the paper sets (section 4.2, Table 5) plus the engine and
/// the robustness channel. Selection, elitism, sharing and the operators
/// are fixed (see wbga.cpp and moo/operators.hpp).
struct WbgaConfig {
    std::size_t population = 100;   ///< paper section 4.2 uses 100
    std::size_t generations = 100;  ///< paper section 4.2 uses 100
    bool parallel = true;           ///< evaluate populations on the pool

    /// Shared evaluation engine (non-owning; must outlive the run). When
    /// null the optimiser creates a private engine honouring `parallel`;
    /// when set, the engine's own scheduling config governs and `parallel`
    /// is ignored.
    eval::Engine* engine = nullptr;

    /// Optional per-individual robustness channel: estimated yield blended
    /// into the eq. (5) fitness each generation (see moo/robustness.hpp).
    /// Disabled (null probe) reproduces the legacy run bit-for-bit.
    RobustnessConfig robustness;
};

struct WbgaResult {
    std::vector<EvaluatedIndividual> archive; ///< all evaluations, in order
    std::vector<double> best_fitness_history; ///< per generation
    std::size_t evaluations = 0;
};

class Wbga {
public:
    /// \param problem must outlive the optimiser
    Wbga(const Problem& problem, WbgaConfig config);

    /// Progress callback: (generation index, best eq.5 fitness).
    using ProgressFn = std::function<void(std::size_t, double)>;

    /// Run the full optimisation. Deterministic in the RNG seed regardless
    /// of thread count.
    [[nodiscard]] WbgaResult run(Rng& rng, const ProgressFn& progress = {}) const;

    [[nodiscard]] const WbgaConfig& config() const { return config_; }

private:
    const Problem& problem_;
    WbgaConfig config_;
};

/// Hajela-Lin fitness sharing: divide each fitness by its niche count,
/// where niching distance is the Euclidean distance between weight vectors.
[[nodiscard]] std::vector<double>
share_fitness(const std::vector<double>& fitness,
              const std::vector<std::vector<double>>& weights, double radius);

} // namespace ypm::moo
