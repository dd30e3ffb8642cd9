#pragma once
/// \file robustness.hpp
/// \brief Per-individual robustness channel of the WBGA optimiser: the seam
///        through which estimated yield (or any worst-case robustness
///        measure in [0, 1]) enters the eq. (5) fitness *during* the search,
///        instead of being certified after it.
///
/// The channel is a callback: once per generation, after the nominal
/// objective evaluation, Wbga hands the decoded parameter points to a
/// RobustnessFn and receives one value per individual - estimated yield in
/// [0, 1], or NaN for "not probed" (pre-activation generations, individuals
/// outside the probed top-K). The optimiser-side contract is strict:
///
///  * probe null, or generation < activation_generation: the channel is off
///    and the optimiser's behaviour - RNG consumption included - is
///    bit-identical to a build without the channel;
///  * NaN robustness never changes an individual's fitness or rank: an
///    unprobed individual competes exactly as it would nominally;
///  * the probe is invoked *between* evaluation and selection, so it may
///    submit work to the same eval::Engine the population used (the
///    yield-probe path of core::YieldFlow does exactly that).
///
/// Wbga folds the channel in through robust_fitness() (a blend or a
/// constraint penalty on the eq. 5 score).

#include <cstddef>
#include <functional>
#include <vector>

namespace ypm::moo {

/// Per-generation robustness probe: points are the decoded physical
/// parameter vectors of the individuals to probe, in population order;
/// the result must have one entry per point (estimated yield in [0, 1],
/// NaN = unprobed). Invoked at most once per generation.
using RobustnessFn = std::function<std::vector<double>(
    const std::vector<std::vector<double>>& points, std::size_t generation)>;

/// How Wbga folds robustness into selection pressure.
enum class RobustnessMode {
    /// fitness' = (1 - yield_weight) * fitness + yield_weight * r.
    weight,
    /// fitness' = fitness * min(1, r / min_yield) - designs below the yield
    /// target are penalised proportionally, designs at or above it compete
    /// purely on nominal fitness.
    constraint,
};

struct RobustnessConfig {
    /// Null = channel off (the optimiser is bit-identical to the legacy
    /// path, RNG consumption included).
    RobustnessFn probe;
    /// First generation the probe runs on; earlier generations evaluate
    /// nominally. With a probe set, Wbga rejects an activation at or past
    /// its generation count (the probe would never fire).
    std::size_t activation_generation = 0;
    RobustnessMode mode = RobustnessMode::weight;
    /// Robustness share of the blended fitness (weight mode), in [0, 1].
    double yield_weight = 0.5;
    /// Yield target of constraint mode, in (0, 1].
    double min_yield = 0.9;
    /// Probe only the K best individuals per generation (by nominal eq. 5
    /// fitness, ties toward the lower population index) - the tiered budget
    /// control. 0 probes the whole population.
    std::size_t max_points = 0;

    [[nodiscard]] bool enabled() const { return static_cast<bool>(probe); }
};

/// \throws ypm::InvalidInputError on yield_weight outside [0, 1] or a
/// constraint-mode min_yield outside (0, 1].
void validate_robustness_config(const RobustnessConfig& config);

/// Fold one individual's robustness into its scalar fitness per the mode.
/// NaN robustness returns `fitness` unchanged (the unprobed contract);
/// finite robustness is clamped to [0, 1] first.
[[nodiscard]] double robust_fitness(double fitness, double robustness,
                                    const RobustnessConfig& config);

/// Invoke the probe for one generation, enforcing the channel contract:
/// returns an all-NaN column (size n) when the channel is off or the
/// generation precedes activation; otherwise calls the probe and validates
/// the result size. \throws ypm::InvalidInputError on a size mismatch.
[[nodiscard]] std::vector<double>
probe_population_robustness(const RobustnessConfig& config,
                            const std::vector<std::vector<double>>& points,
                            std::size_t generation);

/// The K indices WBGA probes under max_points: the K best by nominal
/// fitness, ties toward the lower index, in ascending index order. K = 0 or
/// K >= n selects everyone.
[[nodiscard]] std::vector<std::size_t>
robustness_probe_indices(const std::vector<double>& fitness, std::size_t k);

} // namespace ypm::moo
