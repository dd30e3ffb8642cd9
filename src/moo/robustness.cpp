#include "moo/robustness.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace ypm::moo {

namespace {
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
} // namespace

void validate_robustness_config(const RobustnessConfig& config) {
    if (!(config.yield_weight >= 0.0 && config.yield_weight <= 1.0))
        throw InvalidInputError("robustness: yield_weight must be in [0, 1], got " +
                                str::fmt_double(config.yield_weight));
    if (config.mode == RobustnessMode::constraint &&
        !(config.min_yield > 0.0 && config.min_yield <= 1.0))
        throw InvalidInputError(
            "robustness: constraint-mode min_yield must be in (0, 1], got " +
            str::fmt_double(config.min_yield));
}

double robust_fitness(double fitness, double robustness,
                      const RobustnessConfig& config) {
    if (std::isnan(robustness)) return fitness;
    const double r = std::clamp(robustness, 0.0, 1.0);
    switch (config.mode) {
    case RobustnessMode::weight:
        return (1.0 - config.yield_weight) * fitness + config.yield_weight * r;
    case RobustnessMode::constraint:
        return fitness * std::min(1.0, r / config.min_yield);
    }
    return fitness;
}

std::vector<double>
probe_population_robustness(const RobustnessConfig& config,
                            const std::vector<std::vector<double>>& points,
                            std::size_t generation) {
    if (!config.enabled() || generation < config.activation_generation)
        return std::vector<double>(points.size(), kNan);
    auto robustness = config.probe(points, generation);
    if (robustness.size() != points.size())
        throw InvalidInputError("robustness: probe returned " +
                                std::to_string(robustness.size()) + " values for " +
                                std::to_string(points.size()) + " points");
    return robustness;
}

std::vector<std::size_t>
robustness_probe_indices(const std::vector<double>& fitness, std::size_t k) {
    const std::size_t n = fitness.size();
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (k == 0 || k >= n) return order;
    // Stable sort keeps the tie toward the lower population index, so the
    // probed subset - and therefore the probe's RNG consumption - is a pure
    // function of the fitness column.
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return fitness[a] > fitness[b];
    });
    order.resize(k);
    std::sort(order.begin(), order.end());
    return order;
}

} // namespace ypm::moo
