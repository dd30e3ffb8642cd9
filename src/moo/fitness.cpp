#include "moo/fitness.hpp"

#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace ypm::moo {

namespace {

double wbga_fitness(const std::vector<double>& objectives,
                    const std::vector<double>& weights,
                    const ObjectiveBounds& bounds,
                    const std::vector<ObjectiveSpec>& specs) {
    if (objectives.size() != specs.size() || weights.size() != specs.size())
        throw InvalidInputError("wbga_fitness: arity mismatch");
    if (evaluation_failed(objectives)) return 0.0;
    double total = 0.0;
    for (std::size_t j = 0; j < specs.size(); ++j) {
        const double span = bounds.max[j] - bounds.min[j];
        double norm;
        if (span <= 0.0) {
            norm = 1.0; // population is degenerate in this objective
        } else if (specs[j].dir == Direction::maximize) {
            norm = (objectives[j] - bounds.min[j]) / span;
        } else {
            norm = (bounds.max[j] - objectives[j]) / span;
        }
        total += weights[j] * norm;
    }
    return total;
}

} // namespace

ObjectiveBounds objective_bounds(const std::vector<eval::EvalResult>& results,
                                 const std::vector<ObjectiveSpec>& specs) {
    const std::size_t m = specs.size();
    ObjectiveBounds b;
    b.min.assign(m, std::numeric_limits<double>::infinity());
    b.max.assign(m, -std::numeric_limits<double>::infinity());
    bool any_valid = false;
    for (const auto& r : results) {
        if (r.values.size() != m)
            throw InvalidInputError("objective_bounds: arity mismatch");
        if (evaluation_failed(r.values)) continue;
        any_valid = true;
        for (std::size_t j = 0; j < m; ++j) {
            b.min[j] = std::min(b.min[j], r.values[j]);
            b.max[j] = std::max(b.max[j], r.values[j]);
        }
    }
    if (!any_valid)
        throw InvalidInputError("objective_bounds: every evaluation failed");
    return b;
}

std::vector<double>
wbga_fitness_all(const std::vector<eval::EvalResult>& results,
                 const std::vector<std::vector<double>>& weights,
                 const std::vector<ObjectiveSpec>& specs) {
    if (results.size() != weights.size())
        throw InvalidInputError("wbga_fitness_all: population size mismatch");
    const ObjectiveBounds bounds = objective_bounds(results, specs);
    std::vector<double> out(results.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        out[i] = wbga_fitness(results[i].values, weights[i], bounds, specs);
    return out;
}

} // namespace ypm::moo
