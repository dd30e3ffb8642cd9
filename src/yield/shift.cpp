#include "yield/shift.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ypm::yield {

namespace {

/// Clamp a mean vector to the configured norm in place.
void clamp_norm(std::vector<double>& mu, double max_norm) {
    if (max_norm <= 0.0) return;
    double sum = 0.0;
    for (double m : mu) sum += m * m;
    const double norm = std::sqrt(sum);
    if (norm <= max_norm) return;
    const double k = max_norm / norm;
    for (double& m : mu) m *= k;
}

/// Shared fitting machinery: per-spec (optionally importance-weighted)
/// centers of gravity of the failing rows, each norm-clamped; a combined
/// single shift; and the defensive mixture (scale-adapted when the config
/// asks for it).
ShiftFit fit_impl(const eval::RowBlock& rows,
                  const std::vector<mc::Spec>& specs, std::size_t dimension,
                  const ShiftFitConfig& config, bool importance_weighted) {
    if (!(config.defensive_weight >= 0.0 && config.defensive_weight < 1.0))
        throw InvalidInputError(
            "fit_shift: defensive_weight must be in [0, 1)");
    if (!(config.min_scale > 0.0) || !(config.max_scale >= config.min_scale))
        throw InvalidInputError(
            "fit_shift: scale clamps must satisfy 0 < min_scale <= max_scale");
    const std::size_t arity = specs.size() + 1 + dimension;
    // Scale adaptation needs importance weights: the pilot's few unweighted
    // failures carry no usable spread information (see ShiftFitConfig).
    const bool adapt_scale = config.adapt_scale && importance_weighted;

    ShiftFit fit;
    fit.per_spec.resize(specs.size());
    for (process::SampleShift& s : fit.per_spec) s.mu.assign(dimension, 0.0);
    fit.spec_failures.assign(specs.size(), 0);

    // Per-spec center of gravity over the standardized coordinates of the
    // samples failing that spec; `mass` is the (weighted) failure mass the
    // center averages over and the mixture weights split by. `cog2` holds
    // the weighted second moments for the diagonal variance fit.
    std::vector<std::vector<double>> cog(specs.size(),
                                         std::vector<double>(dimension, 0.0));
    std::vector<std::vector<double>> cog2;
    if (adapt_scale)
        cog2.assign(specs.size(), std::vector<double>(dimension, 0.0));
    std::vector<double> mass(specs.size(), 0.0);
    if (!rows.empty() && rows.arity() != arity)
        throw InvalidInputError(
            "fit_shift: row arity mismatch (expected specs + 1 + "
            "dimension columns)");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const std::span<const double> row = rows.row(i);
        double w = 1.0;
        if (importance_weighted) {
            const double lw = row[specs.size()];
            if (!std::isfinite(lw))
                throw InvalidInputError("refit_shift: non-finite log weight");
            w = std::exp(lw);
        }
        const double* u = row.data() + specs.size() + 1;
        bool any_fail = false;
        for (std::size_t s = 0; s < specs.size(); ++s) {
            if (specs[s].pass(row[s])) continue;
            any_fail = true;
            ++fit.spec_failures[s];
            mass[s] += w;
            for (std::size_t d = 0; d < dimension; ++d) {
                cog[s][d] += w * u[d];
                if (adapt_scale) cog2[s][d] += w * u[d] * u[d];
            }
        }
        if (any_fail) ++fit.pilot_failures;
    }

    // Per-spec diagonal sigma (empty = unit): the CE-optimal variance of
    // the importance-weighted failing records *around the clamped
    // component center actually used as the proposal mean* - when the norm
    // clamp displaced the fitted mean, the displacement enters the spread,
    // widening the component exactly where the clamp cut it short. Sigmas
    // are clamped to [min_scale, max_scale]. Specs with < 2 failing
    // records keep the unit scale - a variance from one record is zero.
    std::vector<std::vector<double>> spec_sigma(specs.size());
    double total_mass = 0.0;
    for (std::size_t s = 0; s < specs.size(); ++s) {
        if (!(mass[s] > 0.0)) continue;
        total_mass += mass[s];
        const double inv = 1.0 / mass[s];
        for (double& c : cog[s]) c *= inv;
        fit.per_spec[s].mu = cog[s];
        // Each component is a proposal mean in its own right: clamp it, not
        // just the combined shift (an unclamped per-spec center from a
        // widened pilot overshoots into weight collapse exactly like the
        // combined one would).
        clamp_norm(fit.per_spec[s].mu, config.max_norm);
        if (adapt_scale && fit.spec_failures[s] >= 2) {
            std::vector<double> sigma(dimension, 1.0);
            bool any_adapted = false;
            for (std::size_t d = 0; d < dimension; ++d) {
                // E_w[(u - mu_clamped)^2] from the raw moments: the second
                // moment minus the cross term against the clamped center.
                const double mu_c = fit.per_spec[s].mu[d];
                const double var = std::max(
                    cog2[s][d] * inv - 2.0 * mu_c * cog[s][d] + mu_c * mu_c,
                    0.0);
                const double sd = std::clamp(std::sqrt(var), config.min_scale,
                                             config.max_scale);
                sigma[d] = sd;
                if (sd != 1.0) any_adapted = true;
            }
            if (any_adapted) spec_sigma[s] = std::move(sigma);
        }
    }
    if (total_mass == 0.0) {
        // No failures: zero shift, single-nominal mixture - the main stage
        // degenerates to plain MC.
        fit.mixture = process::ProposalMixture::nominal();
        return fit;
    }

    // Combined single shift (legacy proposal mode and reporting): the
    // failure-mass-weighted average of the clamped per-spec centers. With
    // one failing spec this is exactly its center of gravity; with several
    // it points between the modes - a single mean-shift proposal cannot
    // cover disjoint regions, which is what the mixture below is for.
    std::vector<double> combined(dimension, 0.0);
    for (std::size_t s = 0; s < specs.size(); ++s) {
        if (!(mass[s] > 0.0)) continue;
        const double w = mass[s] / total_mass;
        for (std::size_t d = 0; d < dimension; ++d)
            combined[d] += w * fit.per_spec[s].mu[d];
    }
    clamp_norm(combined, config.max_norm);
    fit.shift.mu = std::move(combined);

    // Defensive mixture: nominal component + one component per failing
    // spec, the shifted mass split in proportion to the spec failure mass.
    if (config.defensive_weight > 0.0) {
        process::ProposalComponent nominal;
        nominal.weight = config.defensive_weight;
        fit.mixture.components.push_back(std::move(nominal));
    }
    const double shifted_mass = 1.0 - config.defensive_weight;
    for (std::size_t s = 0; s < specs.size(); ++s) {
        if (!(mass[s] > 0.0)) continue;
        process::ProposalComponent comp;
        comp.mu = fit.per_spec[s].mu;
        comp.weight = shifted_mass * mass[s] / total_mass;
        comp.sigma = std::move(spec_sigma[s]);
        fit.mixture.components.push_back(std::move(comp));
    }
    return fit;
}

} // namespace

ShiftFit fit_shift(const eval::RowBlock& pilot_rows,
                   const std::vector<mc::Spec>& specs, std::size_t dimension,
                   const ShiftFitConfig& config) {
    return fit_impl(pilot_rows, specs, dimension, config, false);
}

ShiftFit refit_shift(const eval::RowBlock& rows,
                     const std::vector<mc::Spec>& specs, std::size_t dimension,
                     const ShiftFitConfig& config) {
    return fit_impl(rows, specs, dimension, config, true);
}

} // namespace ypm::yield
