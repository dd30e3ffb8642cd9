#include "moo/wbga.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "moo/fitness.hpp"
#include "moo/ga_string.hpp"
#include "moo/operators.hpp"
#include "moo/population_eval.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace ypm::moo {

namespace {

constexpr std::size_t kTournament = 2;
constexpr std::size_t kElites = 2; ///< copied unchanged each generation
constexpr double kSharingRadius = 0.15; ///< weight-space niching

} // namespace

std::vector<double> share_fitness(const std::vector<double>& fitness,
                                  const std::vector<std::vector<double>>& weights,
                                  double radius) {
    if (radius <= 0.0) return fitness;
    if (fitness.size() != weights.size())
        throw InvalidInputError("share_fitness: size mismatch");
    const std::size_t n = fitness.size();
    std::vector<double> shared(n);
    for (std::size_t i = 0; i < n; ++i) {
        double niche = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            double d2 = 0.0;
            for (std::size_t k = 0; k < weights[i].size(); ++k) {
                const double d = weights[i][k] - weights[j][k];
                d2 += d * d;
            }
            const double d = std::sqrt(d2);
            if (d < radius) niche += 1.0 - d / radius;
        }
        // niche >= 1 always (self-distance 0), so the division is safe.
        shared[i] = fitness[i] / niche;
    }
    return shared;
}

Wbga::Wbga(const Problem& problem, WbgaConfig config)
    : problem_(problem), config_(config) {
    if (config_.population <= kElites)
        throw InvalidInputError("Wbga: population must be >= 3");
    if (config_.generations == 0)
        throw InvalidInputError("Wbga: generations must be >= 1");
    validate_robustness_config(config_.robustness);
    if (config_.robustness.enabled() &&
        config_.robustness.activation_generation >= config_.generations)
        throw InvalidInputError(
            "Wbga: robustness.activation_generation >= generations - the "
            "probe would never activate; lower the activation or raise the "
            "generation count");
}

WbgaResult Wbga::run(Rng& rng, const ProgressFn& progress) const {
    const auto& pspecs = problem_.parameters();
    const auto& ospecs = problem_.objectives();
    const std::size_t n_params = pspecs.size();
    const std::size_t n_weights = ospecs.size();
    const std::size_t pop_size = config_.population;

    WbgaResult result;
    result.archive.reserve(pop_size * config_.generations);

    // All population evaluations route through one engine: elites and
    // duplicated offspring are served from its memoisation cache, and its
    // ledger feeds the flow-level accounting.
    eval::EngineConfig private_config;
    private_config.parallel = config_.parallel;
    eval::Engine private_engine(private_config);
    eval::Engine& engine = config_.engine ? *config_.engine : private_engine;

    // Initial random population.
    std::vector<GaString> population;
    population.reserve(pop_size);
    for (std::size_t i = 0; i < pop_size; ++i)
        population.push_back(GaString::random(n_params, n_weights, rng));

    std::vector<EvaluatedIndividual> evaluated(pop_size);

    auto evaluate_population_gen = [&](std::size_t generation) {
        std::vector<std::vector<double>> points(pop_size);
        std::vector<std::vector<double>> wts(pop_size);
        for (std::size_t i = 0; i < pop_size; ++i) {
            EvaluatedIndividual& e = evaluated[i];
            e.params = population[i].decode_parameters(pspecs);
            e.weights = population[i].decode_weights();
            e.generation = generation;
            points[i] = e.params;
            wts[i] = e.weights;
        }
        const auto evals = evaluate_population(engine, problem_, points);
        for (const auto& r : evals)
            if (r.values.size() != ospecs.size())
                throw InvalidInputError("Wbga: problem returned wrong objective arity");

        // eq. (5) fitness with per-generation min/max normalisation.
        const auto fit = wbga_fitness_all(evals, wts, ospecs);

        // Robustness channel: probe the nominal top-K (tiered budget) and
        // fold estimated yield into the fitness used by selection *and*
        // elitism. Unprobed individuals keep their nominal score, so a
        // disabled or not-yet-activated channel is bit-identical.
        const RobustnessConfig& rcfg = config_.robustness;
        std::vector<double> robustness(pop_size,
                                       std::numeric_limits<double>::quiet_NaN());
        if (rcfg.enabled() && generation >= rcfg.activation_generation) {
            const auto idx = robustness_probe_indices(fit, rcfg.max_points);
            std::vector<std::vector<double>> probe_points;
            probe_points.reserve(idx.size());
            for (const std::size_t i : idx) probe_points.push_back(points[i]);
            const auto probed =
                probe_population_robustness(rcfg, probe_points, generation);
            for (std::size_t k = 0; k < idx.size(); ++k)
                robustness[idx[k]] = probed[k];
        }

        for (std::size_t i = 0; i < pop_size; ++i) {
            evaluated[i].objectives = evals[i].values;
            evaluated[i].robustness = robustness[i];
            evaluated[i].fitness = robust_fitness(fit[i], robustness[i], rcfg);
        }

        result.archive.insert(result.archive.end(), evaluated.begin(), evaluated.end());
        result.evaluations += pop_size;
    };

    for (std::size_t gen = 0; gen < config_.generations; ++gen) {
        evaluate_population_gen(gen);

        double best = 0.0;
        for (const auto& e : evaluated) best = std::max(best, e.fitness);
        result.best_fitness_history.push_back(best);
        if (progress) progress(gen, best);
        log::debug("wbga gen ", gen, " best fitness ", best);

        if (gen + 1 == config_.generations) break;

        // Selection pressure uses shared fitness (weight-space niching).
        std::vector<double> fitness(pop_size);
        std::vector<std::vector<double>> weights(pop_size);
        for (std::size_t i = 0; i < pop_size; ++i) {
            fitness[i] = evaluated[i].fitness;
            weights[i] = evaluated[i].weights;
        }
        const auto shared = share_fitness(fitness, weights, kSharingRadius);

        // Elitism on raw fitness.
        std::vector<std::size_t> order(pop_size);
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
            return fitness[a] > fitness[b];
        });

        std::vector<GaString> next;
        next.reserve(pop_size);
        for (std::size_t e = 0; e < kElites; ++e)
            next.push_back(population[order[e]]);
        breed(population,
              [&] { return select_tournament(shared, kTournament, rng); }, pop_size,
              next, rng);
        population = std::move(next);
    }

    return result;
}

} // namespace ypm::moo
