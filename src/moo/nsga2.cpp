#include "moo/nsga2.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "moo/ga_string.hpp"
#include "moo/operators.hpp"
#include "moo/pareto.hpp"
#include "moo/population_eval.hpp"
#include "util/error.hpp"

namespace ypm::moo {

Nsga2::Nsga2(const Problem& problem, Nsga2Config config)
    : problem_(problem), config_(config) {
    if (config_.population < 4)
        throw InvalidInputError("Nsga2: population must be >= 4");
    if (config_.generations == 0)
        throw InvalidInputError("Nsga2: generations must be >= 1");
}

namespace {

struct Ranked {
    std::size_t rank = 0;
    double crowding = 0.0;
};

/// Crowded-comparison: lower rank wins; ties broken by larger crowding.
bool crowded_less(const Ranked& a, const Ranked& b) {
    if (a.rank != b.rank) return a.rank < b.rank;
    return a.crowding > b.crowding;
}

} // namespace

Nsga2Result Nsga2::run(eval::Engine& engine, Rng& rng,
                       const ProgressFn& progress) const {
    const auto& pspecs = problem_.parameters();
    const auto& ospecs = problem_.objectives();
    const std::size_t n_params = pspecs.size();
    const std::size_t pop_size = config_.population;

    Nsga2Result result;

    auto evaluate = [&](const std::vector<GaString>& chroms,
                        std::vector<EvaluatedIndividual>& out, std::size_t gen) {
        out.assign(chroms.size(), EvaluatedIndividual{});
        std::vector<std::vector<double>> points(chroms.size());
        for (std::size_t i = 0; i < chroms.size(); ++i) {
            out[i].params = chroms[i].decode_parameters(pspecs);
            out[i].generation = gen;
            points[i] = out[i].params;
        }
        const auto evals = evaluate_population(engine, problem_, points);
        for (std::size_t i = 0; i < chroms.size(); ++i)
            out[i].objectives = evals[i].values;
        result.evaluations += chroms.size();
        result.archive.insert(result.archive.end(), out.begin(), out.end());
    };

    auto rank_population = [&](const std::vector<EvaluatedIndividual>& pop) {
        std::vector<std::vector<double>> objs(pop.size());
        for (std::size_t i = 0; i < pop.size(); ++i)
            objs[i] = pop[i].objectives;
        const auto fronts = non_dominated_sort(objs, ospecs);
        std::vector<Ranked> ranked(pop.size());
        for (std::size_t f = 0; f < fronts.size(); ++f) {
            const auto crowd = crowding_distance(objs, fronts[f], ospecs);
            for (std::size_t k = 0; k < fronts[f].size(); ++k) {
                ranked[fronts[f][k]].rank = f;
                ranked[fronts[f][k]].crowding = crowd[k];
            }
        }
        return ranked;
    };

    // Parent generation.
    std::vector<GaString> parents;
    parents.reserve(pop_size);
    for (std::size_t i = 0; i < pop_size; ++i)
        parents.push_back(GaString::random(n_params, 0, rng));
    std::vector<EvaluatedIndividual> parent_eval;
    evaluate(parents, parent_eval, 0);
    std::vector<Ranked> parent_rank = rank_population(parent_eval);

    for (std::size_t gen = 1; gen < config_.generations; ++gen) {
        // Offspring via binary crowded tournament.
        auto pick = [&]() -> std::size_t {
            const std::size_t a = rng.index(pop_size);
            const std::size_t b = rng.index(pop_size);
            return crowded_less(parent_rank[a], parent_rank[b]) ? a : b;
        };
        std::vector<GaString> offspring;
        offspring.reserve(pop_size);
        breed(parents, pick, pop_size, offspring, rng);
        std::vector<EvaluatedIndividual> offspring_eval;
        evaluate(offspring, offspring_eval, gen);

        // (mu + lambda) environmental selection on the union.
        std::vector<EvaluatedIndividual> union_pop = parent_eval;
        union_pop.insert(union_pop.end(), offspring_eval.begin(), offspring_eval.end());
        std::vector<GaString> union_chroms = parents;
        union_chroms.insert(union_chroms.end(), offspring.begin(), offspring.end());

        const auto union_rank = rank_population(union_pop);
        std::vector<std::size_t> order(union_pop.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
            return crowded_less(union_rank[a], union_rank[b]);
        });

        std::vector<GaString> next_parents;
        std::vector<EvaluatedIndividual> next_eval;
        std::vector<Ranked> next_rank;
        next_parents.reserve(pop_size);
        next_eval.reserve(pop_size);
        next_rank.reserve(pop_size);
        for (std::size_t k = 0; k < pop_size; ++k) {
            next_parents.push_back(union_chroms[order[k]]);
            next_eval.push_back(union_pop[order[k]]);
            next_rank.push_back(union_rank[order[k]]);
        }
        parents = std::move(next_parents);
        parent_eval = std::move(next_eval);
        parent_rank = std::move(next_rank);

        if (progress) progress(gen);
    }

    // Final population sorted best-first.
    std::vector<std::size_t> order(parent_eval.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return crowded_less(parent_rank[a], parent_rank[b]);
    });
    result.final_population.reserve(parent_eval.size());
    for (std::size_t idx : order) result.final_population.push_back(parent_eval[idx]);
    return result;
}

} // namespace ypm::moo
