#include "moo/random_search.hpp"

#include "moo/ga_string.hpp"
#include "moo/population_eval.hpp"

namespace ypm::moo {

RandomSearchResult random_search(eval::Engine& engine, const Problem& problem,
                                 std::size_t samples, Rng& rng) {
    const auto& pspecs = problem.parameters();
    const std::size_t n_params = pspecs.size();

    RandomSearchResult result;
    result.archive.resize(samples);

    // Draw all chromosomes up-front on the caller's stream so the sample set
    // is independent of evaluation order.
    std::vector<std::vector<double>> points(samples);
    for (std::size_t i = 0; i < samples; ++i) {
        auto& e = result.archive[i];
        e.params = GaString::random(n_params, 0, rng).decode_parameters(pspecs);
        points[i] = e.params;
    }

    const auto evals = evaluate_population(engine, problem, points);
    for (std::size_t i = 0; i < samples; ++i)
        result.archive[i].objectives = evals[i].values;

    result.evaluations = samples;
    return result;
}

} // namespace ypm::moo
