#include "moo/population_eval.hpp"

namespace ypm::moo {

std::vector<eval::EvalResult>
evaluate_population(eval::Engine& engine, const Problem& problem,
                    const std::vector<std::vector<double>>& points) {
    return engine.evaluate(
        eval::EvalBatch::nominal(points),
        eval::ChunkKernelFn([&problem](const std::vector<const eval::EvalRequest*>&
                                           requests) {
            std::vector<std::vector<double>> chunk;
            chunk.reserve(requests.size());
            for (const eval::EvalRequest* r : requests) chunk.push_back(r->params);
            return problem.evaluate_batch(chunk);
        }));
}

} // namespace ypm::moo
