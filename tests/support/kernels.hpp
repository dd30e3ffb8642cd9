#pragma once
/// \file kernels.hpp
/// \brief Adapters that lift per-item test lambdas to the production kernel
///        shapes. The engine takes a chunk kernel for design-point batches
///        (eval::ChunkKernelFn) and a sample kernel for sample batches
///        (eval::SampleKernelFn, which the Monte Carlo runner calls
///        mc::ChunkSampleFn); tests that think in single requests or
///        samples write the scalar lambda and wrap it here.

#include <cstddef>
#include <span>
#include <vector>

#include "eval/engine.hpp"
#include "eval/row_block.hpp"
#include "mc/monte_carlo.hpp"
#include "util/rng.hpp"

namespace ypm::testsupport {

/// Engine kernel evaluating each request of a chunk alone: `fn(request)`.
template <typename Fn>
[[nodiscard]] eval::ChunkKernelFn per_item(Fn fn) {
    return [fn](const std::vector<const eval::EvalRequest*>& requests) {
        std::vector<std::vector<double>> rows;
        rows.reserve(requests.size());
        for (const eval::EvalRequest* request : requests)
            rows.push_back(fn(*request));
        return rows;
    };
}

/// Sample kernel evaluating each sample alone: `fn(sample_id, rng)` returns
/// the sample's row.
template <typename Fn>
[[nodiscard]] mc::ChunkSampleFn per_sample(Fn fn) {
    return [fn](std::span<const std::size_t> ids, std::span<Rng> rngs) {
        eval::RowBlock rows;
        for (std::size_t k = 0; k < ids.size(); ++k)
            rows.push_back(fn(ids[k], rngs[k]));
        return rows;
    };
}

} // namespace ypm::testsupport
