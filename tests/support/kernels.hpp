#pragma once
/// \file kernels.hpp
/// \brief Adapters that lift per-item test lambdas to the production kernel
///        shapes. The engine takes one kernel shape (eval::ChunkKernelFn)
///        and the Monte Carlo runner one sample shape (mc::ChunkSampleFn);
///        tests that think in single requests or samples write the scalar
///        lambda and wrap it here.

#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "eval/engine.hpp"
#include "mc/monte_carlo.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ypm::testsupport {

/// Engine kernel evaluating each request of a chunk alone: `fn(request)`
/// for deterministic lambdas, `fn(request, rng)` with the request's own
/// child stream for stochastic ones (which then need a stochastic batch).
template <typename Fn>
[[nodiscard]] eval::ChunkKernelFn per_item(Fn fn) {
    return [fn](const std::vector<const eval::EvalRequest*>& requests,
                std::span<Rng> rngs) {
        std::vector<std::vector<double>> rows;
        rows.reserve(requests.size());
        for (std::size_t k = 0; k < requests.size(); ++k) {
            if constexpr (std::is_invocable_v<const Fn&,
                                              const eval::EvalRequest&, Rng&>) {
                if (rngs.size() != requests.size())
                    throw InvalidInputError(
                        "per_item: stochastic lambda on a deterministic batch");
                rows.push_back(fn(*requests[k], rngs[k]));
            } else {
                rows.push_back(fn(*requests[k]));
            }
        }
        return rows;
    };
}

/// Monte Carlo kernel evaluating each sample alone: `fn(sample_id, rng)`.
template <typename Fn>
[[nodiscard]] mc::ChunkSampleFn per_sample(Fn fn) {
    return [fn](std::span<const std::size_t> ids, std::span<Rng> rngs) {
        std::vector<std::vector<double>> rows;
        rows.reserve(ids.size());
        for (std::size_t k = 0; k < ids.size(); ++k)
            rows.push_back(fn(ids[k], rngs[k]));
        return rows;
    };
}

} // namespace ypm::testsupport
