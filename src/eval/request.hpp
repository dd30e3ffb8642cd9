#pragma once
/// \file request.hpp
/// \brief Value types of the engine's design-point batches.
///
/// The deterministic repeated-testbench workloads of the Fig. 3 flow (GA
/// populations, the nominal Bode re-measure, verification) are batches of
/// point evaluations. These types describe one such batch in a
/// consumer-neutral way so a single engine can schedule, memoise and count
/// all of them. A design point is always evaluated at the nominal process:
/// process variation travels only in sample batches, and Monte Carlo
/// samples are not requests (see engine.hpp and row_block.hpp).

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace ypm::eval {

/// One evaluation point: a designable-parameter vector at the nominal
/// process. Results with equal (params, batch tag) are interchangeable.
struct EvalRequest {
    std::vector<double> params; ///< designable parameters
};

/// A batch of requests evaluated through one kernel. `tag` namespaces the
/// cache: two kernels returning different quantities for the same parameter
/// point (e.g. {gain, pm} vs full Bode data) must use different tags.
struct EvalBatch {
    std::vector<EvalRequest> items;
    std::uint64_t tag = 0;

    EvalBatch() = default;
    explicit EvalBatch(std::uint64_t tag_) : tag(tag_) {}

    /// Nominal-process batch over a list of parameter points.
    [[nodiscard]] static EvalBatch
    nominal(const std::vector<std::vector<double>>& points) {
        EvalBatch batch;
        batch.items.reserve(points.size());
        for (const auto& p : points)
            batch.items.push_back({p});
        return batch;
    }

    void add(std::vector<double> params) {
        items.push_back({std::move(params)});
    }

    [[nodiscard]] std::size_t size() const { return items.size(); }
    [[nodiscard]] bool empty() const { return items.empty(); }
};

/// One evaluated point. NaN entries mark a failed evaluation (simulator
/// non-convergence), matching the moo::Problem contract.
struct EvalResult {
    std::vector<double> values;
    bool from_cache = false; ///< served from the LRU or within-batch dedup
    /// Explicit failure flag, set by the engine when the fresh evaluation
    /// failed and *propagated* to dedup aliases and cache hits of that
    /// point. Carrying the flag alongside the values means a failure stays
    /// a failure even for kernels whose failure rows are empty rather than
    /// NaN-filled (which the NaN scan alone cannot see).
    bool failure = false;

    [[nodiscard]] bool failed() const {
        if (failure) return true;
        for (double v : values)
            if (std::isnan(v)) return true;
        return false;
    }
};

} // namespace ypm::eval
