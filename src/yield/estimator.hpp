#pragma once
/// \file estimator.hpp
/// \brief The estimator zoo: named YieldEstimator policies in a fixed
///        name -> policy table.
///
/// Every yield estimator in this repo is a *policy over the one sequential
/// driver* (yield::SequentialYieldRunner), not a separate sampling loop: an
/// estimator takes a scenario-level base configuration (pilot size, chunk
/// size, sample caps, CI target - the knobs that belong to the problem) and
/// specializes the family-defining knobs (proposal form, CE refinement,
/// scale adaptation - the knobs that belong to the method). This keeps the
/// determinism and inflight-window invariance guarantees of the driver
/// uniform across the whole zoo, and it is what lets one conformance suite
/// and one benchmark matrix iterate over every estimator by name.
///
/// The zoo:
///   plain_mc         - no pilot, nominal proposal: plain Monte Carlo.
///   single_shift     - pilot + single combined mean shift (ISLE).
///   mixture_ce       - defensive mixture + one cross-entropy mean refit.
///   mixture_ce_scale - mixture_ce whose CE refit also learns per-component
///                      diagonal variances (ShiftFitConfig::adapt_scale).
///
/// Each member earns a column of bench_yield_matrix; a member that wins no
/// column is deleted rather than kept as an option.
///
/// Adding an estimator: add a row (name + config transform) to the built-in
/// table in estimator.cpp and give it a column floor in
/// scripts/check_matrix.py - the bench-matrix CI job then gates it on every
/// scenario automatically.

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "yield/sequential.hpp"

namespace ypm::yield {

/// One named estimation policy: a name plus a transform of the base
/// configuration. Stateless: estimate() may be called concurrently on
/// distinct engines.
class YieldEstimator {
public:
    using Transform = SequentialConfig (*)(SequentialConfig);

    YieldEstimator(std::string_view name, Transform transform)
        : name_(name), transform_(transform) {}

    /// Zoo name (stable identifier used by the probes, the benchmark
    /// matrix and the conformance suite).
    [[nodiscard]] std::string_view name() const { return name_; }

    /// Specialize a scenario-level base configuration for this estimator:
    /// only the family-defining knobs change; the problem-level knobs
    /// (chunk size, caps, CI target) pass through, so one scenario
    /// definition drives every estimator comparably.
    [[nodiscard]] SequentialConfig configure(SequentialConfig base) const {
        return transform_(std::move(base));
    }

    /// Run one design point to completion under this policy: construct a
    /// SequentialYieldRunner on configure(base) and run() it. \throws
    /// whatever the runner constructor throws on an invalid configuration.
    [[nodiscard]] SequentialYieldResult
    estimate(eval::Engine& engine, const SequentialConfig& base,
             const std::vector<mc::Spec>& specs, const KernelFactory& factory,
             std::size_t dimension, Rng rng) const;

private:
    std::string_view name_;
    Transform transform_;
};

/// The fixed table of built-in estimators.
class EstimatorRegistry {
public:
    [[nodiscard]] static const EstimatorRegistry& instance();

    /// \throws ypm::InvalidInputError on an unknown name; the message lists
    ///         the zoo.
    [[nodiscard]] std::unique_ptr<YieldEstimator>
    create(std::string_view name) const;

    /// All estimator names, sorted - the iteration order of the
    /// conformance suite and the benchmark matrix.
    [[nodiscard]] std::vector<std::string> names() const;
};

} // namespace ypm::yield
