#pragma once
/// \file probe.hpp
/// \brief Tiered yield probes: cheap, hard-budgeted yield estimates for the
///        optimiser's inner loop (the moo::RobustnessFn side of the
///        MOO <-> yield boundary).
///
/// A probe is the *lower tier* of the two-tier recipe core::YieldFlow runs:
/// during the GA, every probed individual gets a low-budget, coarse-CI
/// estimate from the same estimator zoo and the same drive loop
/// (run_yield_points) the certification tier uses - only the configuration
/// differs (a hard per-point sample budget, a loose half-width target, and
/// warm-started proposals instead of a fresh pilot per point). Near the
/// front, the full certification run remains the authority; the probe's job
/// is steering selection, not certifying yield.
///
/// Determinism contract (matches the rest of the yield stack):
///  * point i of a probe call derives its RNG as rng.child(i + 1) - from
///    the submission position, never from thread timing - so a probe batch
///    is bit-identical across engine scheduling and inflight windows;
///  * every per-point estimate inherits the runner's inflight-window
///    invariance (overshoot is drained, never folded);
///  * warm-start state advances only on folded results, in point order, so
///    the generation-to-generation proposal hand-off is deterministic too.
///
/// Warm start (always on): in the first cold probe call where some pilot
/// located at least four failures, the last such point donates its fitted
/// mixture; later probe calls (higher generations) skip the pilot and spend the
/// whole budget on main-stage chunks drawn from the carried proposal.
/// Importance weights stay exact under any proposal, so a stale warm
/// proposal costs variance, never bias.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "yield/estimator.hpp"
#include "yield/sequential.hpp"

namespace ypm::yield {

/// Builds the per-design-point chunk-kernel factory: given one individual's
/// physical parameters, return the KernelFactory the runner draws chunks
/// from. Copied into each runner; anything captured by reference must
/// outlive the probe call.
using PointKernelFactory =
    std::function<KernelFactory(const std::vector<double>& params)>;

/// The probe tier's own knobs; everything else comes from the base
/// SequentialConfig handed to YieldProbe.
struct ProbeConfig {
    /// Estimator-zoo member the probe runs (empty selects plain_mc). Must
    /// be probe-compatible: its configured pilot has to leave at least one
    /// main-stage sample inside `budget` (see configure_probe_estimator).
    std::string estimator;
    /// Hard per-point sample budget, pilot included. The probe never spends
    /// more than this on one individual. 0 means no probes: core::YieldFlow
    /// runs its GA nominally, and YieldProbe rejects it.
    std::size_t budget = 0;
    /// Coarse early-stop CI half-width (0 spends the full budget). Probes
    /// steer selection, so ~0.08 is plenty; certification tightens later.
    double target_half_width = 0.08;
};

/// One probed individual.
struct ProbeResult {
    WeightedYieldEstimate estimate;
    std::size_t samples_used = 0; ///< pilot + folded main-stage samples
    bool warm_started = false;    ///< ran from a carried proposal (no pilot)
    bool reached_target = false;
};

/// Specialize `name` (empty = plain_mc) onto `base` for probe duty: resolve
/// it from the EstimatorRegistry, apply its family knobs, then clamp the
/// sample caps to the probe `budget` and set the coarse `target_half_width`.
/// \throws ypm::InvalidInputError on a zero budget, a negative (or NaN)
/// target_half_width, an unknown name (the registry's listing error), and
/// on a *valid but probe-incompatible* estimator - one whose configured
/// pilot leaves no main-stage sample inside the budget - with the
/// probe-compatible subset of the zoo listed, so the caller can pick a
/// substitute instead of silently degrading.
[[nodiscard]] SequentialConfig
configure_probe_estimator(const std::string& name, SequentialConfig base,
                          std::size_t budget, double target_half_width);

/// Batched low-budget yield estimation for one cohort of design points,
/// driven through run_yield_points on a shared engine, so probe chunks
/// overlap on the engine's pool exactly like certification chunks.
/// Stateful across calls: warm-start proposals carry from one generation's
/// probe call to the next.
class YieldProbe {
public:
    /// \param base problem-level knobs (chunk size, shift-fit clamps, ...);
    ///        the probe overrides its budget-tier knobs - the base's own
    ///        max/min/target are ignored, the probe budget is the authority.
    /// \throws ypm::InvalidInputError on empty specs, a null factory, or a
    ///         config configure_probe_estimator rejects.
    YieldProbe(ProbeConfig config, const SequentialConfig& base,
               std::vector<mc::Spec> specs, PointKernelFactory factory,
               std::size_t dimension);

    /// Probe every point (point i uses rng.child(i + 1)); `generation` is
    /// observational (trace instants). Deterministic in (points, rng).
    [[nodiscard]] std::vector<ProbeResult>
    probe(eval::Engine& engine, const std::vector<std::vector<double>>& points,
          Rng rng, std::size_t generation);

    /// Samples spent across all probe calls so far (pilot + folded main).
    [[nodiscard]] std::size_t total_samples() const { return total_samples_; }

    /// The carried warm-start proposal (empty components until a cold pilot
    /// qualifies).
    [[nodiscard]] const process::ProposalMixture& warm_proposal() const {
        return warm_;
    }

private:
    [[nodiscard]] SequentialConfig warm_config() const;

    ProbeConfig config_;
    std::vector<mc::Spec> specs_;
    PointKernelFactory factory_;
    std::size_t dimension_ = 0;
    SequentialConfig cold_config_;
    process::ProposalMixture warm_;
    std::size_t total_samples_ = 0;
};

} // namespace ypm::yield
