#pragma once
/// \file ota_mc.hpp
/// \brief Monte Carlo analysis of one OTA sizing (paper section 3.4 / 4.4):
///        N process realisations, each measured through the full testbench.

#include "circuits/ota.hpp"
#include "eval/engine.hpp"
#include "mc/monte_carlo.hpp"
#include "process/sampler.hpp"
#include "util/rng.hpp"
#include "yield/sequential.hpp"

namespace ypm::core {

/// Run `samples` process realisations of the given sizing through a shared
/// evaluation engine. Result columns: 0 = gain_db, 1 = pm_deg (NaN rows
/// mark convergence failures).
[[nodiscard]] mc::McResult
run_ota_monte_carlo(eval::Engine& engine, const circuits::OtaEvaluator& evaluator,
                    const circuits::OtaSizing& sizing,
                    const process::ProcessSampler& sampler, std::size_t samples,
                    Rng& rng);

/// Async variant: enqueue the run and return its ticket without blocking,
/// so MC stages of several Pareto points overlap on the engine's pool.
/// `evaluator` and `sampler` must outlive mc::wait_monte_carlo(); rows are
/// bit-identical to run_ota_monte_carlo() with the same engine state/rng.
[[nodiscard]] mc::McTicket
submit_ota_monte_carlo(eval::Engine& engine,
                       const circuits::OtaEvaluator& evaluator,
                       const circuits::OtaSizing& sizing,
                       const process::ProcessSampler& sampler,
                       std::size_t samples, Rng& rng);

/// Kernel factory for the variance-reduction yield engine
/// (yield::SequentialYieldRunner): chunks draw process realisations from the
/// defensive mixture proposal (process::ProcessSampler::sample_mixture) and
/// measure them through the warm prototype pool. Rows are {gain_db, pm_deg,
/// log_weight}, plus the standardized coordinates when u recording is
/// requested; a failed simulation keeps its (valid) weight and fails every
/// spec via NaN performances. With a one-component inactive mixture the
/// performance columns are bit-identical to run_ota_monte_carlo rows.
/// `evaluator` and `sampler` are captured by reference and must outlive the
/// run; sizing, geometry and the mixture are captured by value.
[[nodiscard]] yield::KernelFactory
ota_yield_kernel_factory(const circuits::OtaEvaluator& evaluator,
                         const circuits::OtaSizing& sizing,
                         const process::ProcessSampler& sampler);

/// Standardized process-space dimension of the factory's u record (the
/// testbench's MOS inventory; identical for every sizing of one topology).
[[nodiscard]] std::size_t
ota_yield_dimension(const circuits::OtaEvaluator& evaluator,
                    const circuits::OtaSizing& sizing);

} // namespace ypm::core
