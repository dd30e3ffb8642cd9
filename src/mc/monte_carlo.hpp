#pragma once
/// \file monte_carlo.hpp
/// \brief Generic Monte Carlo runner (paper section 3.4).
///
/// The runner owns only the sampling discipline: N samples, each evaluated
/// with an independent deterministic RNG child stream, with failed samples
/// (NaN performances) tracked separately so convergence failures degrade
/// yield instead of silently vanishing. A run is one engine sample batch:
/// scheduling, parallelism and accounting are the engine's, samples reach
/// the kernel in worker-sized chunks, and the batch's rows come back as one
/// flat eval::RowBlock - no sample owns a heap object between the kernel
/// and the yield fold.

#include <span>
#include <vector>

#include "eval/engine.hpp"
#include "mc/stats.hpp"
#include "util/rng.hpp"

namespace ypm::mc {

struct McConfig {
    std::size_t samples = 200; ///< paper section 4.4 uses 200 per Pareto point
};

struct McResult {
    /// Row i = performance vector of sample i (may contain NaN on failure),
    /// stored flat.
    eval::RowBlock rows;

    /// Samples in the result.
    [[nodiscard]] std::size_t size() const { return rows.size(); }
    /// Performance vector of sample i.
    [[nodiscard]] std::span<const double> row(std::size_t i) const {
        return rows.row(i);
    }

    /// Samples with any NaN performance (scans the rows on every call).
    [[nodiscard]] std::size_t failed() const;

    /// Column-wise summary over the *successful* samples only.
    [[nodiscard]] Summary column_summary(std::size_t column) const;

    /// Column extracted over successful samples.
    [[nodiscard]] std::vector<double> column(std::size_t column) const;

    /// Paper Δ(%) metric for one column.
    [[nodiscard]] VariationMetrics column_variation(std::size_t column) const;
};

/// Sample kernel: the rows of a group of samples at once, one flat block
/// with one row per sample in order; sample_ids[k] is the Monte Carlo
/// sample index and rngs[k] its child stream. Must be thread-safe, return
/// rows of the same arity every call, and keep each row independent of how
/// the samples are grouped into chunks (boundaries depend on the worker
/// count). The engine's sample kernel shape.
using ChunkSampleFn = eval::SampleKernelFn;

/// Evaluate `fn` for each sample through a shared engine (one ledger across
/// the whole flow). Advances `rng` once; bit-identical for any thread count.
[[nodiscard]] McResult run_monte_carlo(eval::Engine& engine,
                                       const McConfig& config, Rng& rng,
                                       const ChunkSampleFn& fn);

/// Handle of one in-flight Monte Carlo run (async engine dispatch).
struct McTicket {
    eval::Engine::SampleTicket ticket;
    [[nodiscard]] bool valid() const { return ticket.valid(); }
};

/// Async variant of run_monte_carlo: enqueue the run and return without
/// blocking, so the MC stages of several Pareto points stream onto the pool
/// together. Advances `rng` once at submission (same derivation as the
/// blocking runner, in submission order); `fn` is copied and anything it
/// captures by reference must outlive wait_monte_carlo(). Rows are
/// bit-identical to run_monte_carlo() with the same engine state and rng.
[[nodiscard]] McTicket submit_monte_carlo(eval::Engine& engine,
                                          const McConfig& config, Rng& rng,
                                          const ChunkSampleFn& fn);

/// Block until the submitted run (and every batch submitted to the engine
/// before it) has retired, then collect its rows.
[[nodiscard]] McResult wait_monte_carlo(eval::Engine& engine, McTicket ticket);

} // namespace ypm::mc
