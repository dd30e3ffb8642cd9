#include "mc/monte_carlo.hpp"

#include <cmath>

#include "util/error.hpp"

namespace ypm::mc {

namespace {
bool row_failed(const std::vector<double>& row) {
    for (double v : row)
        if (std::isnan(v)) return true;
    return false;
}
} // namespace

void McResult::finalize() {
    finalized_ = false;
    ensure_finalized();
}

void McResult::ensure_finalized() const {
    if (finalized_ && failure_mask_.size() == rows.size()) return;
    failure_mask_.assign(rows.size(), 0);
    failed_ = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        failure_mask_[i] = row_failed(rows[i]) ? 1 : 0;
        if (failure_mask_[i]) ++failed_;
    }
    finalized_ = true;
}

std::size_t McResult::failed() const {
    ensure_finalized();
    return failed_;
}

const std::vector<char>& McResult::failure_mask() const {
    ensure_finalized();
    return failure_mask_;
}

Summary McResult::column_summary(std::size_t col) const {
    return summarize(column(col));
}

std::vector<double> McResult::column(std::size_t col) const {
    ensure_finalized();
    std::vector<double> out;
    out.reserve(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (failure_mask_[i] != 0) continue;
        if (col >= rows[i].size())
            throw InvalidInputError("McResult::column: column out of range");
        out.push_back(rows[i][col]);
    }
    if (out.empty())
        throw NumericalError("McResult::column: every sample failed");
    return out;
}

VariationMetrics McResult::column_variation(std::size_t col) const {
    return variation_metrics(column(col));
}

namespace {

/// The shared sampling discipline: a non-cacheable one-shot batch with the
/// sample index as process key.
eval::EvalBatch sample_batch(std::size_t samples) {
    eval::EvalBatch batch;
    batch.items.resize(samples);
    for (std::size_t i = 0; i < samples; ++i) {
        batch.items[i].process_key = i;
        batch.items[i].cacheable = false;
    }
    return batch;
}

McResult collect_rows(std::vector<eval::EvalResult> evals) {
    McResult result;
    result.rows.resize(evals.size());
    for (std::size_t i = 0; i < evals.size(); ++i)
        result.rows[i] = std::move(evals[i].values);
    result.finalize();
    return result;
}

} // namespace

McResult run_monte_carlo(eval::Engine& engine, const McConfig& config, Rng& rng,
                         const ChunkSampleFn& fn) {
    return wait_monte_carlo(engine, submit_monte_carlo(engine, config, rng, fn));
}

McTicket submit_monte_carlo(eval::Engine& engine, const McConfig& config,
                            Rng& rng, const ChunkSampleFn& fn) {
    if (config.samples == 0)
        throw InvalidInputError("submit_monte_carlo: need >= 1 sample");

    eval::EvalBatch batch = sample_batch(config.samples);
    // The adapter owns a copy of fn: the chunk jobs may still be running
    // after the submitting scope has moved on to the next Pareto point.
    return McTicket{engine.submit(
        std::move(batch),
        eval::ChunkKernelFn(
            [fn](const std::vector<const eval::EvalRequest*>& requests,
                 std::span<Rng> rngs) {
                std::vector<std::size_t> ids;
                ids.reserve(requests.size());
                for (const eval::EvalRequest* r : requests)
                    ids.push_back(r->process_key);
                return fn(ids, rngs);
            }),
        rng)};
}

McResult wait_monte_carlo(eval::Engine& engine, McTicket ticket) {
    return collect_rows(engine.wait(std::move(ticket.ticket)));
}

} // namespace ypm::mc
