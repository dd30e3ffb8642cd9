#include "mc/monte_carlo.hpp"

#include <cmath>

#include "util/error.hpp"

namespace ypm::mc {

namespace {
bool row_failed(std::span<const double> row) {
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
        failure_mask_[i] = row_failed(rows.row(i)) ? 1 : 0;
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
    if (col >= rows.arity() && !rows.empty())
        throw InvalidInputError("McResult::column: column out of range");
    std::vector<double> out;
    out.reserve(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        if (failure_mask_[i] == 0) out.push_back(rows.row(i)[col]);
    if (out.empty())
        throw NumericalError("McResult::column: every sample failed");
    return out;
}

VariationMetrics McResult::column_variation(std::size_t col) const {
    return variation_metrics(column(col));
}

McResult run_monte_carlo(eval::Engine& engine, const McConfig& config, Rng& rng,
                         const ChunkSampleFn& fn) {
    return wait_monte_carlo(engine, submit_monte_carlo(engine, config, rng, fn));
}

McTicket submit_monte_carlo(eval::Engine& engine, const McConfig& config,
                            Rng& rng, const ChunkSampleFn& fn) {
    if (config.samples == 0)
        throw InvalidInputError("submit_monte_carlo: need >= 1 sample");
    // The engine owns a copy of fn: the chunk jobs may still be running
    // after the submitting scope has moved on to the next Pareto point.
    return McTicket{engine.submit(config.samples, fn, rng)};
}

McResult wait_monte_carlo(eval::Engine& engine, McTicket ticket) {
    McResult result;
    result.rows = engine.wait(std::move(ticket.ticket));
    result.finalize();
    return result;
}

} // namespace ypm::mc
