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

std::size_t McResult::failed() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < rows.size(); ++i)
        if (row_failed(rows.row(i))) ++n;
    return n;
}

Summary McResult::column_summary(std::size_t col) const {
    return summarize(column(col));
}

std::vector<double> McResult::column(std::size_t col) const {
    if (col >= rows.arity() && !rows.empty())
        throw InvalidInputError("McResult::column: column out of range");
    std::vector<double> out;
    out.reserve(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        if (!row_failed(rows.row(i))) out.push_back(rows.row(i)[col]);
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
    return McResult{engine.wait(std::move(ticket.ticket))};
}

} // namespace ypm::mc
