#include "core/corners.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "moo/problem.hpp"
#include "util/error.hpp"

namespace ypm::core {

namespace {

/// Cache-key convention: 0 is reserved for the nominal process, so corner
/// c maps to 1 + its enum value.
std::uint64_t corner_key(process::Corner c) {
    return 1 + static_cast<std::uint64_t>(c);
}

process::Corner corner_from_key(std::uint64_t key) {
    return static_cast<process::Corner>(key - 1);
}

} // namespace

const CornerPoint& CornerSweep::at(process::Corner c) const {
    for (const auto& p : points)
        if (p.corner == c) return p;
    throw InvalidInputError("CornerSweep: corner not present");
}

CornerSweep run_corner_sweep(eval::Engine& engine,
                             const circuits::OtaEvaluator& evaluator,
                             const circuits::OtaSizing& sizing,
                             const process::ProcessSampler& sampler) {
    using process::Corner;
    constexpr Corner kCorners[] = {Corner::tt, Corner::ff, Corner::ss, Corner::fs,
                                   Corner::sf};

    eval::EvalBatch batch;
    for (Corner c : kCorners) batch.add(sizing.to_vector(), corner_key(c));

    // Chunk kernel: corner realisations decode from the process key, then
    // the whole group measures through a leased warm testbench prototype.
    const auto evals = engine.evaluate(
        std::move(batch),
        eval::ChunkKernelFn([&](const std::vector<const eval::EvalRequest*>&
                                    requests) {
            std::vector<circuits::OtaSizing> sizings;
            std::vector<process::Realization> reals;
            sizings.reserve(requests.size());
            reals.reserve(requests.size());
            for (const eval::EvalRequest* request : requests) {
                sizings.push_back(
                    circuits::OtaSizing::from_vector(request->params));
                reals.push_back(
                    sampler.corner(corner_from_key(request->process_key)));
            }
            const auto perfs = evaluator.measure_chunk(sizings, reals);
            std::vector<std::vector<double>> rows;
            rows.reserve(perfs.size());
            for (const circuits::OtaPerformance& perf : perfs) {
                if (!perf.valid)
                    rows.push_back(moo::failed_evaluation(2));
                else
                    rows.push_back({perf.gain_db, perf.pm_deg});
            }
            return rows;
        }));

    CornerSweep sweep;
    sweep.points.reserve(std::size(kCorners));
    for (std::size_t i = 0; i < std::size(kCorners); ++i) {
        CornerPoint point;
        point.corner = kCorners[i];
        if (!evals[i].failed()) {
            point.valid = true;
            point.gain_db = evals[i].values[0];
            point.pm_deg = evals[i].values[1];
        }
        sweep.points.push_back(point);
    }

    if (!sweep.points.front().valid)
        throw NumericalError("run_corner_sweep: typical corner failed to simulate");

    bool first = true;
    for (const auto& p : sweep.points) {
        if (!p.valid) continue;
        if (first) {
            sweep.gain_min = sweep.gain_max = p.gain_db;
            sweep.pm_min = sweep.pm_max = p.pm_deg;
            first = false;
            continue;
        }
        sweep.gain_min = std::min(sweep.gain_min, p.gain_db);
        sweep.gain_max = std::max(sweep.gain_max, p.gain_db);
        sweep.pm_min = std::min(sweep.pm_min, p.pm_deg);
        sweep.pm_max = std::max(sweep.pm_max, p.pm_deg);
    }

    const CornerPoint& tt = sweep.points.front();
    if (std::fabs(tt.gain_db) > 0.0)
        sweep.dgain_halfspread_pct =
            0.5 * (sweep.gain_max - sweep.gain_min) / std::fabs(tt.gain_db) * 100.0;
    if (std::fabs(tt.pm_deg) > 0.0)
        sweep.dpm_halfspread_pct =
            0.5 * (sweep.pm_max - sweep.pm_min) / std::fabs(tt.pm_deg) * 100.0;
    return sweep;
}

} // namespace ypm::core
