#pragma once
/// \file corners.hpp
/// \brief Worst-case corner screening of an OTA sizing.
///
/// Before spending a Monte Carlo budget, designers sweep the classic
/// process corners (TT/FF/SS/FS/SF at +/-3 sigma global shifts). Corner
/// screening brackets the global-variation component of the spread but
/// misses local mismatch, so it complements - never replaces - the paper's
/// per-point MC (see bench_ablation_mc for the quantitative comparison).

#include <string>
#include <vector>

#include "circuits/ota.hpp"
#include "eval/engine.hpp"
#include "process/sampler.hpp"

namespace ypm::core {

/// Performance at one corner.
struct CornerPoint {
    process::Corner corner = process::Corner::tt;
    bool valid = false;
    double gain_db = 0.0;
    double pm_deg = 0.0;
};

/// Results of a 5-corner sweep.
struct CornerSweep {
    std::vector<CornerPoint> points; ///< tt, ff, ss, fs, sf in order
    double gain_min = 0.0, gain_max = 0.0;
    double pm_min = 0.0, pm_max = 0.0;

    /// Corner-predicted Δ(%) analogue: half-spread relative to the TT value.
    double dgain_halfspread_pct = 0.0;
    double dpm_halfspread_pct = 0.0;

    [[nodiscard]] const CornerPoint& at(process::Corner c) const;
};

/// Sweep all five corners for a sizing as one engine batch (the corners
/// simulate in parallel through warm pooled testbench prototypes, and
/// repeated sweeps of the same sizing are served from the engine's cache).
/// \throws ypm::NumericalError when the typical (TT) corner fails to
/// simulate; other corner failures are reported via CornerPoint::valid.
[[nodiscard]] CornerSweep run_corner_sweep(eval::Engine& engine,
                                           const circuits::OtaEvaluator& evaluator,
                                           const circuits::OtaSizing& sizing,
                                           const process::ProcessSampler& sampler);

} // namespace ypm::core
