#pragma once
/// \file sensitivity.hpp
/// \brief Finite-difference sensitivity of the OTA performance to each
///        designable parameter.
///
/// Answers "which W/L actually moves gain and phase margin here?" - the
/// designer-facing diagnostic behind the paper's parameter choice (its
/// Table 1 fixes M1/M2 and exposes 8 parameters; the sensitivities show
/// why that split is reasonable at typical sizings).

#include <string>
#include <vector>

#include "circuits/ota.hpp"
#include "eval/engine.hpp"

namespace ypm::core {

/// Sensitivity of both objectives to one parameter, as relative-to-relative
/// ("elasticity") values: (df/f) / (dp/p) evaluated by central differences.
struct ParameterSensitivity {
    std::string name;
    double value = 0.0;        ///< parameter value at the expansion point
    double gain_elasticity = 0.0; ///< % gain(dB) change per % parameter change
    double pm_elasticity = 0.0;   ///< % PM change per % parameter change
};

struct SensitivityReport {
    double gain_db = 0.0; ///< nominal performance at the expansion point
    double pm_deg = 0.0;
    std::vector<ParameterSensitivity> parameters; ///< one per designable

    /// Parameter with the largest |gain elasticity| / |pm elasticity|.
    [[nodiscard]] const ParameterSensitivity& dominant_for_gain() const;
    [[nodiscard]] const ParameterSensitivity& dominant_for_pm() const;
};

/// Compute the report at a sizing, submitting the nominal point and all
/// 2x8 central-difference probes as one engine batch (they simulate in
/// parallel; probes landing on already-evaluated points hit the cache).
/// \param rel_step central-difference step as a fraction of each parameter
/// value (clipped to the Table 1 box).
/// \throws ypm::NumericalError when the nominal point fails to simulate.
[[nodiscard]] SensitivityReport
compute_sensitivities(eval::Engine& engine,
                      const circuits::OtaEvaluator& evaluator,
                      const circuits::OtaSizing& sizing, double rel_step = 0.02);

} // namespace ypm::core
