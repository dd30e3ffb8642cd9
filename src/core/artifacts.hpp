#pragma once
/// \file artifacts.hpp
/// \brief The data files the flow emits (paper sections 3.3-3.5): Pareto
///        performance tables, variation tables and the generated Verilog-A
///        module.

#include <limits>
#include <string>
#include <vector>

#include "circuits/ota.hpp"
#include "yield/sequential.hpp"

namespace ypm::core {

/// One enriched Pareto-front point: nominal performance + MC variation.
struct FrontPointData {
    std::size_t design_id = 0; ///< 1-based index along the front (by gain)
    circuits::OtaSizing sizing;
    double gain_db = 0.0;
    double pm_deg = 0.0;
    double dgain_pct = 0.0; ///< paper Δ: 3*sigma/mean*100 over the MC population
    double dpm_pct = 0.0;
    double dgain_halfrange_pct = 0.0; ///< worst-case variant
    double dpm_halfrange_pct = 0.0;
    double f3db = 0.0; ///< dominant pole (Hz) for the macromodel
    double gbw = 0.0;
    std::size_t mc_failures = 0;
    /// Optimiser-side yield probe estimate of this design (NaN when the
    /// design was never probed: probes off, pre-activation generation, or
    /// outside the probed top-K).
    double probe_yield = std::numeric_limits<double>::quiet_NaN();
};

/// Yield certificate of one surviving front point. The probe estimate that
/// steered the optimiser toward the design stays on its FrontPointData.
struct FrontPointYield {
    std::size_t design_id = 0; ///< matches FrontPointData::design_id
    yield::SequentialYieldResult result;
};

/// Paths of everything written to the artifact directory.
struct ModelArtifacts {
    std::string dir;
    std::string gain_delta_tbl; ///< 1-D: gain_db -> Δgain %
    std::string pm_delta_tbl;   ///< 1-D: pm_deg -> Δpm %
    std::vector<std::string> param_tbls; ///< 2-D: (gain, pm) -> parameter, lp1..lp8
    std::string f3db_tbl;       ///< 2-D: (gain, pm) -> f3db
    std::string front_csv;      ///< full front table for plotting
    std::string yield_csv;      ///< probe-vs-certified yield table; empty
                                ///< when no yield rows were provided
    std::string yield_tbl;      ///< 2-D: (gain, pm) -> certified yield;
                                ///< written only when every front point has
                                ///< a yield row (model back-annotation)
    std::string va_module;      ///< generated Verilog-A source
};

/// Write every artefact for a computed front. Creates `dir` if needed.
/// \throws ypm::IoError on filesystem problems.
[[nodiscard]] ModelArtifacts write_artifacts(const std::vector<FrontPointData>& front,
                                             const std::string& dir);

/// As above, plus the yield artifact table (`yield_front.csv`): one row per
/// certified design - the probe estimate of its front point, the certified
/// estimate with CI/ESS, and the probe-vs-certified delta (the two-tier
/// recipe's calibration signal). Certificates match front points by
/// design_id (one without a matching front point is rejected); when every
/// front point has one, a 2-D (gain, pm) -> yield spline table rides along
/// for model back-annotation. An empty `yields` behaves exactly like the
/// overload above. \throws ypm::InvalidInputError on an unmatched design_id.
[[nodiscard]] ModelArtifacts
write_artifacts(const std::vector<FrontPointData>& front,
                const std::vector<FrontPointYield>& yields,
                const std::string& dir);

/// Reload the front from artefact files (inverse of write_artifacts).
[[nodiscard]] std::vector<FrontPointData>
read_front_from_artifacts(const ModelArtifacts& artifacts);

} // namespace ypm::core
