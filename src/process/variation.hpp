#pragma once
/// \file variation.hpp
/// \brief Statistical variation description: global (inter-die) spreads
///        and Pelgrom local mismatch.
///
/// Substitute for the foundry's statistical model deck (paper section 3.4
/// runs "foundry variation models" through Spectre MC). Global parameters
/// shift every device of a polarity together; local mismatch adds an
/// area-dependent per-device delta with sigma = A / sqrt(W*L) (Pelgrom).

namespace ypm::process {

/// Inter-die (global) 1-sigma spreads.
struct GlobalVariation {
    double sigma_vth_n = 0.010;   ///< V
    double sigma_vth_p = 0.012;   ///< V
    double sigma_kp_rel_n = 0.015;///< relative
    double sigma_kp_rel_p = 0.015;///< relative
    double sigma_tox_rel = 0.010; ///< relative (scales Cox for both types)
};

/// Pelgrom coefficients for local (intra-die) mismatch.
struct MismatchModel {
    double a_vt_n = 9.5e-9;   ///< V*m   : sigma(dVth) = a_vt / sqrt(W*L)
    double a_vt_p = 14.5e-9;  ///< V*m
    double a_beta_n = 0.019e-6; ///< m : sigma(dKP/KP) = a_beta / sqrt(W*L)
    double a_beta_p = 0.022e-6; ///< m
};

/// Full statistical description of a process.
struct VariationSpec {
    GlobalVariation global;
    MismatchModel mismatch;

    /// 0.35 um-class statistical deck (matches ProcessCard::c35()).
    [[nodiscard]] static VariationSpec c35();
};

} // namespace ypm::process
