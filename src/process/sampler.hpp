#pragma once
/// \file sampler.hpp
/// \brief Draws process realisations (global + per-device mismatch deltas)
///        for Monte Carlo analysis and importance-sampled yield estimation
///        (shifted/widened proposal distributions with exact log likelihood
///        ratios).

#include <cstddef>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "process/process_card.hpp"
#include "process/variation.hpp"
#include "util/rng.hpp"

namespace ypm::process {

/// Geometry of one MOS instance, used to scale Pelgrom mismatch.
struct MosGeometry {
    std::string name;   ///< instance name, e.g. "m3"
    bool is_pmos = false;
    double w = 10e-6;   ///< m
    double l = 1e-6;    ///< m
};

/// Combined parameter delta for one device instance.
struct MosDelta {
    double dvth = 0.0;     ///< additive threshold shift (V, magnitude space)
    double kp_scale = 1.0; ///< multiplicative KP factor
    double cox_scale = 1.0;///< multiplicative Cox factor (from tox)
};

/// One sampled die: global shifts plus per-instance mismatch.
class Realization {
public:
    Realization() = default;

    /// Total delta (global + local) for a named instance; unknown names get
    /// the global component only (devices excluded from mismatch, e.g.
    /// ideal bias elements).
    [[nodiscard]] MosDelta delta_for(const std::string& name, bool is_pmos) const;

    /// Global-only component for a polarity.
    [[nodiscard]] MosDelta global_for(bool is_pmos) const;

    struct Global {
        double dvth_n = 0.0, dvth_p = 0.0;
        double kp_scale_n = 1.0, kp_scale_p = 1.0;
        double cox_scale = 1.0;
    };

    Global global;
    std::unordered_map<std::string, MosDelta> local; ///< per-instance mismatch
};

/// Mean shift (and optional widening) of the sampling distribution in the
/// *standardized* process space: every underlying Gaussian draw u_i ~ N(0,1)
/// of a realisation is replaced by u_i ~ N(mu_i, scale^2). Used as the
/// proposal distribution for importance-sampled yield estimation; the
/// default-constructed shift is the nominal distribution.
///
/// Dimension layout (must match the draw order of ProcessSampler::sample):
///   0 dvth_n global   1 dvth_p global   2 kp_n global   3 kp_p global
///   4 tox global      5+2k dvth mismatch of devices[k]
///                     6+2k beta mismatch of devices[k]
struct SampleShift {
    /// Per-dimension mean shift in nominal-sigma units. Empty = all zero;
    /// otherwise the size must equal dimension(devices.size()).
    std::vector<double> mu;
    /// Proposal sigma multiplier (> 0). 1 keeps the nominal spread; pilot
    /// runs widen it to locate failure regions faster.
    double scale = 1.0;

    /// Number of standardized dimensions for a device list.
    [[nodiscard]] static std::size_t dimension(std::size_t device_count) {
        return 5 + 2 * device_count;
    }

    /// Euclidean norm of the mean shift (0 for an empty mu).
    [[nodiscard]] double norm() const;

    /// True when this shift changes the sampling distribution at all.
    [[nodiscard]] bool active() const;
};

/// One component of a Gaussian mixture proposal: a translated/widened
/// standard normal in the standardized process space (same layout and
/// semantics as SampleShift) plus a relative mixture weight. A component
/// may carry a *diagonal* covariance via per-dimension sigma multipliers
/// (`sigma`, scale-adapted cross-entropy refits emit these); when `sigma`
/// is empty the scalar `scale` applies to every dimension.
struct ProposalComponent {
    std::vector<double> mu; ///< empty = zero shift; else one entry per dim
    double scale = 1.0;     ///< isotropic sigma multiplier (> 0)
    /// Per-dimension sigma multipliers (diagonal covariance, each > 0);
    /// empty = use `scale` for every dimension. Non-empty sigma overrides
    /// `scale` entirely.
    std::vector<double> sigma;
    double weight = 1.0;    ///< relative (unnormalized) mixture weight (> 0)

    /// Sigma multiplier of dimension i under this component.
    [[nodiscard]] double scale_at(std::size_t i) const {
        return sigma.empty() ? scale : sigma[i];
    }
};

/// Defensive Gaussian-mixture proposal for importance-sampled yield
/// estimation: q(u) = sum_k p_k * prod_i phi((u_i - mu_k_i)/s_k)/s_k with
/// p_k the normalized component weights. A single mean-shift proposal
/// cannot cover the disjoint failure regions of a multi-spec problem; the
/// standard cure (Jonsson/Lelong-style defensive IS) is one component per
/// failure mode plus a nominal component that bounds the weights near the
/// bulk. An empty component list - the default - is the nominal
/// distribution, and a one-component mixture reduces exactly to the single
/// SampleShift path (no component-selection draw is consumed).
struct ProposalMixture {
    std::vector<ProposalComponent> components;

    /// The nominal (plain Monte Carlo) proposal as an explicit single
    /// component.
    [[nodiscard]] static ProposalMixture nominal();

    /// Wrap one SampleShift as a one-component mixture (the legacy ISLE
    /// single-shift proposal).
    [[nodiscard]] static ProposalMixture single(SampleShift shift);

    /// True when sampling from this mixture differs from the nominal
    /// distribution (any shifted/widened component, or >= 2 components).
    [[nodiscard]] bool active() const;

    /// Component index selected by a uniform [0, 1) variate against the
    /// cumulative normalized weights. \throws ypm::InvalidInputError on an
    /// empty mixture.
    [[nodiscard]] std::size_t pick_component(double u01) const;

    /// Exact log likelihood ratio log(phi(u) / q_mix(u)) for standardized
    /// coordinates u with *unit* nominal sigmas - the brute-force mixture
    /// density evaluation used by synthetic yield kernels and tests (the
    /// process sampler computes the same quantity internally, skipping
    /// zero-sigma dimensions). Exactly 0 for an inactive mixture.
    [[nodiscard]] double log_weight_of(std::span<const double> u) const;

    /// \throws ypm::InvalidInputError when any component has a non-positive
    /// or non-finite weight/scale, a non-finite mu entry, a mu or sigma
    /// dimension that is neither empty nor `dimension`, or a non-positive
    /// per-dimension sigma entry.
    void validate(std::size_t dimension) const;
};

/// One draw from a shifted proposal: the realisation, the exact log
/// likelihood ratio log(p_nominal(u) / p_proposal(u)) for importance
/// weighting (the estimator lives in yield/weighted.hpp), and (optionally)
/// the standardized coordinates u themselves for shift fitting. log_weight
/// is exactly 0 for the nominal proposal (zero mu, scale 1).
struct ShiftedDraw {
    Realization realization;
    double log_weight = 0.0;
    std::vector<double> u; ///< filled only when record_u was requested
    std::size_t component = 0; ///< mixture component the draw came from
};

/// Sampler bound to a card + statistical spec.
class ProcessSampler {
public:
    ProcessSampler(ProcessCard card, VariationSpec spec);

    /// Draw a full Monte Carlo realisation. Deterministic in the RNG state;
    /// callers derive per-sample child streams for parallel runs.
    [[nodiscard]] Realization sample(Rng& rng,
                                     const std::vector<MosGeometry>& devices) const;

    /// Draw from the shifted proposal distribution. Consumes the RNG stream
    /// exactly like sample() (same draws, same order), and with an inactive
    /// shift the realisation is bit-identical to sample() with log_weight
    /// exactly 0 - the zero-shift importance-sampling path reduces to plain
    /// Monte Carlo. \throws ypm::InvalidInputError on a mu dimension
    /// mismatch or non-positive scale.
    [[nodiscard]] ShiftedDraw sample_shifted(Rng& rng,
                                             const std::vector<MosGeometry>& devices,
                                             const SampleShift& shift,
                                             bool record_u = false) const;

    /// Draw from a defensive mixture proposal. With zero or one *isotropic*
    /// component this delegates to the single-shift path (same RNG
    /// consumption as sample(); an inactive component is bit-identical to
    /// sample() with log_weight exactly 0); a single diagonal-covariance
    /// component draws the same per-dimension sequence without a
    /// component-selection uniform. With >= 2 components one uniform draw
    /// picks the component, then the per-dimension Gaussians are drawn
    /// exactly like sample_shifted's; because a mixture density is not
    /// product-form across dimensions, the log weight is computed over the
    /// whole standardized vector: log w = log phi(u) - log q_mix(u).
    /// \throws ypm::InvalidInputError on an invalid mixture (see
    /// ProposalMixture::validate).
    [[nodiscard]] ShiftedDraw sample_mixture(Rng& rng,
                                             const std::vector<MosGeometry>& devices,
                                             const ProposalMixture& mixture,
                                             bool record_u = false) const;

    [[nodiscard]] const ProcessCard& card() const { return card_; }
    [[nodiscard]] const VariationSpec& spec() const { return spec_; }

private:
    ProcessCard card_;
    VariationSpec spec_;

    void sample_impl(Rng& rng, const std::vector<MosGeometry>& devices,
                     const SampleShift* shift, ShiftedDraw& out,
                     bool record_u) const;
};

} // namespace ypm::process
