#include "process/sampler.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <string>

#include "util/error.hpp"

namespace ypm::process {

MosDelta Realization::global_for(bool is_pmos) const {
    MosDelta d;
    d.dvth = is_pmos ? global.dvth_p : global.dvth_n;
    d.kp_scale = is_pmos ? global.kp_scale_p : global.kp_scale_n;
    d.cox_scale = global.cox_scale;
    return d;
}

MosDelta Realization::delta_for(const std::string& name, bool is_pmos) const {
    MosDelta d = global_for(is_pmos);
    const auto it = local.find(name);
    if (it != local.end()) {
        d.dvth += it->second.dvth;
        d.kp_scale *= it->second.kp_scale;
    }
    return d;
}

double SampleShift::norm() const {
    double sum = 0.0;
    for (double m : mu) sum += m * m;
    return std::sqrt(sum);
}

bool SampleShift::active() const {
    if (scale != 1.0) return true;
    for (double m : mu)
        if (m != 0.0) return true;
    return false;
}

ProposalMixture ProposalMixture::nominal() {
    ProposalMixture mix;
    mix.components.emplace_back();
    return mix;
}

ProposalMixture ProposalMixture::single(SampleShift shift) {
    ProposalMixture mix;
    ProposalComponent comp;
    comp.mu = std::move(shift.mu);
    comp.scale = shift.scale;
    mix.components.push_back(std::move(comp));
    return mix;
}

bool ProposalMixture::active() const {
    if (components.size() > 1) return true;
    for (const ProposalComponent& c : components) {
        for (double s : c.sigma)
            if (s != 1.0) return true;
        SampleShift shift;
        shift.mu = c.mu;
        shift.scale = c.sigma.empty() ? c.scale : 1.0;
        if (shift.active()) return true;
    }
    return false;
}

std::size_t ProposalMixture::pick_component(double u01) const {
    if (components.empty())
        throw InvalidInputError("ProposalMixture: cannot pick from an empty mixture");
    double total = 0.0;
    for (const ProposalComponent& c : components) total += c.weight;
    double cum = 0.0;
    for (std::size_t k = 0; k + 1 < components.size(); ++k) {
        cum += components[k].weight / total;
        if (u01 < cum) return k;
    }
    return components.size() - 1;
}

void ProposalMixture::validate(std::size_t dimension) const {
    for (const ProposalComponent& c : components) {
        if (!(c.weight > 0.0) || !std::isfinite(c.weight))
            throw InvalidInputError(
                "ProposalMixture: component weights must be finite and > 0");
        if (!(c.scale > 0.0) || !std::isfinite(c.scale))
            throw InvalidInputError(
                "ProposalMixture: component scales must be finite and > 0");
        if (!c.mu.empty() && c.mu.size() != dimension)
            throw InvalidInputError(
                "ProposalMixture: component dimension mismatch (got " +
                std::to_string(c.mu.size()) + ", expected " +
                std::to_string(dimension) + ")");
        for (double m : c.mu)
            if (!std::isfinite(m))
                throw InvalidInputError(
                    "ProposalMixture: non-finite component mean entry");
        if (!c.sigma.empty() && c.sigma.size() != dimension)
            throw InvalidInputError(
                "ProposalMixture: component sigma dimension mismatch (got " +
                std::to_string(c.sigma.size()) + ", expected " +
                std::to_string(dimension) + ")");
        for (double s : c.sigma)
            if (!(s > 0.0) || !std::isfinite(s))
                throw InvalidInputError(
                    "ProposalMixture: per-dimension sigma entries must be "
                    "finite and > 0");
    }
}

namespace {

/// log sum_k exp(terms[k]) without overflow; terms must be non-empty.
double log_sum_exp(std::span<const double> terms) {
    const double peak = *std::max_element(terms.begin(), terms.end());
    if (!std::isfinite(peak)) return peak; // all -inf (or a NaN poisoning)
    double sum = 0.0;
    for (double t : terms) sum += std::exp(t - peak);
    return peak + std::log(sum);
}

/// Mixture log density of the standardized vector given the per-component
/// log products (each already summed over the active dimensions, without
/// the -dim/2*log(2*pi) constant - it cancels against log phi(u)).
double log_mixture_density(const std::vector<ProposalComponent>& components,
                           std::span<double> log_q) {
    double total = 0.0;
    for (const ProposalComponent& c : components) total += c.weight;
    for (std::size_t k = 0; k < components.size(); ++k)
        log_q[k] += std::log(components[k].weight / total);
    return log_sum_exp(log_q);
}

} // namespace

double ProposalMixture::log_weight_of(std::span<const double> u) const {
    validate(u.size());
    if (components.empty()) return 0.0; // nominal: w = 1 exactly
    double log_p = 0.0;
    // The per-component sums live on the stack for the mixtures the fits
    // build (a nominal component plus one per spec), so a synthetic
    // kernel's draw allocates nothing.
    constexpr std::size_t kInline = 8;
    std::array<double, kInline> inline_q{};
    std::vector<double> heap_q(components.size() > kInline ? components.size()
                                                           : 0);
    const std::span<double> log_q =
        heap_q.empty() ? std::span<double>(inline_q).first(components.size())
                       : std::span<double>(heap_q);
    for (std::size_t i = 0; i < u.size(); ++i) {
        log_p += -0.5 * u[i] * u[i];
        for (std::size_t k = 0; k < components.size(); ++k) {
            const ProposalComponent& c = components[k];
            const double m = c.mu.empty() ? 0.0 : c.mu[i];
            const double s = c.scale_at(i);
            const double t = (u[i] - m) / s;
            log_q[k] += -0.5 * t * t - std::log(s);
        }
    }
    return log_p - log_mixture_density(components, log_q);
}

ProcessSampler::ProcessSampler(ProcessCard card, VariationSpec spec)
    : card_(std::move(card)), spec_(spec) {}

Realization ProcessSampler::sample(Rng& rng,
                                   const std::vector<MosGeometry>& devices) const {
    ShiftedDraw draw;
    sample_impl(rng, devices, nullptr, draw, false);
    return std::move(draw.realization);
}

ShiftedDraw ProcessSampler::sample_shifted(Rng& rng,
                                           const std::vector<MosGeometry>& devices,
                                           const SampleShift& shift,
                                           bool record_u) const {
    ShiftedDraw draw;
    sample_impl(rng, devices, &shift, draw, record_u);
    return draw;
}

namespace {

/// The one definition of the standardized dimension order (documented on
/// SampleShift): fills a realisation by calling draw(sigma) once per
/// dimension. Every sampling path - plain, single shift, mixture - walks
/// this exact sequence so their RNG consumption stays aligned.
template <typename DrawFn>
void fill_realization(const VariationSpec& spec,
                      const std::vector<MosGeometry>& devices, DrawFn&& draw,
                      Realization& r) {
    const auto& g = spec.global;
    r.global.dvth_n = draw(g.sigma_vth_n);
    r.global.dvth_p = draw(g.sigma_vth_p);
    r.global.kp_scale_n = 1.0 + draw(g.sigma_kp_rel_n);
    r.global.kp_scale_p = 1.0 + draw(g.sigma_kp_rel_p);
    // Thinner oxide -> larger Cox; tox and Cox are inversely related, and at
    // 1 % spreads the first-order reciprocal is adequate.
    r.global.cox_scale = 1.0 / (1.0 + draw(g.sigma_tox_rel));

    const auto& mm = spec.mismatch;
    for (const auto& dev : devices) {
        if (dev.w <= 0.0 || dev.l <= 0.0)
            throw InvalidInputError("ProcessSampler: non-positive geometry for '" +
                                    dev.name + "'");
        const double inv_sqrt_area = 1.0 / std::sqrt(dev.w * dev.l);
        const double a_vt = dev.is_pmos ? mm.a_vt_p : mm.a_vt_n;
        const double a_beta = dev.is_pmos ? mm.a_beta_p : mm.a_beta_n;
        MosDelta d;
        d.dvth = draw(a_vt * inv_sqrt_area);
        d.kp_scale = 1.0 + draw(a_beta * inv_sqrt_area);
        r.local[dev.name] = d;
    }
}

} // namespace

void ProcessSampler::sample_impl(Rng& rng, const std::vector<MosGeometry>& devices,
                                 const SampleShift* shift, ShiftedDraw& out,
                                 bool record_u) const {
    const std::size_t dim = SampleShift::dimension(devices.size());
    const double* mu = nullptr;
    double scale = 1.0;
    if (shift != nullptr) {
        if (!(shift->scale > 0.0))
            throw InvalidInputError("ProcessSampler: proposal scale must be > 0");
        if (!shift->mu.empty()) {
            if (shift->mu.size() != dim)
                throw InvalidInputError(
                    "ProcessSampler: shift dimension mismatch (got " +
                    std::to_string(shift->mu.size()) + ", expected " +
                    std::to_string(dim) + ")");
            mu = shift->mu.data();
        }
        scale = shift->scale;
    }
    if (record_u) out.u.assign(dim, 0.0);
    out.log_weight = 0.0;
    const double log_scale = std::log(scale);

    // One underlying standard-normal draw per dimension, in the fixed
    // dimension order documented on SampleShift. With m == 0 and scale == 1
    // the value computes as 0.0 + sigma * z, bit-identical to the historic
    // rng.gauss(0.0, sigma) call, and the log weight is exactly 0. The
    // per-dimension incremental accumulation is valid because a single
    // Gaussian proposal is product-form across dimensions (a mixture is
    // not - see sample_mixture).
    std::size_t next_dim = 0;
    auto draw = [&](double sigma) {
        const std::size_t i = next_dim++;
        const double m = mu != nullptr ? mu[i] : 0.0;
        const double z = rng.gauss();
        const double value = m * sigma + (scale * sigma) * z;
        if (sigma > 0.0) {
            // u is the standardized coordinate under the nominal density;
            // the proposal density of u is phi((u - m)/scale)/scale with
            // (u - m)/scale = z, so
            //   log w = log phi(u) - log(phi(z)/scale)
            //         = log(scale) + z^2/2 - u^2/2.
            const double u = m + scale * z;
            out.log_weight += log_scale + 0.5 * z * z - 0.5 * u * u;
            if (record_u) out.u[i] = u;
        }
        return value;
    };
    fill_realization(spec_, devices, draw, out.realization);
}

ShiftedDraw ProcessSampler::sample_mixture(Rng& rng,
                                           const std::vector<MosGeometry>& devices,
                                           const ProposalMixture& mixture,
                                           bool record_u) const {
    const std::size_t dim = SampleShift::dimension(devices.size());
    mixture.validate(dim);

    // Zero or one isotropic component: the single-shift path, bit-identical
    // RNG consumption to sample() (no component-selection draw), and with
    // an inactive component bit-identical realisations with log_weight
    // exactly 0. A single component with *per-dimension* sigma cannot ride
    // SampleShift (scalar scale only) and falls through to the generic
    // path below, which also skips the component-selection draw for it.
    if (mixture.components.size() <= 1 &&
        (mixture.components.empty() || mixture.components.front().sigma.empty())) {
        SampleShift shift;
        if (!mixture.components.empty()) {
            shift.mu = mixture.components.front().mu;
            shift.scale = mixture.components.front().scale;
        }
        ShiftedDraw draw = sample_shifted(rng, devices, shift, record_u);
        draw.component = 0;
        return draw;
    }

    // Defensive mixture: one uniform picks the component (skipped for a
    // single diagonal-covariance component - there is nothing to pick),
    // then the per-dimension Gaussians are drawn from it in the standard
    // order. The mixture density is not product-form across dimensions, so
    // the log weight cannot be accumulated per dimension under one formula;
    // instead every component's log density of the *whole* standardized
    // vector u is accumulated and combined once at the end:
    //   log w = log phi(u) - logsumexp_k(log p_k + log q_k(u)).
    // Zero-sigma dimensions are deterministic under every component and
    // drop out of both densities.
    const std::size_t chosen = mixture.components.size() > 1
                                   ? mixture.pick_component(rng.uniform01())
                                   : 0;
    const ProposalComponent& comp = mixture.components[chosen];

    ShiftedDraw out;
    out.component = chosen;
    if (record_u) out.u.assign(dim, 0.0);
    double log_p = 0.0; // log phi(u) over active dims, constants dropped
    std::vector<double> log_q(mixture.components.size(), 0.0);
    std::size_t next_dim = 0;
    auto draw = [&](double sigma) {
        const std::size_t i = next_dim++;
        const double m = comp.mu.empty() ? 0.0 : comp.mu[i];
        const double s = comp.scale_at(i);
        const double z = rng.gauss();
        const double value = m * sigma + (s * sigma) * z;
        if (sigma > 0.0) {
            const double u = m + s * z;
            log_p += -0.5 * u * u;
            for (std::size_t k = 0; k < mixture.components.size(); ++k) {
                const ProposalComponent& c = mixture.components[k];
                const double mk = c.mu.empty() ? 0.0 : c.mu[i];
                const double sk = c.scale_at(i);
                const double t = (u - mk) / sk;
                log_q[k] += -0.5 * t * t - std::log(sk);
            }
            if (record_u) out.u[i] = u;
        }
        return value;
    };
    fill_realization(spec_, devices, draw, out.realization);
    out.log_weight = log_p - log_mixture_density(mixture.components, log_q);
    return out;
}

} // namespace ypm::process
