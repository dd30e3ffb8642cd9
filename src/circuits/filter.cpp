#include "circuits/filter.hpp"

#include <cmath>
#include <functional>

#include "eval/engine.hpp"
#include "mc/monte_carlo.hpp"
#include "spice/analysis/ac.hpp"
#include "spice/analysis/dc.hpp"
#include "spice/devices/capacitor.hpp"
#include "spice/devices/resistor.hpp"
#include "spice/devices/sources.hpp"
#include "util/error.hpp"

namespace ypm::circuits {

using spice::Circuit;
using spice::NodeId;

FilterSizing FilterSizing::from_vector(const std::vector<double>& v) {
    if (v.size() != parameter_count)
        throw InvalidInputError("FilterSizing: expected 3 parameters");
    return {v[0], v[1], v[2]};
}

std::vector<double> FilterSizing::to_vector() const { return {c1, c2, c3}; }

std::vector<moo::ParameterSpec> FilterSizing::parameter_specs() {
    constexpr double lo = 2e-12, hi = 60e-12;
    return {{"c1", lo, hi}, {"c2", lo, hi}, {"c3", lo, hi}};
}

bool FilterPerformance::meets(const FilterSpecMask& mask) const {
    if (!valid) return false;
    if (std::isnan(fc)) return false;
    if (std::fabs(fc - mask.fc_target) > mask.fc_tolerance * mask.fc_target)
        return false;
    if (worst_passband_dev_db > mask.passband_ripple_db) return false;
    if (stopband_atten_db < mask.min_stop_atten_db) return false;
    return true;
}

Circuit build_filter(const FilterSizing& s, const FilterConfig& cfg,
                     OtaModelKind kind) {
    Circuit ckt;
    const NodeId vin = ckt.node("vin");
    const NodeId n1 = ckt.node("n1");
    const NodeId n2 = ckt.node("n2");
    const NodeId out1 = ckt.node("out1");
    const NodeId vout = ckt.node("vout");

    ckt.add<spice::VoltageSource>("vsrc", vin, spice::ground, cfg.vcm, 1.0);

    // Sallen-Key passive network.
    ckt.add<spice::Resistor>("r1", vin, n1, cfg.r1);
    ckt.add<spice::Resistor>("r2", n1, n2, cfg.r2);
    ckt.add<spice::Capacitor>("c1", n1, out1, s.c1);
    ckt.add<spice::Capacitor>("c2", n2, spice::ground, s.c2);
    // Output buffer load.
    ckt.add<spice::Capacitor>("c3", vout, spice::ground, s.c3);

    if (kind == OtaModelKind::behavioural) {
        ckt.add<va::BehaviouralOta>("ota1", n2, out1, out1, cfg.ota_spec);
        ckt.add<va::BehaviouralOta>("ota2", out1, vout, vout, cfg.ota_spec);
    } else {
        const NodeId vdd = ckt.node("vdd");
        ckt.add<spice::VoltageSource>("vsupply", vdd, spice::ground,
                                      cfg.ota_config.card.vdd);
        add_ota_core(ckt, "ota1.", cfg.ota_sizing, cfg.ota_config, n2, out1, out1,
                     vdd);
        add_ota_core(ckt, "ota2.", cfg.ota_sizing, cfg.ota_config, out1, vout, vout,
                     vdd);
    }
    return ckt;
}

FilterEvaluator::FilterEvaluator(FilterConfig config, FilterSpecMask mask)
    : config_(config), mask_(mask), pool_(make_pool()) {}

FilterEvaluator::FilterEvaluator(const FilterEvaluator& other)
    : config_(other.config_), mask_(other.mask_), pool_(make_pool()) {}

FilterEvaluator& FilterEvaluator::operator=(const FilterEvaluator& other) {
    if (this != &other) {
        config_ = other.config_;
        mask_ = other.mask_;
        pool_ = make_pool();
    }
    return *this;
}

std::shared_ptr<spice::PrototypePool<FilterPrototype>>
FilterEvaluator::make_pool() const {
    // Keyed by OtaModelKind: the behavioural and transistor testbenches are
    // structurally different circuits, so they pool separately.
    return std::make_shared<spice::PrototypePool<FilterPrototype>>(
        [this](std::uint64_t key) {
            return std::make_unique<FilterPrototype>(
                *this, static_cast<OtaModelKind>(key));
        });
}

FilterPerformance FilterEvaluator::metrics_from_transfer(
    const std::vector<double>& freqs,
    const std::vector<std::complex<double>>& h) const {
    FilterPerformance perf;
    const auto lp = spice::lowpass_metrics(freqs, h, mask_.f_stop);
    perf.passband_gain_db = lp.passband_gain_db;
    perf.fc = lp.fc;
    perf.stopband_atten_db = lp.stopband_atten_db;

    // Worst deviation from the passband gain below f_pass.
    const auto mag = spice::magnitude_db(h);
    double worst = 0.0;
    for (std::size_t i = 0; i < freqs.size() && freqs[i] <= mask_.f_pass; ++i)
        worst = std::max(worst, std::fabs(mag[i] - perf.passband_gain_db));
    perf.worst_passband_dev_db = worst;

    perf.valid = true;
    return perf;
}

FilterPrototype::FilterPrototype(const FilterEvaluator& evaluator,
                                 OtaModelKind kind)
    : evaluator_(&evaluator),
      proto_(build_filter(FilterSizing{}, evaluator.config(), kind)),
      inst_(proto_.instance()),
      c1_(&proto_.device<spice::Capacitor>("c1")),
      c2_(&proto_.device<spice::Capacitor>("c2")),
      c3_(&proto_.device<spice::Capacitor>("c3")),
      ota1_(kind == OtaModelKind::behavioural
                ? &proto_.device<va::BehaviouralOta>("ota1")
                : nullptr),
      ota2_(kind == OtaModelKind::behavioural
                ? &proto_.device<va::BehaviouralOta>("ota2")
                : nullptr),
      vout_(proto_.node("vout")), vin_(proto_.node("vin")),
      freqs_(spice::log_sweep(evaluator.config().f_start,
                              evaluator.config().f_stop,
                              evaluator.config().points_per_decade)) {}

spice::DcResult
FilterPrototype::bind_and_solve(const FilterSizing& sizing,
                                const FilterOtaSpecs* specs,
                                const process::Realization* realization) {
    c1_->set_capacitance(sizing.c1);
    c2_->set_capacitance(sizing.c2);
    c3_->set_capacitance(sizing.c3);
    if (ota1_ != nullptr) {
        const va::BehaviouralOtaSpec& nominal = evaluator_->config().ota_spec;
        ota1_->set_spec(specs != nullptr ? specs->ota1 : nominal);
        ota2_->set_spec(specs != nullptr ? specs->ota2 : nominal);
    }
    inst_.bind_process(realization);
    return inst_.solve_op();
}

FilterPerformance
FilterPrototype::measure(const FilterSizing& sizing,
                         const FilterOtaSpecs* specs,
                         const process::Realization* realization) {
    FilterPerformance perf;
    const spice::DcResult op = bind_and_solve(sizing, specs, realization);
    if (!op.converged) {
        perf.failure = "dc operating point did not converge";
        return perf;
    }

    std::vector<std::complex<double>> h;
    try {
        h = inst_.ac_transfer(op.solution, freqs_, vout_, vin_);
    } catch (const NumericalError& e) {
        perf.failure = std::string("ac analysis failed: ") + e.what();
        return perf;
    }
    return evaluator_->metrics_from_transfer(freqs_, h);
}

std::vector<std::complex<double>>
FilterPrototype::transfer(const FilterSizing& sizing) {
    const spice::DcResult op = bind_and_solve(sizing, nullptr, nullptr);
    if (!op.converged)
        throw NumericalError(
            "FilterPrototype::transfer: DC operating point did not converge");
    return inst_.ac_transfer(op.solution, freqs_, vout_, vin_);
}

std::vector<FilterPerformance>
FilterEvaluator::measure_chunk(std::span<const FilterSizing> sizings,
                               OtaModelKind kind) const {
    const auto proto = lease(kind);
    std::vector<FilterPerformance> out;
    out.reserve(sizings.size());
    for (const FilterSizing& s : sizings) out.push_back(proto->measure(s));
    return out;
}

FilterPerformance FilterEvaluator::measure(const FilterSizing& sizing,
                                           OtaModelKind kind) const {
    return lease(kind)->measure(sizing);
}

FilterEvaluator::Response
FilterEvaluator::ac_response(const FilterSizing& sizing, OtaModelKind kind) const {
    const auto proto = lease(kind);
    Response r;
    r.h = proto->transfer(sizing);
    r.freqs = proto->freqs();
    return r;
}

namespace {

/// Yield of `samples` pass/fail draws of the filter of one model kind:
/// `measure` draws one sample from its child stream and measures it through
/// the chunk's leased prototype. Runs as a chunk kernel on a private
/// cache-less engine (one stream per sample, so the estimate is the same
/// for any thread count).
mc::YieldEstimate
sampled_yield(const FilterEvaluator& evaluator, OtaModelKind kind,
              std::size_t samples, Rng& rng,
              const std::function<FilterPerformance(FilterPrototype&, Rng&)>&
                  measure) {
    eval::EngineConfig engine_config;
    engine_config.cache_capacity = 0; // nothing to memoise in a one-shot run
    eval::Engine engine(engine_config);
    mc::McConfig mc_cfg;
    mc_cfg.samples = samples;
    const auto result = mc::run_monte_carlo(
        engine, mc_cfg, rng,
        mc::ChunkSampleFn([&](std::span<const std::size_t>,
                              std::span<Rng> rngs) {
            const auto proto = evaluator.lease(kind);
            eval::RowBlock rows(1);
            rows.reserve(rngs.size());
            for (Rng& sample_rng : rngs) {
                const bool pass =
                    measure(*proto, sample_rng).meets(evaluator.mask());
                rows.push_back({pass ? 1.0 : 0.0});
            }
            return rows;
        }));

    std::vector<bool> flags;
    flags.reserve(result.size());
    for (std::size_t i = 0; i < result.size(); ++i)
        flags.push_back(result.row(i)[0] == 1.0);
    return mc::yield_from_flags(flags);
}

} // namespace

mc::YieldEstimate filter_yield_behavioural(const FilterEvaluator& evaluator,
                                           const FilterSizing& sizing,
                                           const FilterVariation& var,
                                           std::size_t samples, Rng& rng) {
    const va::BehaviouralOtaSpec nominal = evaluator.config().ota_spec;
    return sampled_yield(
        evaluator, OtaModelKind::behavioural, samples, rng,
        [&](FilterPrototype& proto, Rng& sample_rng) {
            auto draw_spec = [&]() {
                va::BehaviouralOtaSpec spec = nominal;
                // Delta values are 3-sigma percentages (paper Table 2).
                spec.gain_db *=
                    1.0 + sample_rng.gauss(0.0, var.gain_delta_pct / 300.0);
                spec.f3db *=
                    1.0 + sample_rng.gauss(0.0, var.pm_delta_pct / 300.0);
                return spec;
            };
            FilterSizing varied = sizing;
            varied.c1 *= 1.0 + sample_rng.gauss(0.0, var.cap_sigma_rel);
            varied.c2 *= 1.0 + sample_rng.gauss(0.0, var.cap_sigma_rel);
            varied.c3 *= 1.0 + sample_rng.gauss(0.0, var.cap_sigma_rel);
            // OTA2's spec draws before OTA1's: the order GCC gave the
            // earlier unsequenced call, now fixed for every compiler.
            FilterOtaSpecs specs;
            specs.ota2 = draw_spec();
            specs.ota1 = draw_spec();
            return proto.measure(varied, &specs);
        });
}

mc::YieldEstimate filter_yield_transistor(const FilterEvaluator& evaluator,
                                          const FilterSizing& sizing,
                                          const process::ProcessSampler& sampler,
                                          std::size_t samples, Rng& rng) {
    // Geometry inventory for mismatch scaling (the OTA sizing is fixed).
    const auto geometries =
        evaluator.lease(OtaModelKind::transistor)->mos_geometries();
    return sampled_yield(evaluator, OtaModelKind::transistor, samples, rng,
                         [&](FilterPrototype& proto, Rng& sample_rng) {
                             const process::Realization real =
                                 sampler.sample(sample_rng, geometries);
                             return proto.measure(sizing, nullptr, &real);
                         });
}

} // namespace ypm::circuits
