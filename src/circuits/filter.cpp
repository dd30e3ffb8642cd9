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

FilterPerformance FilterEvaluator::measure_circuit(Circuit& ckt) const {
    FilterPerformance perf;

    const spice::DcSolver solver;
    const spice::DcResult op = solver.solve(ckt);
    if (!op.converged) {
        perf.failure = "dc operating point did not converge";
        return perf;
    }

    const auto freqs =
        spice::log_sweep(config_.f_start, config_.f_stop, config_.points_per_decade);
    spice::AcResult ac;
    try {
        ac = spice::run_ac(ckt, op.solution, freqs);
    } catch (const NumericalError& e) {
        perf.failure = std::string("ac analysis failed: ") + e.what();
        return perf;
    }

    const auto h = ac.transfer(*ckt.find_node("vout"), *ckt.find_node("vin"));
    return metrics_from_transfer(freqs, h);
}

FilterPrototype::FilterPrototype(const FilterEvaluator& evaluator,
                                 OtaModelKind kind)
    : evaluator_(&evaluator),
      proto_(build_filter(FilterSizing{}, evaluator.config(), kind)),
      inst_(proto_.instance()),
      c1_(&proto_.device<spice::Capacitor>("c1")),
      c2_(&proto_.device<spice::Capacitor>("c2")),
      c3_(&proto_.device<spice::Capacitor>("c3")),
      vout_(proto_.node("vout")), vin_(proto_.node("vin")),
      freqs_(spice::log_sweep(evaluator.config().f_start,
                              evaluator.config().f_stop,
                              evaluator.config().points_per_decade)) {}

FilterPerformance FilterPrototype::measure(const FilterSizing& sizing) {
    c1_->set_capacitance(sizing.c1);
    c2_->set_capacitance(sizing.c2);
    c3_->set_capacitance(sizing.c3);

    FilterPerformance perf;
    const spice::DcResult op = inst_.solve_op();
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

std::vector<FilterPerformance>
FilterEvaluator::measure_chunk(std::span<const FilterSizing> sizings,
                               OtaModelKind kind) const {
    const auto proto = pool_->acquire(static_cast<std::uint64_t>(kind));
    std::vector<FilterPerformance> out;
    out.reserve(sizings.size());
    for (const FilterSizing& s : sizings) out.push_back(proto->measure(s));
    return out;
}

FilterPerformance FilterEvaluator::measure(const FilterSizing& sizing,
                                           OtaModelKind kind) const {
    return pool_->acquire(static_cast<std::uint64_t>(kind))->measure(sizing);
}

FilterPerformance
FilterEvaluator::measure_behavioural(const FilterSizing& sizing,
                                     const va::BehaviouralOtaSpec& ota1,
                                     const va::BehaviouralOtaSpec& ota2) const {
    Circuit ckt = build_filter(sizing, config_, OtaModelKind::behavioural);
    dynamic_cast<va::BehaviouralOta*>(ckt.find_device("ota1"))->set_spec(ota1);
    dynamic_cast<va::BehaviouralOta*>(ckt.find_device("ota2"))->set_spec(ota2);
    return measure_circuit(ckt);
}

FilterPerformance
FilterEvaluator::measure_transistor(const FilterSizing& sizing,
                                    const process::Realization& realization) const {
    Circuit ckt = build_filter(sizing, config_, OtaModelKind::transistor);
    ckt.apply_process(realization);
    return measure_circuit(ckt);
}

FilterEvaluator::Response
FilterEvaluator::ac_response(const FilterSizing& sizing, OtaModelKind kind) const {
    Circuit ckt = build_filter(sizing, config_, kind);
    const spice::Solution op = spice::solve_op(ckt);
    const auto freqs =
        spice::log_sweep(config_.f_start, config_.f_stop, config_.points_per_decade);
    const spice::AcResult ac = spice::run_ac(ckt, op, freqs);
    Response r;
    r.freqs = freqs;
    r.h = ac.transfer(*ckt.find_node("vout"), *ckt.find_node("vin"));
    return r;
}

namespace {

/// Yield of `samples` pass/fail draws: `pass` judges one sample from its
/// child stream. Runs as a chunk kernel on a private cache-less engine (one
/// stream per sample, so the estimate is the same for any thread count).
mc::YieldEstimate sampled_yield(std::size_t samples, Rng& rng,
                                const std::function<bool(Rng&)>& pass) {
    eval::EngineConfig engine_config;
    engine_config.cache_capacity = 0; // nothing to memoise in a one-shot run
    eval::Engine engine(engine_config);
    mc::McConfig mc_cfg;
    mc_cfg.samples = samples;
    const auto result = mc::run_monte_carlo(
        engine, mc_cfg, rng,
        mc::ChunkSampleFn([&pass](std::span<const std::size_t>,
                                  std::span<Rng> rngs) {
            std::vector<std::vector<double>> rows;
            rows.reserve(rngs.size());
            for (Rng& sample_rng : rngs)
                rows.push_back({pass(sample_rng) ? 1.0 : 0.0});
            return rows;
        }));

    std::vector<bool> flags;
    flags.reserve(result.rows.size());
    for (const auto& row : result.rows)
        flags.push_back(!row.empty() && row[0] == 1.0);
    return mc::yield_from_flags(flags);
}

} // namespace

mc::YieldEstimate filter_yield_behavioural(const FilterEvaluator& evaluator,
                                           const FilterSizing& sizing,
                                           const FilterVariation& var,
                                           std::size_t samples, Rng& rng) {
    const va::BehaviouralOtaSpec nominal = evaluator.config().ota_spec;
    return sampled_yield(samples, rng, [&](Rng& sample_rng) {
        auto draw_spec = [&]() {
            va::BehaviouralOtaSpec spec = nominal;
            // Delta values are 3-sigma percentages (paper Table 2).
            spec.gain_db *=
                1.0 + sample_rng.gauss(0.0, var.gain_delta_pct / 300.0);
            spec.f3db *= 1.0 + sample_rng.gauss(0.0, var.pm_delta_pct / 300.0);
            return spec;
        };
        FilterSizing varied = sizing;
        varied.c1 *= 1.0 + sample_rng.gauss(0.0, var.cap_sigma_rel);
        varied.c2 *= 1.0 + sample_rng.gauss(0.0, var.cap_sigma_rel);
        varied.c3 *= 1.0 + sample_rng.gauss(0.0, var.cap_sigma_rel);
        return evaluator.measure_behavioural(varied, draw_spec(), draw_spec())
            .meets(evaluator.mask());
    });
}

mc::YieldEstimate filter_yield_transistor(const FilterEvaluator& evaluator,
                                          const FilterSizing& sizing,
                                          const process::ProcessSampler& sampler,
                                          std::size_t samples, Rng& rng) {
    // Geometry inventory for mismatch scaling: build one throwaway circuit.
    const Circuit proto =
        build_filter(sizing, evaluator.config(), OtaModelKind::transistor);
    const auto geometries = proto.mos_geometries();
    return sampled_yield(samples, rng, [&](Rng& sample_rng) {
        const process::Realization real = sampler.sample(sample_rng, geometries);
        return evaluator.measure_transistor(sizing, real).meets(evaluator.mask());
    });
}

} // namespace ypm::circuits
