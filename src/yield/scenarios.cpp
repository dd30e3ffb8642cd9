#include "yield/scenarios.hpp"

#include <cmath>
#include <span>
#include <utility>

#include "circuits/ota.hpp"
#include "core/ota_mc.hpp"
#include "mc/monte_carlo.hpp"
#include "mc/stats.hpp"
#include "process/process_card.hpp"
#include "process/variation.hpp"
#include "util/error.hpp"

namespace ypm::yield {

void draw_mixture_u(Rng& rng, const process::ProposalMixture& mix,
                    std::span<double> u, double& log_w) {
    if (mix.components.size() <= 1) {
        const process::ProposalComponent* c =
            mix.components.empty() ? nullptr : &mix.components.front();
        log_w = 0.0;
        rng.gauss(u); // z, in place
        if (c == nullptr ||
            (c->mu.empty() && c->sigma.empty() && c->scale == 1.0)) {
            // Nominal: u = 0 + 1 * z = z, since gauss() never returns -0,
            // and every log weight term is +0 (log 1 = +0, z^2/2 - u^2/2 =
            // +0), so log_w stays exactly +0.
            return;
        }
        for (std::size_t i = 0; i < u.size(); ++i) {
            const double m = c->mu.empty() ? 0.0 : c->mu[i];
            const double s = c->scale_at(i);
            const double z = u[i];
            u[i] = m + s * z;
            log_w += std::log(s) + 0.5 * z * z - 0.5 * u[i] * u[i];
        }
        return;
    }
    const std::size_t k = mix.pick_component(rng.uniform01());
    const process::ProposalComponent& c = mix.components[k];
    rng.gauss(u);
    for (std::size_t i = 0; i < u.size(); ++i) {
        const double m = c.mu.empty() ? 0.0 : c.mu[i];
        u[i] = m + c.scale_at(i) * u[i];
    }
    log_w = mix.log_weight_of(u);
}

KernelFactory synthetic_factory(double mean, double sigma) {
    return [=](const process::ProposalMixture& mix,
               bool record_u) -> mc::ChunkSampleFn {
        return [=](std::span<const std::size_t>, std::span<Rng> rngs) {
            eval::RowBlock rows(record_u ? 3 : 2);
            rows.reserve(rngs.size());
            for (Rng& rng : rngs) {
                const std::span<double> row = rows.append_row();
                double u = 0.0;
                draw_mixture_u(rng, mix, std::span(&u, 1), row[1]);
                row[0] = mean + sigma * u;
                if (record_u) row[2] = u;
            }
            return rows;
        };
    };
}

KernelFactory synthetic_bimodal_factory() {
    return [](const process::ProposalMixture& mix,
              bool record_u) -> mc::ChunkSampleFn {
        return [=](std::span<const std::size_t>, std::span<Rng> rngs) {
            eval::RowBlock rows(record_u ? 5 : 3);
            rows.reserve(rngs.size());
            for (Rng& rng : rngs) {
                // Rows {u0, u1, log_w[, u0, u1]}: the draw lands in place.
                const std::span<double> row = rows.append_row();
                draw_mixture_u(rng, mix, row.first(2), row[2]);
                if (record_u) {
                    row[3] = row[0];
                    row[4] = row[1];
                }
            }
            return rows;
        };
    };
}

namespace {

/// High-dimensional synthetic kernel: the single performance is the
/// normalized coordinate sum m = sum(u_d) / sqrt(dim) ~ N(0, 1) at
/// nominal, so a deep at_least spec on m makes a rare failure whose
/// optimal mean shift spreads evenly over *all* dimensions - the
/// weight-degeneracy stress case for importance sampling.
KernelFactory highdim_factory(std::size_t dim) {
    return [dim](const process::ProposalMixture& mix,
                 bool record_u) -> mc::ChunkSampleFn {
        return [=](std::span<const std::size_t>, std::span<Rng> rngs) {
            const double inv_norm = 1.0 / std::sqrt(static_cast<double>(dim));
            eval::RowBlock rows(2 + (record_u ? dim : 0));
            rows.reserve(rngs.size());
            // Without a u record the draw needs one scratch vector per
            // chunk; with one it lands in the row's tail.
            std::vector<double> scratch(record_u ? 0 : dim);
            for (Rng& rng : rngs) {
                const std::span<double> row = rows.append_row();
                const std::span<double> u =
                    record_u ? row.subspan(2) : std::span<double>(scratch);
                draw_mixture_u(rng, mix, u, row[1]);
                double sum = 0.0;
                for (double v : u) sum += v;
                row[0] = sum * inv_norm;
            }
            return rows;
        };
    };
}

/// The OTA testbench state every OTA scenario's kernel captures by
/// reference; owned by Scenario::backing.
struct OtaBacking {
    circuits::OtaEvaluator evaluator;
    circuits::OtaSizing sizing; // nominal mid-range point
    process::ProcessSampler sampler{process::ProcessCard::c35(),
                                    process::VariationSpec::c35()};
};

/// Gain/PM population summaries from the fixed-seed calibration run the
/// yield benches have always used: Rng(71), 512 samples, cache off. The
/// spec thresholds of both OTA scenarios derive from these numbers.
std::pair<mc::Summary, mc::Summary> calibrate_ota(const OtaBacking& b) {
    eval::EngineConfig engine_config;
    engine_config.cache_capacity = 0;
    eval::Engine engine(engine_config);
    Rng rng(71);
    const mc::McResult cal = core::run_ota_monte_carlo(
        engine, b.evaluator, b.sizing, b.sampler, 512, rng);
    return {cal.column_summary(0), cal.column_summary(1)};
}

/// Problem-level driver knobs shared by every scenario; per-scenario caps
/// and targets are set on top.
SequentialConfig base_config(double target) {
    SequentialConfig c;
    c.pilot_samples = 256;
    c.pilot_scale = 2.0;
    c.chunk_samples = 128;
    c.min_samples = 256;
    c.target_half_width = target;
    return c;
}

Scenario make_ota_scenario(bool bimodal, const ScenarioOptions& options) {
    auto backing = std::make_shared<OtaBacking>();
    const auto [gain, pm] = calibrate_ota(*backing);
    const double depth = options.spec_depth > 0.0 ? options.spec_depth : 2.4;
    const double target =
        options.target_half_width > 0.0 ? options.target_half_width : 0.0035;

    Scenario sc;
    sc.factory = core::ota_yield_kernel_factory(
        backing->evaluator, backing->sizing, backing->sampler);
    sc.dimension =
        core::ota_yield_dimension(backing->evaluator, backing->sizing);
    sc.backing = std::move(backing);
    sc.config = base_config(target);
    if (bimodal) {
        sc.name = "bimodal_ota";
        sc.description = "OTA low-gain + high-PM tails (two failure modes)";
        // Gain and PM move together under c35 variation (corr ~ +0.4), so
        // the low-gain and *high*-PM tails are two well-separated failure
        // modes in the standardized space - the case a single mean shift
        // cannot cover.
        sc.specs = {
            mc::Spec::at_least("gain_db", gain.mean - depth * gain.stddev),
            mc::Spec::at_most("pm_deg", pm.mean + depth * pm.stddev)};
        sc.config.max_samples = 12000;
        sc.reference_samples = 30000;
    } else {
        sc.name = "rare_ota";
        sc.description = "OTA rare low-gain tail (single failure mode)";
        sc.specs = {
            mc::Spec::at_least("gain_db", gain.mean - depth * gain.stddev),
            mc::Spec::at_least("pm_deg", 0.0)};
        sc.config.max_samples = 60000;
        sc.reference_samples = 50000;
    }
    return sc;
}

Scenario make_synthetic_bimodal(const ScenarioOptions& options) {
    Scenario sc;
    sc.name = "synthetic_bimodal";
    sc.description = "two disjoint tail modes u0 > 3 and u1 > 3";
    sc.specs = {mc::Spec::at_most("u0", 3.0), mc::Spec::at_most("u1", 3.0)};
    sc.factory = synthetic_bimodal_factory();
    sc.dimension = 2;
    // Tighter target than the OTA scenarios: each mode has p ~ 1.35e-3, so
    // 0.0035 would let plain MC stop on a few hundred samples and the
    // estimator comparison would measure nothing.
    sc.config = base_config(
        options.target_half_width > 0.0 ? options.target_half_width : 0.0015);
    sc.config.max_samples = 20000;
    sc.reference_samples = 100000;
    return sc;
}

Scenario make_highdim(const ScenarioOptions& options) {
    constexpr std::size_t kDim = 64;
    Scenario sc;
    sc.name = "highdim_synthetic";
    sc.description = "64-dim normalized-sum metric with a rare lower tail";
    sc.specs = {mc::Spec::at_least("m_norm", -2.33)}; // p ~ 1e-2 at nominal
    sc.factory = highdim_factory(kDim);
    sc.dimension = kDim;
    sc.config = base_config(
        options.target_half_width > 0.0 ? options.target_half_width : 0.0035);
    // 64 dimensions need more pilot evidence per fitted coordinate.
    sc.config.pilot_samples = 512;
    sc.config.max_samples = 20000;
    sc.reference_samples = 100000;
    return sc;
}

Scenario make_clean_sweep(const ScenarioOptions& options) {
    Scenario sc;
    sc.name = "clean_sweep";
    sc.description = "spec 6 sigma below the mean: certifying ~100% yield";
    sc.specs = {mc::Spec::at_least("value", 38.0)}; // mean 50, sigma 2
    sc.factory = synthetic_factory(50.0, 2.0);
    sc.dimension = 1;
    sc.config = base_config(
        options.target_half_width > 0.0 ? options.target_half_width : 0.0035);
    sc.config.max_samples = 4096;
    sc.reference_samples = 20000;
    return sc;
}

} // namespace

std::vector<std::string> scenario_names() {
    return {"rare_ota", "bimodal_ota", "synthetic_bimodal",
            "highdim_synthetic", "clean_sweep"};
}

Scenario make_scenario(std::string_view name, const ScenarioOptions& options) {
    Scenario sc;
    if (name == "rare_ota")
        sc = make_ota_scenario(false, options);
    else if (name == "bimodal_ota")
        sc = make_ota_scenario(true, options);
    else if (name == "synthetic_bimodal")
        sc = make_synthetic_bimodal(options);
    else if (name == "highdim_synthetic")
        sc = make_highdim(options);
    else if (name == "clean_sweep")
        sc = make_clean_sweep(options);
    else {
        std::string known;
        for (const std::string& n : scenario_names()) {
            if (!known.empty()) known += ", ";
            known += n;
        }
        throw InvalidInputError("make_scenario: unknown scenario '" +
                                std::string(name) + "' (registered: " + known +
                                ")");
    }
    if (options.reference_samples > 0)
        sc.reference_samples = options.reference_samples;
    return sc;
}

WeightedYieldEstimate scenario_reference(eval::Engine& engine,
                                         const Scenario& scenario,
                                         std::size_t samples, Rng rng) {
    mc::McConfig cfg;
    cfg.samples = samples;
    const mc::McResult result = mc::run_monte_carlo(
        engine, cfg, rng,
        scenario.factory(process::ProposalMixture::nominal(), false));
    return estimate_weighted_yield(result.rows, scenario.specs);
}

} // namespace ypm::yield
