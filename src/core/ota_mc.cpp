#include "core/ota_mc.hpp"

#include <limits>

namespace ypm::core {

mc::McResult run_ota_monte_carlo(eval::Engine& engine,
                                 const circuits::OtaEvaluator& evaluator,
                                 const circuits::OtaSizing& sizing,
                                 const process::ProcessSampler& sampler,
                                 std::size_t samples, Rng& rng) {
    return mc::wait_monte_carlo(
        engine,
        submit_ota_monte_carlo(engine, evaluator, sizing, sampler, samples, rng));
}

mc::McTicket submit_ota_monte_carlo(eval::Engine& engine,
                                    const circuits::OtaEvaluator& evaluator,
                                    const circuits::OtaSizing& sizing,
                                    const process::ProcessSampler& sampler,
                                    std::size_t samples, Rng& rng) {
    // Geometry inventory once (identical for every sample of this sizing).
    spice::Circuit proto = circuits::build_ota_testbench(sizing, evaluator.config());
    auto geometries = proto.mos_geometries();

    mc::McConfig cfg;
    cfg.samples = samples;
    // Chunk kernel: realisations are drawn per sample from its own child
    // stream, then measured through a leased warm testbench prototype -
    // element-wise bit-identical to measuring each sample on a fresh build.
    // Sizing and geometries are captured by value:
    // with async dispatch the kernel outlives this scope (the evaluator and
    // sampler are the caller's lifetime problem, see header).
    return mc::submit_monte_carlo(
        engine, cfg, rng,
        mc::ChunkSampleFn([&evaluator, &sampler, sizing,
                           geometries = std::move(geometries)](
                              std::span<const std::size_t>, std::span<Rng> rngs) {
            constexpr double nan_v = std::numeric_limits<double>::quiet_NaN();
            std::vector<process::Realization> reals;
            reals.reserve(rngs.size());
            for (Rng& sample_rng : rngs)
                reals.push_back(sampler.sample(sample_rng, geometries));
            const auto perfs = evaluator.measure_chunk(sizing, reals);
            std::vector<std::vector<double>> rows;
            rows.reserve(perfs.size());
            for (const circuits::OtaPerformance& perf : perfs) {
                if (!perf.valid)
                    rows.push_back({nan_v, nan_v});
                else
                    rows.push_back({perf.gain_db, perf.pm_deg});
            }
            return rows;
        }));
}

yield::KernelFactory
ota_yield_kernel_factory(const circuits::OtaEvaluator& evaluator,
                         const circuits::OtaSizing& sizing,
                         const process::ProcessSampler& sampler) {
    // Geometry inventory once; every kernel the factory builds shares it.
    spice::Circuit proto = circuits::build_ota_testbench(sizing, evaluator.config());
    auto geometries = proto.mos_geometries();

    return [&evaluator, &sampler, sizing, geometries = std::move(geometries)](
               const process::ProposalMixture& proposal,
               bool record_u) -> mc::ChunkSampleFn {
        return [&evaluator, &sampler, sizing, geometries, proposal, record_u](
                   std::span<const std::size_t>, std::span<Rng> rngs) {
            constexpr double nan_v = std::numeric_limits<double>::quiet_NaN();
            std::vector<process::Realization> reals;
            std::vector<double> log_weights;
            std::vector<std::vector<double>> us;
            reals.reserve(rngs.size());
            log_weights.reserve(rngs.size());
            if (record_u) us.reserve(rngs.size());
            for (Rng& sample_rng : rngs) {
                process::ShiftedDraw draw =
                    sampler.sample_mixture(sample_rng, geometries, proposal, record_u);
                reals.push_back(std::move(draw.realization));
                log_weights.push_back(draw.log_weight);
                if (record_u) us.push_back(std::move(draw.u));
            }
            const auto perfs = evaluator.measure_chunk(sizing, reals);
            std::vector<std::vector<double>> rows;
            rows.reserve(perfs.size());
            for (std::size_t k = 0; k < perfs.size(); ++k) {
                std::vector<double> row;
                row.reserve(3 + (record_u ? us[k].size() : 0));
                if (!perfs[k].valid) {
                    row.push_back(nan_v);
                    row.push_back(nan_v);
                } else {
                    row.push_back(perfs[k].gain_db);
                    row.push_back(perfs[k].pm_deg);
                }
                row.push_back(log_weights[k]);
                if (record_u)
                    row.insert(row.end(), us[k].begin(), us[k].end());
                rows.push_back(std::move(row));
            }
            return rows;
        };
    };
}

std::size_t ota_yield_dimension(const circuits::OtaEvaluator& evaluator,
                                const circuits::OtaSizing& sizing) {
    spice::Circuit proto = circuits::build_ota_testbench(sizing, evaluator.config());
    return process::SampleShift::dimension(proto.mos_geometries().size());
}

} // namespace ypm::core
