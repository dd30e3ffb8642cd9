#include "core/ota_mc.hpp"

#include <algorithm>
#include <limits>
#include <span>

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
            eval::RowBlock rows(2);
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

    const std::size_t dimension =
        process::SampleShift::dimension(geometries.size());

    return [&evaluator, &sampler, sizing, geometries = std::move(geometries),
            dimension](const process::ProposalMixture& proposal,
                       bool record_u) -> mc::ChunkSampleFn {
        return [&evaluator, &sampler, sizing, geometries, dimension, proposal,
                record_u](
                   std::span<const std::size_t>, std::span<Rng> rngs) {
            constexpr double nan_v = std::numeric_limits<double>::quiet_NaN();
            std::vector<process::Realization> reals;
            reals.reserve(rngs.size());
            // Each row is {gain, pm, log_w[, u...]}: the draws fill the
            // weight and u columns, the chunk measurement the first two.
            eval::RowBlock rows(3 + (record_u ? dimension : 0));
            rows.reserve(rngs.size());
            for (Rng& sample_rng : rngs) {
                process::ShiftedDraw draw =
                    sampler.sample_mixture(sample_rng, geometries, proposal, record_u);
                reals.push_back(std::move(draw.realization));
                const std::span<double> row = rows.append_row();
                row[2] = draw.log_weight;
                if (record_u)
                    std::copy(draw.u.begin(), draw.u.end(), row.begin() + 3);
            }
            const auto perfs = evaluator.measure_chunk(sizing, reals);
            for (std::size_t k = 0; k < perfs.size(); ++k) {
                const std::span<double> row = rows.row(k);
                row[0] = perfs[k].valid ? perfs[k].gain_db : nan_v;
                row[1] = perfs[k].valid ? perfs[k].pm_deg : nan_v;
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
