// End-to-end integration tests: a scaled-down version of the paper's full
// pipeline (Fig. 3), from WBGA optimisation through Monte Carlo variation
// modelling, table generation, yield-targeted sizing and final verification.

#include <gtest/gtest.h>

#include <filesystem>

#include "core/behav_model.hpp"
#include "core/flow.hpp"
#include "core/verify.hpp"
#include "circuits/filter.hpp"
#include "mc/yield.hpp"

namespace {

using namespace ypm;
using namespace ypm::core;

// One shared scaled-down flow run (population 24 x 12 generations, 40 MC
// samples, front capped at 12 points) reused by every test in this file.
class PipelineTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        circuits::OtaConfig ota;
        FlowConfig cfg;
        cfg.ga.population = 24;
        cfg.ga.generations = 12;
        cfg.mc_samples = 40;
        cfg.max_mc_points = 12;
        cfg.seed = 2024;
        cfg.artifact_dir =
            (std::filesystem::temp_directory_path() / "ypm_e2e_artifacts").string();
        // Yield certification stage, scaled down: interior specs most
        // designs meet, tiny pilot/chunk budgets.
        cfg.yield_specs = {mc::Spec::at_least("gain_db", 30.0),
                           mc::Spec::at_least("pm_deg", 15.0)};
        cfg.yield_sequential.pilot_samples = 24;
        cfg.yield_sequential.chunk_samples = 24;
        cfg.yield_sequential.max_samples = 48;
        cfg.yield_sequential.min_samples = 24;
        static const YieldFlow flow(ota, cfg);
        static const FlowResult result = flow.run();
        result_ = &result;
    }

    static const FlowResult* result_;
};

const FlowResult* PipelineTest::result_ = nullptr;

TEST_F(PipelineTest, OptimisationRanFullBudget) {
    EXPECT_EQ(result_->optimisation.evaluations, 24u * 12u);
    EXPECT_EQ(result_->optimisation.archive.size(), 24u * 12u);
    EXPECT_EQ(result_->timings.moo_evaluations, 24u * 12u);
}

TEST_F(PipelineTest, ParetoFrontIsNonTrivialAndSorted) {
    ASSERT_GE(result_->pareto_indices.size(), 5u);
    const auto& archive = result_->optimisation.archive;
    for (std::size_t i = 1; i < result_->pareto_indices.size(); ++i) {
        const auto& prev = archive[result_->pareto_indices[i - 1]].objectives;
        const auto& cur = archive[result_->pareto_indices[i]].objectives;
        EXPECT_LE(prev[0], cur[0]); // gain ascending
        EXPECT_GE(prev[1], cur[1]); // pm descending (trade-off)
    }
}

TEST_F(PipelineTest, FrontEnrichedWithVariation) {
    ASSERT_GE(result_->front.size(), 5u);
    for (const auto& p : result_->front) {
        EXPECT_GT(p.gain_db, 30.0);
        EXPECT_GT(p.pm_deg, 0.0);
        EXPECT_GT(p.dgain_pct, 0.0);
        EXPECT_LT(p.dgain_pct, 5.0);
        EXPECT_GT(p.dpm_pct, 0.0);
        // Relative PM variation blows up at the low-PM end of the front
        // (small mean), so only a loose sanity bound applies globally.
        EXPECT_LT(p.dpm_pct, 60.0);
        EXPECT_GT(p.f3db, 0.0);
        EXPECT_LE(p.mc_failures, 4u);
    }
}

TEST_F(PipelineTest, ArtifactsWrittenToDisk) {
    EXPECT_TRUE(std::filesystem::exists(result_->artifacts.gain_delta_tbl));
    EXPECT_TRUE(std::filesystem::exists(result_->artifacts.va_module));
    EXPECT_EQ(result_->artifacts.param_tbls.size(), 8u);
}

TEST_F(PipelineTest, TimingsAccountedFor) {
    EXPECT_GT(result_->timings.moo_seconds, 0.0);
    EXPECT_GT(result_->timings.mc_seconds, 0.0);
    EXPECT_GE(result_->timings.total_seconds,
              result_->timings.moo_seconds + result_->timings.mc_seconds);
}

TEST_F(PipelineTest, YieldStageCertifiesEveryFrontPoint) {
    ASSERT_EQ(result_->yields.size(), result_->front.size());
    EXPECT_GT(result_->timings.yield_seconds, 0.0);
    for (std::size_t i = 0; i < result_->yields.size(); ++i) {
        const auto& y = result_->yields[i];
        EXPECT_EQ(y.design_id, result_->front[i].design_id);
        EXPECT_GT(y.result.samples_used, 0u);
        EXPECT_GE(y.result.estimate.yield, 0.0);
        EXPECT_LE(y.result.estimate.yield, 1.0);
        EXPECT_LE(y.result.estimate.ci_low, y.result.estimate.yield);
        EXPECT_GE(y.result.estimate.ci_high, y.result.estimate.yield);
        // Interior specs: these designs overwhelmingly pass.
        EXPECT_GE(y.result.estimate.yield, 0.8);
    }
}

TEST_F(PipelineTest, YieldTargetedSizingVerifies) {
    const BehaviouralModel model(result_->front);
    // Pick a requirement comfortably inside the front.
    const double req_gain =
        model.gain_min() + 0.3 * (model.gain_max() - model.gain_min());
    const double req_pm = model.pm_min() + 0.2 * (model.pm_max() - model.pm_min());
    const SizingResult sized = model.size_for_spec(req_gain, req_pm);
    EXPECT_GE(sized.target_gain_db, req_gain);

    // Table 4 analogue: the interpolated sizing simulates close to the
    // model's prediction.
    const circuits::OtaEvaluator evaluator;
    eval::Engine engine;
    const ModelVsTransistor cmp =
        compare_model_vs_transistor(engine, evaluator, sized);
    EXPECT_LT(cmp.gain_error_pct, 6.0);
    EXPECT_LT(cmp.pm_error_pct, 8.0);
}

TEST_F(PipelineTest, YieldVerificationHighForInteriorSpec) {
    const BehaviouralModel model(result_->front);
    const double req_gain =
        model.gain_min() + 0.25 * (model.gain_max() - model.gain_min());
    const double req_pm = model.pm_min() + 0.15 * (model.pm_max() - model.pm_min());
    const SizingResult sized = model.size_for_spec(req_gain, req_pm);
    if (!sized.feasible) GTEST_SKIP() << "spec not inside this tiny front";

    const circuits::OtaEvaluator evaluator;
    const process::ProcessSampler sampler(evaluator.config().card,
                                          process::VariationSpec::c35());
    eval::Engine engine;
    Rng rng(99);
    const YieldVerification v = verify_ota_yield(
        engine, evaluator, sized.sizing, sampler, req_gain, req_pm, 60, rng);
    // Paper: 100 % yield after inflation. Allow a couple of escapes on a
    // 60-sample check of a coarse front.
    EXPECT_GE(v.yield.yield, 0.9);
}

TEST_F(PipelineTest, MacromodelDrivesFilterDesign) {
    const BehaviouralModel model(result_->front);
    const double req_gain =
        model.gain_min() + 0.3 * (model.gain_max() - model.gain_min());
    const double req_pm = model.pm_min() + 0.2 * (model.pm_max() - model.pm_min());
    const SizingResult sized = model.size_for_spec(req_gain, req_pm);

    circuits::FilterConfig fcfg;
    fcfg.ota_spec = model.macromodel_spec(sized);
    fcfg.ota_sizing = sized.sizing;
    const circuits::FilterEvaluator fev(fcfg, circuits::FilterSpecMask{});
    const auto behav = fev.measure(circuits::FilterSizing{48e-12, 24e-12, 8e-12},
                                   circuits::OtaModelKind::behavioural);
    ASSERT_TRUE(behav.valid) << behav.failure;
    EXPECT_FALSE(std::isnan(behav.fc));
}

} // namespace
