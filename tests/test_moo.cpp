// Unit tests for src/moo: GA strings (paper Fig. 4, eq. 4), eq. 5 fitness,
// genetic operators, dominance/Pareto extraction (paper section 3.3), WBGA,
// NSGA-II and random-search baselines on analytic problems.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "moo/fitness.hpp"
#include "moo/ga_string.hpp"
#include "moo/nsga2.hpp"
#include "moo/operators.hpp"
#include "moo/pareto.hpp"
#include "moo/random_search.hpp"
#include "moo/robustness.hpp"
#include "moo/test_problems.hpp"
#include "moo/wbga.hpp"
#include "support/oracles.hpp"
#include "util/error.hpp"

namespace {

using namespace ypm;
using namespace ypm::moo;

constexpr double nan_v = std::numeric_limits<double>::quiet_NaN();

const std::vector<ObjectiveSpec> max2 = {{"f1", Direction::maximize},
                                         {"f2", Direction::maximize}};
const std::vector<ObjectiveSpec> min2 = {{"f1", Direction::minimize},
                                         {"f2", Direction::minimize}};

// -------------------------------------------------------------- GA string

TEST(GaString, LayoutAndRandomInit) {
    Rng rng(1);
    const GaString s = GaString::random(8, 2, rng);
    EXPECT_EQ(s.n_params(), 8u);
    EXPECT_EQ(s.n_weights(), 2u);
    EXPECT_EQ(s.size(), 10u);
    for (double g : s.genes()) {
        EXPECT_GE(g, 0.0);
        EXPECT_LT(g, 1.0);
    }
}

TEST(GaString, DecodeParametersMapsBoxConstraints) {
    GaString s(2, 0);
    s.genes() = {0.0, 1.0};
    const std::vector<ParameterSpec> specs = {{"w", 10e-6, 60e-6},
                                              {"l", 0.35e-6, 4e-6}};
    const auto p = s.decode_parameters(specs);
    EXPECT_DOUBLE_EQ(p[0], 10e-6);
    EXPECT_DOUBLE_EQ(p[1], 4e-6);
}

TEST(GaString, DecodeParametersArityChecked) {
    GaString s(2, 0);
    EXPECT_THROW((void)s.decode_parameters({{"only", 0.0, 1.0}}),
                 InvalidInputError);
}

TEST(GaString, WeightsNormalisedPerEquation4) {
    GaString s(0, 3);
    s.genes() = {0.2, 0.3, 0.5};
    const auto w = s.decode_weights();
    double sum = 0.0;
    for (double v : w) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_NEAR(w[0], 0.2, 1e-12);
    EXPECT_NEAR(w[2], 0.5, 1e-12);
}

TEST(GaString, ZeroWeightsDecodeUniform) {
    const auto w = normalize_weights({0.0, 0.0, 0.0, 0.0});
    for (double v : w) EXPECT_DOUBLE_EQ(v, 0.25);
}

TEST(GaString, ClampBringsGenesInRange) {
    GaString s(2, 0);
    s.genes() = {-0.5, 1.7};
    s.clamp();
    EXPECT_DOUBLE_EQ(s.genes()[0], 0.0);
    EXPECT_DOUBLE_EQ(s.genes()[1], 1.0);
}

// ---------------------------------------------------------------- fitness

/// Objective rows as the engine returns them.
std::vector<eval::EvalResult> results(const std::vector<std::vector<double>>& rows) {
    std::vector<eval::EvalResult> out(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) out[i].values = rows[i];
    return out;
}

TEST(Fitness, Equation5NormalisationBounds) {
    // Three individuals, uniform weights: best-everywhere scores 1.
    const auto objs = results({{50.0, 80.0}, {55.0, 70.0}, {60.0, 60.0}});
    const std::vector<std::vector<double>> weights(3, {0.5, 0.5});
    const auto fit = wbga_fitness_all(objs, weights, max2);
    for (double f : fit) {
        EXPECT_GE(f, 0.0);
        EXPECT_LE(f, 1.0);
    }
    // The middle design is balanced: 0.5*0.5 + 0.5*0.5 = 0.5.
    EXPECT_NEAR(fit[1], 0.5, 1e-12);
    // End designs trade one objective for the other: also 0.5 each.
    EXPECT_NEAR(fit[0], 0.5, 1e-12);
    EXPECT_NEAR(fit[2], 0.5, 1e-12);
}

TEST(Fitness, MinimisedObjectiveInverted) {
    const auto objs = results({{1.0}, {3.0}});
    const std::vector<std::vector<double>> weights(2, {1.0});
    const std::vector<ObjectiveSpec> spec = {{"err", Direction::minimize}};
    const auto fit = wbga_fitness_all(objs, weights, spec);
    EXPECT_DOUBLE_EQ(fit[0], 1.0); // smallest error wins
    EXPECT_DOUBLE_EQ(fit[1], 0.0);
}

TEST(Fitness, FailedEvaluationScoresZero) {
    const auto objs = results({{50.0, 80.0}, {nan_v, 70.0}});
    const std::vector<std::vector<double>> weights(2, {0.5, 0.5});
    const auto fit = wbga_fitness_all(objs, weights, max2);
    EXPECT_DOUBLE_EQ(fit[1], 0.0);
    EXPECT_GT(fit[0], 0.0);
}

TEST(Fitness, DegeneratePopulationDoesNotDivideByZero) {
    const auto objs = results({{5.0, 5.0}, {5.0, 5.0}});
    const std::vector<std::vector<double>> weights(2, {0.5, 0.5});
    const auto fit = wbga_fitness_all(objs, weights, max2);
    EXPECT_TRUE(std::isfinite(fit[0]));
    EXPECT_TRUE(std::isfinite(fit[1]));
}

TEST(Fitness, AllFailedThrows) {
    EXPECT_THROW((void)objective_bounds(results({{nan_v, nan_v}}), max2),
                 InvalidInputError);
}

// -------------------------------------------------------------- operators

TEST(Operators, TournamentPrefersHigherFitness) {
    Rng rng(1);
    const std::vector<double> fitness = {0.1, 0.9, 0.2, 0.05};
    int won = 0;
    const int trials = 2000;
    for (int i = 0; i < trials; ++i)
        if (select_tournament(fitness, 2, rng) == 1) ++won;
    // Index 1 should win far more often than uniform (25 %).
    EXPECT_GT(won, trials / 3);
}

TEST(Operators, CrossoverChildrenStayInUnitBoxAndPreserveLayout) {
    Rng rng(7);
    for (int trial = 0; trial < 50; ++trial) {
        const GaString a = GaString::random(6, 2, rng);
        const GaString b = GaString::random(6, 2, rng);
        GaString ca(6, 2), cb(6, 2);
        crossover(a, b, ca, cb, rng);
        EXPECT_EQ(ca.size(), 8u);
        EXPECT_EQ(cb.n_params(), 6u);
        for (double g : ca.genes()) {
            EXPECT_GE(g, 0.0);
            EXPECT_LE(g, 1.0);
        }
        for (double g : cb.genes()) {
            EXPECT_GE(g, 0.0);
            EXPECT_LE(g, 1.0);
        }
    }
}

TEST(Operators, MutationRateZeroLeavesUntouched) {
    Rng rng(9);
    GaString s = GaString::random(10, 2, rng);
    const auto before = s.genes();
    mutate(s, 0.0, 0.1, rng);
    EXPECT_EQ(s.genes(), before);
}

TEST(Operators, MutationRateOneChangesGenes) {
    Rng rng(11);
    GaString s = GaString::random(20, 0, rng);
    const auto before = s.genes();
    mutate(s, 1.0, 0.1, rng);
    int changed = 0;
    for (std::size_t i = 0; i < before.size(); ++i)
        if (s.genes()[i] != before[i]) ++changed;
    EXPECT_GT(changed, 15);
    for (double g : s.genes()) {
        EXPECT_GE(g, 0.0);
        EXPECT_LE(g, 1.0);
    }
}

TEST(Operators, BreedKeepsExistingEntriesAndFillsToSize) {
    Rng rng(13);
    std::vector<GaString> parents;
    for (int i = 0; i < 5; ++i) parents.push_back(GaString::random(3, 2, rng));
    std::vector<GaString> next = {parents[4]};
    std::size_t picks = 0;
    breed(parents, [&] { return picks++ % parents.size(); }, 6, next, rng);
    ASSERT_EQ(next.size(), 6u);
    EXPECT_EQ(next[0].genes(), parents[4].genes());
    // Five children from three pairs: the last pair's second child is dropped.
    EXPECT_EQ(picks, 6u);
    for (const auto& c : next) EXPECT_EQ(c.size(), 5u);
}

// ----------------------------------------------------------------- pareto

TEST(Pareto, DominanceDefinition) {
    EXPECT_TRUE(dominates({2.0, 2.0}, {1.0, 1.0}, max2));
    EXPECT_TRUE(dominates({2.0, 1.0}, {1.0, 1.0}, max2));
    EXPECT_FALSE(dominates({1.0, 1.0}, {1.0, 1.0}, max2)); // equal
    EXPECT_FALSE(dominates({2.0, 0.0}, {1.0, 1.0}, max2)); // trade-off
    // Direction flip.
    EXPECT_TRUE(dominates({1.0, 1.0}, {2.0, 2.0}, min2));
}

TEST(Pareto, NanNeverDominates) {
    EXPECT_FALSE(dominates({nan_v, 5.0}, {0.0, 0.0}, max2));
    EXPECT_TRUE(dominates({0.0, 0.0}, {nan_v, 5.0}, max2));
}

TEST(Pareto, PaperConditionsHold) {
    // Condition (a): members of the front are mutually non-dominated.
    // Condition (b): every non-member is dominated by a member.
    Rng rng(13);
    std::vector<std::vector<double>> objs;
    for (int i = 0; i < 200; ++i)
        objs.push_back({rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)});
    const auto front = testsupport::pareto_front_indices(objs, max2);
    ASSERT_FALSE(front.empty());
    for (std::size_t a : front)
        for (std::size_t b : front)
            EXPECT_FALSE(dominates(objs[a], objs[b], max2));
    std::vector<bool> in_front(objs.size(), false);
    for (std::size_t f : front) in_front[f] = true;
    for (std::size_t i = 0; i < objs.size(); ++i) {
        if (in_front[i]) continue;
        bool dominated = false;
        for (std::size_t f : front)
            if (dominates(objs[f], objs[i], max2)) {
                dominated = true;
                break;
            }
        EXPECT_TRUE(dominated) << "point " << i << " not dominated by the front";
    }
}

// Property: the fast 2-D front equals the naive front on random clouds.
class Pareto2dEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(Pareto2dEquivalence, MatchesNaive) {
    Rng rng(100 + GetParam());
    std::vector<std::vector<double>> objs;
    const int n = 50 + 37 * GetParam();
    for (int i = 0; i < n; ++i)
        objs.push_back({rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)});
    // Inject duplicates and NaN failures.
    objs.push_back(objs[0]);
    objs.push_back({nan_v, 1.0});
    auto naive = testsupport::pareto_front_indices(objs, max2);
    auto fast = pareto_front_indices_2d(objs, max2);
    std::sort(naive.begin(), naive.end());
    std::sort(fast.begin(), fast.end());
    EXPECT_EQ(naive, fast);
}

INSTANTIATE_TEST_SUITE_P(Clouds, Pareto2dEquivalence, ::testing::Range(0, 8));

TEST(Pareto, NonDominatedSortRanksCorrectly) {
    // Two nested fronts.
    const std::vector<std::vector<double>> objs = {
        {4.0, 1.0}, {3.0, 2.0}, {1.0, 4.0}, // front 0
        {2.0, 1.0}, {1.0, 2.0},             // front 1
        {0.5, 0.5},                         // front 2
    };
    const auto fronts = non_dominated_sort(objs, max2);
    ASSERT_EQ(fronts.size(), 3u);
    EXPECT_EQ(fronts[0].size(), 3u);
    EXPECT_EQ(fronts[1].size(), 2u);
    EXPECT_EQ(fronts[2].size(), 1u);
}

TEST(Pareto, CrowdingDistanceBoundariesInfinite) {
    const std::vector<std::vector<double>> objs = {
        {1.0, 4.0}, {2.0, 3.0}, {3.0, 2.0}, {4.0, 1.0}};
    const std::vector<std::size_t> subset = {0, 1, 2, 3};
    const auto d = crowding_distance(objs, subset, max2);
    EXPECT_TRUE(std::isinf(d[0]));
    EXPECT_TRUE(std::isinf(d[3]));
    EXPECT_TRUE(std::isfinite(d[1]));
    EXPECT_NEAR(d[1], d[2], 1e-12); // symmetric spacing
}

TEST(Pareto, Hypervolume2dKnownValue) {
    // Maximise both; reference (0,0); points (1,2) and (2,1):
    // area = 1*2 + (2-1)*1 = 3.
    const std::vector<std::vector<double>> front = {{1.0, 2.0}, {2.0, 1.0}};
    EXPECT_NEAR(hypervolume_2d(front, {0.0, 0.0}, max2), 3.0, 1e-12);
    // Dominated point adds nothing.
    const std::vector<std::vector<double>> with_dup = {{1.0, 2.0}, {2.0, 1.0},
                                                       {0.5, 0.5}};
    EXPECT_NEAR(hypervolume_2d(with_dup, {0.0, 0.0}, max2), 3.0, 1e-12);
}

TEST(Pareto, HypervolumeMinimisationOrientation) {
    // Minimise both; reference (4,4); single point (1,1): area 9.
    const std::vector<std::vector<double>> front = {{1.0, 1.0}};
    EXPECT_NEAR(hypervolume_2d(front, {4.0, 4.0}, min2), 9.0, 1e-12);
}

// ------------------------------------------------------------- optimisers

TEST(Wbga, SharingDividesByNicheCount) {
    // Two identical weight vectors niche together; the isolated one keeps
    // its fitness.
    const std::vector<double> fitness = {1.0, 1.0, 1.0};
    const std::vector<std::vector<double>> weights = {
        {1.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}};
    const auto shared = share_fitness(fitness, weights, 0.3);
    EXPECT_NEAR(shared[0], 0.5, 1e-12);
    EXPECT_NEAR(shared[1], 0.5, 1e-12);
    EXPECT_NEAR(shared[2], 1.0, 1e-12);
}

TEST(Wbga, ConfigValidation) {
    const SchafferProblem problem;
    WbgaConfig bad;
    bad.population = 1;
    EXPECT_THROW((void)Wbga(problem, bad), InvalidInputError);
    bad.population = 2; // no room to breed beside the two elites
    EXPECT_THROW((void)Wbga(problem, bad), InvalidInputError);
    bad.population = 3;
    (void)Wbga(problem, bad);
}

TEST(Wbga, FindsSchafferFront) {
    const SchafferProblem problem;
    WbgaConfig cfg;
    cfg.population = 40;
    cfg.generations = 40;
    const Wbga opt(problem, cfg);
    Rng rng(17);
    const WbgaResult res = opt.run(rng);
    EXPECT_EQ(res.evaluations, 1600u);
    EXPECT_EQ(res.archive.size(), 1600u);

    std::vector<std::vector<double>> objs;
    for (const auto& e : res.archive) objs.push_back(e.objectives);
    const auto front = pareto_front_indices_2d(objs, problem.objectives());
    EXPECT_GT(front.size(), 10u);
    // Pareto-optimal set of SCH is x in [0, 2].
    for (std::size_t idx : front) {
        const double x = res.archive[idx].params[0];
        EXPECT_GE(x, -0.15);
        EXPECT_LE(x, 2.15);
    }
}

TEST(Wbga, DeterministicForSeed) {
    const ToyAmplifierProblem problem;
    WbgaConfig cfg;
    cfg.population = 16;
    cfg.generations = 8;
    const Wbga opt(problem, cfg);
    Rng r1(5), r2(5);
    const auto a = opt.run(r1);
    const auto b = opt.run(r2);
    ASSERT_EQ(a.archive.size(), b.archive.size());
    for (std::size_t i = 0; i < a.archive.size(); ++i)
        EXPECT_EQ(a.archive[i].objectives, b.archive[i].objectives);
}

TEST(Wbga, BestFitnessGenerallyImproves) {
    const ZdtProblem problem(1, 12);
    WbgaConfig cfg;
    cfg.population = 30;
    cfg.generations = 30;
    const Wbga opt(problem, cfg);
    Rng rng(23);
    const auto res = opt.run(rng);
    ASSERT_EQ(res.best_fitness_history.size(), 30u);
    // Not strictly monotone (normalisation is per-generation), but late
    // generations should beat the first.
    const double first = res.best_fitness_history.front();
    double late = 0.0;
    for (std::size_t i = 25; i < 30; ++i)
        late = std::max(late, res.best_fitness_history[i]);
    EXPECT_GE(late, first * 0.9);
}

TEST(Wbga, WeightsInArchiveAreNormalised) {
    const ToyAmplifierProblem problem;
    WbgaConfig cfg;
    cfg.population = 10;
    cfg.generations = 4;
    const Wbga opt(problem, cfg);
    Rng rng(31);
    const auto res = opt.run(rng);
    for (const auto& e : res.archive) {
        double sum = 0.0;
        for (double w : e.weights) sum += w;
        EXPECT_NEAR(sum, 1.0, 1e-9);
    }
}

TEST(Nsga2, ConvergesTowardZdt1Front) {
    const ZdtProblem problem(1, 10);
    Nsga2Config cfg;
    cfg.population = 40;
    cfg.generations = 60;
    const Nsga2 opt(problem, cfg);
    Rng rng(41);
    eval::Engine engine;
    const auto res = opt.run(engine, rng);
    // Rank-0 solutions should be near the true front f2 = 1 - sqrt(f1).
    std::vector<std::vector<double>> objs;
    for (const auto& e : res.final_population) objs.push_back(e.objectives);
    const auto front = pareto_front_indices_2d(objs, problem.objectives());
    ASSERT_GT(front.size(), 5u);
    double worst_gap = 0.0;
    for (std::size_t idx : front) {
        const double f1 = objs[idx][0];
        const double f2 = objs[idx][1];
        worst_gap = std::max(worst_gap, f2 - problem.true_front_f2(f1));
    }
    EXPECT_LT(worst_gap, 1.2); // far below the g ~ 5.5 of random sampling
}

TEST(Nsga2, BeatsRandomSearchOnZdt1Hypervolume) {
    const ZdtProblem problem(1, 10);
    const std::vector<double> ref = {1.1, 10.0};

    Nsga2Config cfg;
    cfg.population = 30;
    cfg.generations = 30;
    const Nsga2 opt(problem, cfg);
    Rng rng(51);
    eval::Engine engine;
    const auto ga = opt.run(engine, rng);

    Rng rng2(52);
    const auto rs = random_search(engine, problem, 900, rng2);

    auto front_hv = [&](const std::vector<EvaluatedIndividual>& archive) {
        std::vector<std::vector<double>> objs;
        for (const auto& e : archive) objs.push_back(e.objectives);
        const auto front = pareto_front_indices_2d(objs, problem.objectives());
        std::vector<std::vector<double>> pts;
        for (std::size_t i : front) pts.push_back(objs[i]);
        return hypervolume_2d(pts, ref, problem.objectives());
    };
    EXPECT_GT(front_hv(ga.archive), front_hv(rs.archive));
}

TEST(RandomSearch, CoversBoxUniformly) {
    const ToyAmplifierProblem problem;
    Rng rng(61);
    eval::Engine engine;
    const auto res = random_search(engine, problem, 500, rng);
    EXPECT_EQ(res.evaluations, 500u);
    double lo = 1e9, hi = -1e9;
    for (const auto& e : res.archive) {
        lo = std::min(lo, e.params[0]);
        hi = std::max(hi, e.params[0]);
    }
    EXPECT_LT(lo, 1.5);
    EXPECT_GT(hi, 7.5);
}

// ------------------------------------------------------ robustness channel

TEST(Robustness, ConfigValidation) {
    RobustnessConfig cfg;
    validate_robustness_config(cfg); // defaults are valid
    cfg.yield_weight = 1.5;
    EXPECT_THROW(validate_robustness_config(cfg), InvalidInputError);
    cfg.yield_weight = -0.1;
    EXPECT_THROW(validate_robustness_config(cfg), InvalidInputError);
    cfg.yield_weight = 0.5;
    cfg.min_yield = 0.0; // min_yield only matters in constraint mode
    validate_robustness_config(cfg);
    cfg.mode = RobustnessMode::constraint;
    EXPECT_THROW(validate_robustness_config(cfg), InvalidInputError);
    cfg.min_yield = 1.2;
    EXPECT_THROW(validate_robustness_config(cfg), InvalidInputError);
    cfg.min_yield = 1.0;
    validate_robustness_config(cfg);
}

TEST(Robustness, RobustFitnessWeightAndConstraintModes) {
    RobustnessConfig cfg;
    cfg.yield_weight = 0.25;
    // NaN = unprobed: the fitness must pass through bit-identically.
    EXPECT_DOUBLE_EQ(robust_fitness(0.8, nan_v, cfg), 0.8);
    // Weight blend, and clamping of an out-of-range estimate.
    EXPECT_DOUBLE_EQ(robust_fitness(0.8, 0.4, cfg), 0.75 * 0.8 + 0.25 * 0.4);
    EXPECT_DOUBLE_EQ(robust_fitness(0.8, 1.7, cfg), 0.75 * 0.8 + 0.25);
    EXPECT_DOUBLE_EQ(robust_fitness(0.8, -0.3, cfg), 0.75 * 0.8);
    // Constraint mode: proportional penalty below the target, none at or
    // above it.
    cfg.mode = RobustnessMode::constraint;
    cfg.min_yield = 0.8;
    EXPECT_DOUBLE_EQ(robust_fitness(0.6, 0.4, cfg), 0.6 * 0.5);
    EXPECT_DOUBLE_EQ(robust_fitness(0.6, 0.8, cfg), 0.6);
    EXPECT_DOUBLE_EQ(robust_fitness(0.6, 1.0, cfg), 0.6);
    EXPECT_DOUBLE_EQ(robust_fitness(0.6, nan_v, cfg), 0.6);
}

TEST(Robustness, ProbeContractOffPreActivationAndSizeChecked) {
    const std::vector<std::vector<double>> pts = {{1.0}, {2.0}, {3.0}};
    RobustnessConfig off;
    for (double r : probe_population_robustness(off, pts, 0))
        EXPECT_TRUE(std::isnan(r));

    int calls = 0;
    RobustnessConfig cfg;
    cfg.activation_generation = 2;
    cfg.probe = [&](const std::vector<std::vector<double>>& p, std::size_t) {
        ++calls;
        return std::vector<double>(p.size(), 0.5);
    };
    // Pre-activation generations must not even invoke the probe.
    for (double r : probe_population_robustness(cfg, pts, 1))
        EXPECT_TRUE(std::isnan(r));
    EXPECT_EQ(calls, 0);
    const auto probed = probe_population_robustness(cfg, pts, 2);
    EXPECT_EQ(calls, 1);
    for (double r : probed) EXPECT_DOUBLE_EQ(r, 0.5);

    cfg.probe = [](const std::vector<std::vector<double>>&, std::size_t) {
        return std::vector<double>{0.5};
    };
    EXPECT_THROW((void)probe_population_robustness(cfg, pts, 2),
                 InvalidInputError);
}

TEST(Robustness, ProbeIndicesSelectTopKTiesTowardLowerIndex) {
    const std::vector<double> fitness = {0.1, 0.9, 0.9, 0.5};
    EXPECT_EQ(robustness_probe_indices(fitness, 2),
              (std::vector<std::size_t>{1, 2}));
    EXPECT_EQ(robustness_probe_indices(fitness, 3),
              (std::vector<std::size_t>{1, 2, 3}));
    EXPECT_EQ(robustness_probe_indices(fitness, 0),
              (std::vector<std::size_t>{0, 1, 2, 3}));
    EXPECT_EQ(robustness_probe_indices(fitness, 9),
              (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(Wbga, RobustnessOffPathBitIdentical) {
    // The channel contract at optimiser level: an all-NaN probe reproduces
    // the legacy run bit-for-bit.
    const ToyAmplifierProblem problem;
    WbgaConfig base;
    base.population = 16;
    base.generations = 6;
    const auto run_with = [&](const WbgaConfig& cfg) {
        Rng rng(5);
        return Wbga(problem, cfg).run(rng);
    };
    const auto legacy = run_with(base);

    int calls = 0;
    WbgaConfig all_nan = base;
    all_nan.robustness.probe = [&](const std::vector<std::vector<double>>& p,
                                   std::size_t) {
        ++calls;
        return std::vector<double>(p.size(), nan_v);
    };
    const auto res = run_with(all_nan);
    ASSERT_EQ(res.archive.size(), legacy.archive.size());
    for (std::size_t i = 0; i < res.archive.size(); ++i) {
        EXPECT_EQ(res.archive[i].objectives, legacy.archive[i].objectives);
        EXPECT_EQ(res.archive[i].fitness, legacy.archive[i].fitness);
        EXPECT_EQ(res.archive[i].params, legacy.archive[i].params);
        EXPECT_TRUE(std::isnan(res.archive[i].robustness));
    }
    // The all-NaN probe fired once per generation.
    EXPECT_EQ(calls, 6);
}

TEST(Wbga, RobustnessEntersFitnessAndArchive) {
    // yield_weight 1 makes the blended fitness *equal* the (clamped) probe
    // value - the sharpest possible check that the channel reaches
    // selection.
    const ToyAmplifierProblem problem;
    WbgaConfig cfg;
    cfg.population = 10;
    cfg.generations = 4;
    cfg.robustness.activation_generation = 2;
    cfg.robustness.yield_weight = 1.0;
    cfg.robustness.probe = [](const std::vector<std::vector<double>>& p,
                              std::size_t) {
        return std::vector<double>(p.size(), 0.25);
    };
    Rng rng(7);
    const auto res = Wbga(problem, cfg).run(rng);
    ASSERT_EQ(res.archive.size(), 40u);
    std::size_t probed = 0;
    for (const auto& e : res.archive) {
        if (std::isnan(e.robustness)) continue;
        ++probed;
        EXPECT_DOUBLE_EQ(e.robustness, 0.25);
        EXPECT_DOUBLE_EQ(e.fitness, 0.25);
    }
    // Generations 2 and 3 probed the whole population of 10.
    EXPECT_EQ(probed, 20u);
}

TEST(Wbga, RobustnessMaxPointsTiersTheProbe) {
    const ToyAmplifierProblem problem;
    WbgaConfig cfg;
    cfg.population = 12;
    cfg.generations = 3;
    cfg.robustness.max_points = 3;
    std::vector<std::size_t> batch_sizes;
    cfg.robustness.probe = [&](const std::vector<std::vector<double>>& p,
                               std::size_t) {
        batch_sizes.push_back(p.size());
        return std::vector<double>(p.size(), 1.0);
    };
    Rng rng(9);
    const auto res = Wbga(problem, cfg).run(rng);
    // Every probe call saw exactly the top-K cohort.
    ASSERT_EQ(batch_sizes.size(), 3u);
    for (std::size_t n : batch_sizes) EXPECT_EQ(n, 3u);
    std::size_t probed = 0;
    for (const auto& e : res.archive)
        if (!std::isnan(e.robustness)) ++probed;
    EXPECT_EQ(probed, 9u);
}

TEST(Wbga, RobustnessConfigValidatedAtConstruction) {
    const ToyAmplifierProblem problem;
    WbgaConfig cfg;
    cfg.robustness.yield_weight = 2.0;
    EXPECT_THROW((void)Wbga(problem, cfg), InvalidInputError);

    // A probe that activates at or past the generation count would never
    // fire; without a probe the activation is irrelevant.
    WbgaConfig dormant;
    dormant.generations = 6;
    dormant.robustness.activation_generation = 6;
    (void)Wbga(problem, dormant);
    dormant.robustness.probe = [](const std::vector<std::vector<double>>& p,
                                  std::size_t) {
        return std::vector<double>(p.size(), 1.0);
    };
    EXPECT_THROW((void)Wbga(problem, dormant), InvalidInputError);
    dormant.robustness.activation_generation = 5;
    (void)Wbga(problem, dormant);
}

TEST(TestProblems, ZdtTrueFrontAtGEquals1) {
    const ZdtProblem z1(1, 5);
    std::vector<double> p(5, 0.0);
    p[0] = 0.25;
    const auto f = z1.evaluate(p);
    EXPECT_DOUBLE_EQ(f[0], 0.25);
    EXPECT_NEAR(f[1], z1.true_front_f2(0.25), 1e-12);
}

TEST(TestProblems, ToyAmplifierTradeoffDirection) {
    const ToyAmplifierProblem t;
    const auto low_b = t.evaluate({1.0, 0.5});
    const auto high_b = t.evaluate({8.0, 0.5});
    EXPECT_GT(high_b[0], low_b[0]); // more gain
    EXPECT_LT(high_b[1], low_b[1]); // less phase margin
}

} // namespace
