// Ablation A2 - optimiser choice: the paper's WBGA versus NSGA-II and
// uniform random search at the same evaluation budget, scored by 2-D
// hypervolume of the resulting Pareto front on the real OTA problem and on
// the analytic ZDT1 (where the true front is known).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.hpp"
#include "circuits/ota_problem.hpp"
#include "moo/nsga2.hpp"
#include "moo/pareto.hpp"
#include "moo/random_search.hpp"
#include "moo/test_problems.hpp"
#include "moo/wbga.hpp"
#include "util/text_table.hpp"

using namespace ypm;

namespace {

double front_hypervolume(const std::vector<moo::EvaluatedIndividual>& archive,
                         const std::vector<moo::ObjectiveSpec>& specs,
                         const std::vector<double>& reference) {
    std::vector<std::vector<double>> objs;
    objs.reserve(archive.size());
    for (const auto& e : archive) objs.push_back(e.objectives);
    const auto front = moo::pareto_front_indices_2d(objs, specs);
    std::vector<std::vector<double>> pts;
    pts.reserve(front.size());
    for (std::size_t i : front) pts.push_back(objs[i]);
    return moo::hypervolume_2d(pts, reference, specs);
}

struct Score {
    double hypervolume = 0.0;
    std::size_t front_size = 0;
    double seconds = 0.0;
};

template <typename Runner>
Score run_scored(const moo::Problem& problem, const std::vector<double>& ref,
                 Runner&& runner) {
    const util::TickNs t0 = util::now_ns();
    const auto archive = runner();
    Score s;
    s.seconds = util::seconds_since(t0);
    s.hypervolume = front_hypervolume(archive, problem.objectives(), ref);
    std::vector<std::vector<double>> objs;
    for (const auto& e : archive) objs.push_back(e.objectives);
    s.front_size = moo::pareto_front_indices_2d(objs, problem.objectives()).size();
    return s;
}

void compare_on(const moo::Problem& problem, const std::vector<double>& ref,
                std::size_t pop, std::size_t gens, const char* title) {
    std::printf("\n--- %s (budget %zu evaluations) ---\n", title, pop * gens);

    moo::WbgaConfig wcfg;
    wcfg.population = pop;
    wcfg.generations = gens;
    const moo::Wbga wbga(problem, wcfg);

    moo::Nsga2Config ncfg;
    ncfg.population = pop;
    ncfg.generations = gens;
    const moo::Nsga2 nsga2(problem, ncfg);

    const Score sw = run_scored(problem, ref, [&] {
        Rng rng(11);
        return wbga.run(rng).archive;
    });
    const Score sn = run_scored(problem, ref, [&] {
        Rng rng(12);
        eval::Engine engine;
        return nsga2.run(engine, rng).archive;
    });
    const Score sr = run_scored(problem, ref, [&] {
        Rng rng(13);
        eval::Engine engine;
        return moo::random_search(engine, problem, pop * gens, rng).archive;
    });

    TextTable t({"optimiser", "hypervolume", "front size", "seconds"});
    t.add_row({"WBGA (paper)", benchx::fmt3(sw.hypervolume),
               std::to_string(sw.front_size), benchx::fmt2(sw.seconds)});
    t.add_row({"NSGA-II", benchx::fmt3(sn.hypervolume), std::to_string(sn.front_size),
               benchx::fmt2(sn.seconds)});
    t.add_row({"random search", benchx::fmt3(sr.hypervolume),
               std::to_string(sr.front_size), benchx::fmt2(sr.seconds)});
    std::printf("%s", t.to_string().c_str());
}

void BM_WbgaGenerationZdt(benchmark::State& state) {
    const moo::ZdtProblem problem(1, 30);
    moo::WbgaConfig cfg;
    cfg.population = 100;
    cfg.generations = 1;
    const moo::Wbga opt(problem, cfg);
    std::uint64_t seed = 0;
    for (auto _ : state) {
        Rng rng(seed++);
        auto res = opt.run(rng);
        benchmark::DoNotOptimize(res);
    }
}
BENCHMARK(BM_WbgaGenerationZdt)->Unit(benchmark::kMillisecond);

void experiment() {
    std::printf("\n=== A2: optimiser ablation (WBGA vs NSGA-II vs random) ===\n");
    const moo::ZdtProblem zdt(1, 30);
    compare_on(zdt, {1.1, 10.0}, 60, 40, "ZDT1 (analytic)");

    const circuits::OtaProblem ota{circuits::OtaConfig{}};
    compare_on(ota, {30.0, 0.0}, 40, 20, "OTA sizing (circuit simulator)");
    std::printf("\nreading: WBGA trades front quality for per-generation cost; "
                "the paper's flow only needs a dense trade-off *cloud*, which "
                "WBGA's weight niching provides.\n");
}

} // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    experiment();
    return 0;
}
