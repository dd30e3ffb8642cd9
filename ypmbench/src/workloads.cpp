#include "workloads.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <span>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "circuits/ota.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "yield/estimator.hpp"
#include "yield/scenarios.hpp"

namespace ypmbench {

namespace {

using ypm::util::now_ns;
using ypm::util::seconds_between;
using ypm::util::TickNs;

/// Operations per round. A round is the unit the driver repeats; these
/// sizes sum enough generated inputs that a round's work varies little from
/// seed to seed (one flow's work varies by about 10 % between seeds).
constexpr std::size_t kFlowsPerRound = 6;
constexpr std::size_t kSynthSeedsPerRound = 100;

/// Seed of the set-up warm-ups. It is fixed, not derived from the workload
/// seed: the warm-up work (a miniature flow, one certification per cell)
/// varies with its seed, and setup_s must measure the same work every run.
constexpr std::uint64_t kWarmUpSeed = 1;

/// The estimators of the certification cells.
const std::vector<std::string>& estimator_names() {
    static const std::vector<std::string> names = {"plain_mc", "mixture_ce"};
    return names;
}

/// Brute-force references of the OTA scenarios: yield::scenario_reference
/// with Rng(72) at each scenario's reference population (50,000 draws for
/// rare_ota, 30,000 for bimodal_ota), as printed by
/// `ypmbench --make-references`. Recorded here so a run does not spend
/// 80,000 OTA simulations re-deriving them.
struct OtaReference {
    const char* scenario;
    double yield;
    double ci_low;
    double ci_high;
};
constexpr OtaReference kOtaReferences[] = {
    {"rare_ota", 0.99246000000000001, 0.99166301594526274, 0.9931813192755663},
    {"bimodal_ota", 0.98680000000000001, 0.98544476955017213, 0.98803057826777441},
};

double std_normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

/// Reference yield and its standard error; closed-form scenarios have an
/// exact reference (standard error 0).
std::pair<double, double> reference_of(const std::string& scenario) {
    if (scenario == "synthetic_bimodal") {
        const double p = std_normal_cdf(3.0); // u0 <= 3 and u1 <= 3
        return {p * p, 0.0};
    }
    if (scenario == "highdim_synthetic") return {std_normal_cdf(2.33), 0.0};
    if (scenario == "clean_sweep") return {std_normal_cdf(6.0), 0.0};
    for (const OtaReference& r : kOtaReferences)
        if (scenario == r.scenario)
            return {r.yield, 0.5 * (r.ci_high - r.ci_low) / 1.96};
    throw std::invalid_argument("no reference for scenario " + scenario);
}

void add_ledger(ypm::eval::EngineCounters& sum,
                const ypm::eval::EngineCounters& c) {
    sum.requests += c.requests;
    sum.evaluations += c.evaluations;
    sum.cache_hits += c.cache_hits;
    sum.failures += c.failures;
    sum.wall_seconds += c.wall_seconds;
}

bool finite_point(const ypm::core::FrontPointData& p) {
    for (double v : p.sizing.to_vector())
        if (!std::isfinite(v)) return false;
    for (double v : {p.gain_db, p.pm_deg, p.dgain_pct, p.dpm_pct,
                     p.dgain_halfrange_pct, p.dpm_halfrange_pct, p.f3db, p.gbw})
        if (!std::isfinite(v)) return false;
    return true;
}

/// Table 5 knobs: WBGA 100 x 100, 200 Monte Carlo samples per front point
/// on at most 200 points, no probes, no certification, artifacts written.
ypm::core::FlowConfig table5_config(std::uint64_t seed,
                                    const std::string& artifact_dir) {
    ypm::core::FlowConfig cfg;
    cfg.ga.population = 100;
    cfg.ga.generations = 100;
    cfg.mc_samples = 200;
    cfg.max_mc_points = 200;
    cfg.seed = seed;
    cfg.artifact_dir = artifact_dir;
    return cfg;
}

std::vector<std::uint64_t> derived_seeds(std::uint64_t seed, std::size_t n) {
    std::vector<std::uint64_t> seeds;
    for (std::size_t i = 1; i <= n; ++i) seeds.push_back(derive_seed(seed, i));
    return seeds;
}

class FlowWorkload final : public Workload {
public:
    FlowWorkload(std::vector<std::uint64_t> seeds, const std::string& out_dir)
        : seeds_(std::move(seeds)), out_dir_(out_dir),
          artifact_dir_(out_dir + "/artifacts") {}

    void setup() override {
        std::filesystem::create_directories(artifact_dir_);
        // Warm-up: a miniature flow through the same code paths (pool
        // start, prototype construction, GA, Monte Carlo).
        ypm::core::FlowConfig cfg = table5_config(kWarmUpSeed, "");
        cfg.ga.population = 20;
        cfg.ga.generations = 5;
        cfg.mc_samples = 32;
        cfg.max_mc_points = 8;
        (void)ypm::core::YieldFlow(ypm::circuits::OtaConfig{}, cfg).run();
    }

    RoundResult round(SpanLog& spans, bool traced) override {
        RoundResult out;
        Digest digest;
        bool ledger_ok = true;
        bool front_ok = true;
        bool artifacts_ok = true;
        std::string ledger_detail;
        if (traced) traces_.clear();
        const TickNs t_round = now_ns();
        for (std::uint64_t seed : seeds_) {
            ypm::core::FlowConfig cfg = table5_config(seed, artifact_dir_);
            if (traced) {
                cfg.trace_path = out_dir_ + "/flow_trace_" +
                                 std::to_string(traces_.size()) + ".json";
                traces_.push_back(cfg.trace_path);
            }
            const ypm::core::YieldFlow flow(ypm::circuits::OtaConfig{}, cfg);
            const TickNs t0 = now_ns();
            const ypm::core::FlowResult r = flow.run();
            const TickNs t1 = now_ns();
            spans.record("bench.core.flow_run", t0, t1);
            out.op_wall_s.push_back(seconds_between(t0, t1));

            const ypm::eval::EngineCounters& c = r.timings.engine;
            add_ledger(out.ledger, c);
            out.samples += c.requests;
            out.moo_evaluations += r.timings.moo_evaluations;
            out.flow.moo_seconds += r.timings.moo_seconds;
            out.flow.mc_seconds += r.timings.mc_seconds;
            out.flow.table_seconds += r.timings.table_seconds;
            ++out.operations;

            const bool identity = c.requests == c.evaluations + c.cache_hits;
            ledger_detail = "requests " + std::to_string(c.requests) +
                            ", evaluations " + std::to_string(c.evaluations) +
                            ", cache hits " + std::to_string(c.cache_hits);
            bool finite = !r.front.empty();
            for (const auto& p : r.front) finite = finite && finite_point(p);
            const bool wrote = !r.artifacts.front_csv.empty();
            ledger_ok = ledger_ok && identity;
            front_ok = front_ok && finite;
            artifacts_ok = artifacts_ok && wrote;
            if (!(identity && finite && wrote)) ++out.failed_operations;

            digest.add(static_cast<std::uint64_t>(r.pareto_indices.size()));
            digest.add(static_cast<std::uint64_t>(r.front.size()));
            for (const auto& p : r.front) {
                digest.add(static_cast<std::uint64_t>(p.design_id));
                for (double v : p.sizing.to_vector()) digest.add(v);
                for (double v : {p.gain_db, p.pm_deg, p.dgain_pct, p.dpm_pct,
                                 p.dgain_halfrange_pct, p.dpm_halfrange_pct,
                                 p.f3db, p.gbw})
                    digest.add(v);
                digest.add(static_cast<std::uint64_t>(p.mc_failures));
            }
        }
        out.wall_s = seconds_between(t_round, now_ns());
        out.digest = digest.hex();
        out.checks.push_back({"paper_flow.ledger_identity", ledger_ok,
                              "requests == evaluations + cache_hits (" +
                                  ledger_detail + ")"});
        out.checks.push_back({"paper_flow.front_finite", front_ok,
                              "front non-empty, every value finite"});
        out.checks.push_back({"paper_flow.artifacts", artifacts_ok,
                              "step 5 wrote the table model"});
        return out;
    }

    [[nodiscard]] std::vector<std::string> program_traces() const override {
        return traces_;
    }

private:
    std::vector<std::uint64_t> seeds_;
    std::string out_dir_;
    std::string artifact_dir_;
    std::vector<std::string> traces_; ///< one per flow of the last traced round
};

/// Wrap a kernel factory so every chunk adds its wall time to `busy_ns`:
/// kernel busy time measured from outside the engine.
ypm::yield::KernelFactory timed_factory(ypm::yield::KernelFactory inner,
                                        std::atomic<TickNs>& busy_ns) {
    return [inner = std::move(inner), &busy_ns](
               const ypm::process::ProposalMixture& mixture,
               bool record_u) -> ypm::mc::ChunkSampleFn {
        ypm::mc::ChunkSampleFn kernel = inner(mixture, record_u);
        return [kernel = std::move(kernel), &busy_ns](
                   std::span<const std::size_t> ids, std::span<ypm::Rng> rngs) {
            const TickNs t0 = now_ns();
            auto rows = kernel(ids, rngs);
            busy_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
            return rows;
        };
    };
}

/// One certification cell: a scenario and the estimator that certifies it.
struct CellSpec {
    std::string scenario;
    std::string estimator;
};

/// Sequential yield certification of every cell for each seed of the
/// round, on one cache-less engine per round.
class CertifyWorkload final : public Workload {
public:
    /// \param probe true for the traced run's cell probe: it skips the
    ///        warm-up and runs every cell once, including cells that do not
    ///        always reach their target, so only the pooled estimates of its
    ///        plain_mc cells are checked (a single importance-sampled OTA
    ///        estimate can miss the reference by more than its own narrow
    ///        interval).
    CertifyWorkload(std::string label, std::vector<CellSpec> cells,
                    std::vector<std::uint64_t> seeds, bool probe)
        : label_(std::move(label)), cells_(std::move(cells)),
          seeds_(std::move(seeds)), probe_(probe) {}

    void setup() override {
        scenarios_.clear();
        estimators_.clear();
        for (const CellSpec& cell : cells_) {
            if (find_scenario(cell.scenario) == nullptr)
                scenarios_.push_back(ypm::yield::make_scenario(cell.scenario));
            if (!estimators_.contains(cell.estimator))
                estimators_.emplace(cell.estimator,
                                    ypm::yield::EstimatorRegistry::instance().create(
                                        cell.estimator));
        }
        if (probe_) return;
        ypm::eval::EngineConfig engine_config;
        engine_config.cache_capacity = 0;
        ypm::eval::Engine engine(engine_config);
        for (const CellSpec& cell : cells_) {
            const ypm::yield::Scenario& sc = *find_scenario(cell.scenario);
            (void)estimators_.at(cell.estimator)
                ->estimate(engine, sc.config, sc.specs, sc.factory, sc.dimension,
                           ypm::Rng(kWarmUpSeed));
        }
    }

    RoundResult round(SpanLog& spans, bool traced) override {
        RoundResult out;
        Digest digest;
        std::atomic<TickNs> busy_ns{0};
        std::vector<ypm::yield::KernelFactory> factories;
        for (const CellSpec& spec : cells_) {
            const ypm::yield::Scenario& sc = *find_scenario(spec.scenario);
            factories.push_back(traced ? timed_factory(sc.factory, busy_ns)
                                       : sc.factory);
            CellStats cell;
            cell.scenario = spec.scenario;
            cell.estimator = spec.estimator;
            std::tie(cell.reference, cell.reference_se) = reference_of(sc.name);
            cell.target = sc.config.target_half_width;
            out.cells.push_back(cell);
        }
        ypm::eval::EngineConfig engine_config;
        engine_config.cache_capacity = 0;
        ypm::eval::Engine engine(engine_config);

        const TickNs t_round = now_ns();
        for (std::uint64_t seed : seeds_) {
            for (std::size_t c = 0; c < cells_.size(); ++c) {
                const ypm::yield::Scenario& sc = *find_scenario(cells_[c].scenario);
                const TickNs t0 = now_ns();
                const ypm::yield::SequentialYieldResult r =
                    estimators_.at(cells_[c].estimator)
                        ->estimate(engine, sc.config, sc.specs, factories[c],
                                   sc.dimension, ypm::Rng(seed));
                const TickNs t1 = now_ns();
                spans.record("bench.yield.estimate", t0, t1,
                             {{"cell", static_cast<double>(c)}});
                out.op_wall_s.push_back(seconds_between(t0, t1));
                tally(out, out.cells[c], r, digest);
            }
        }
        out.wall_s = seconds_between(t_round, now_ns());
        out.ledger = engine.counters();
        if (traced) out.kernel_busy_s = static_cast<double>(busy_ns.load()) * 1e-9;
        out.digest = digest.hex();
        add_checks(out);
        return out;
    }

private:
    [[nodiscard]] const ypm::yield::Scenario*
    find_scenario(const std::string& name) const {
        for (const auto& sc : scenarios_)
            if (sc.name == name) return &sc;
        return nullptr;
    }

    static void tally(RoundResult& out, CellStats& cell,
                      const ypm::yield::SequentialYieldResult& r,
                      Digest& digest) {
        const std::size_t total = r.samples_used + r.pilot_samples;
        const double hw = r.estimate.half_width();
        const double ref_hw = 1.96 * cell.reference_se;
        ++out.operations;
        out.samples += total;
        if (!r.reached_target) ++out.failed_operations;
        ++cell.certifications;
        cell.reached_target += r.reached_target ? 1 : 0;
        cell.ci_overlaps += (r.estimate.ci_low <= cell.reference + ref_hw &&
                             cell.reference - ref_hw <= r.estimate.ci_high)
                                ? 1
                                : 0;
        cell.samples += total;
        cell.pilot_samples += r.pilot_samples;
        cell.refits += r.refinements;
        cell.chunks += r.trajectory.size();
        if (r.samples_used > 0)
            cell.ess_per_sample_sum +=
                r.estimate.ess / static_cast<double>(r.samples_used);
        cell.yield_sum += r.estimate.yield;
        cell.variance_sum += (hw / 1.96) * (hw / 1.96);
        digest.add(r.estimate.yield);
        digest.add(r.estimate.ci_low);
        digest.add(r.estimate.ci_high);
        digest.add(static_cast<std::uint64_t>(total));
    }

    void add_checks(RoundResult& out) const {
        bool reached = true;
        bool pooled = true;
        std::size_t overlaps = 0;
        std::size_t certifications = 0;
        double worst_error = 0.0;
        std::string worst;
        for (const CellStats& cell : out.cells) {
            if (probe_ && cell.estimator != "plain_mc") continue;
            reached = reached && cell.reached_target == cell.certifications;
            overlaps += cell.ci_overlaps;
            certifications += cell.certifications;
            // Pooled over the round's seeds, the mean estimate must sit
            // within 4 combined standard errors or within the CI target of
            // the reference, whichever is wider: the importance-sampled
            // estimates carry a small bias that more seeds do not remove.
            const double n = static_cast<double>(cell.certifications);
            const double error = std::fabs(cell.yield_sum / n - cell.reference);
            const double se = std::sqrt(cell.variance_sum / (n * n) +
                                        cell.reference_se * cell.reference_se);
            const double tolerance = std::max(4.0 * se, cell.target);
            if (error / tolerance > worst_error) {
                worst_error = error / tolerance;
                worst = cell.scenario + "/" + cell.estimator;
            }
            pooled = pooled && error <= tolerance;
        }
        char detail[160];
        std::snprintf(detail, sizeof detail,
                      "pooled estimates within tolerance of the reference "
                      "(worst %.2f of tolerance, %s)",
                      worst_error, worst.c_str());
        out.checks.push_back({label_ + ".pooled_vs_reference", pooled, detail});
        if (probe_) return;
        out.checks.push_back({label_ + ".reached_target", reached,
                              "every certification reached its CI target"});
        // Single 95 % intervals miss a correct reference now and then, and
        // the importance-sampled ones more often, so only the share of
        // overlapping intervals is checked.
        const double share = static_cast<double>(overlaps) /
                             static_cast<double>(std::max<std::size_t>(certifications, 1));
        std::snprintf(detail, sizeof detail,
                      "%zu of %zu CIs overlap the reference interval", overlaps,
                      certifications);
        out.checks.push_back({label_ + ".ci_overlap", share >= 0.75, detail});
    }

    std::string label_;
    std::vector<CellSpec> cells_;
    std::vector<std::uint64_t> seeds_;
    bool probe_;
    std::vector<ypm::yield::Scenario> scenarios_;
    std::map<std::string, std::unique_ptr<ypm::yield::YieldEstimator>> estimators_;
};

} // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& out_dir) {
    if (name == "paper_flow")
        return std::make_unique<FlowWorkload>(
            derived_seeds(seed, kFlowsPerRound), out_dir);
    // highdim_synthetic runs plain Monte Carlo only: under mixture_ce its
    // cost per seed is heavy-tailed (768 samples on most seeds, up to the
    // 20,000-sample cap on a few, some ending short of the target), which
    // would make a round's sample count and wall hinge on a few seeds
    // (README.md). The cell probe of the traced run still runs every cell.
    if (name == "synth_yield")
        return std::make_unique<CertifyWorkload>(
            name,
            std::vector<CellSpec>{{"synthetic_bimodal", "plain_mc"},
                                  {"synthetic_bimodal", "mixture_ce"},
                                  {"highdim_synthetic", "plain_mc"},
                                  {"clean_sweep", "plain_mc"},
                                  {"clean_sweep", "mixture_ce"}},
            derived_seeds(seed, kSynthSeedsPerRound), false);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

std::unique_ptr<Workload> make_flow_probe(std::uint64_t seed,
                                          const std::string& out_dir) {
    return std::make_unique<FlowWorkload>(derived_seeds(seed, 1), out_dir);
}

std::unique_ptr<Workload> make_cell_probe(std::uint64_t seed) {
    std::vector<CellSpec> cells;
    for (const std::string& scenario : ypm::yield::scenario_names())
        for (const std::string& estimator : estimator_names())
            cells.push_back({scenario, estimator});
    return std::make_unique<CertifyWorkload>("cells", std::move(cells),
                                             derived_seeds(seed, 1), true);
}

void print_ota_references() {
    ypm::eval::EngineConfig engine_config;
    engine_config.cache_capacity = 0;
    ypm::eval::Engine engine(engine_config);
    for (const char* name : {"rare_ota", "bimodal_ota"}) {
        const ypm::yield::Scenario sc = ypm::yield::make_scenario(name);
        const auto ref = ypm::yield::scenario_reference(
            engine, sc, sc.reference_samples, ypm::Rng(72));
        std::printf("    {\"%s\", %.17g, %.17g, %.17g},\n", name, ref.yield,
                    ref.ci_low, ref.ci_high);
    }
}

} // namespace ypmbench
