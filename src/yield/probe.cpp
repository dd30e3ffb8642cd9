#include "yield/probe.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace ypm::yield {

namespace {

/// Probe instruments, resolved once (same discipline as YieldMetrics in
/// sequential.cpp: a few relaxed atomic adds per probe call).
struct ProbeMetrics {
    obs::Counter& points;
    obs::Counter& samples;
    obs::Counter& warm_starts;

    static ProbeMetrics& get() {
        auto& registry = obs::MetricsRegistry::global();
        static ProbeMetrics metrics{registry.counter("probe.points"),
                                    registry.counter("probe.samples"),
                                    registry.counter("probe.warm_starts")};
        return metrics;
    }
};

/// A pilot fit backed by fewer failing samples than this is too noisy to
/// carry forward; keep probing cold until one qualifies.
constexpr std::size_t kMinWarmFailures = 4;

/// Clamp the per-point caps of an already-specialized config to the probe
/// budget left after its pilot.
SequentialConfig clamp_to_budget(SequentialConfig cfg, std::size_t budget,
                                 double target_half_width) {
    cfg.max_samples = budget - std::min(cfg.pilot_samples, budget);
    cfg.chunk_samples = std::max<std::size_t>(
        1, std::min(cfg.chunk_samples, cfg.max_samples));
    cfg.min_samples = std::min(cfg.min_samples, cfg.max_samples);
    cfg.target_half_width = target_half_width;
    return cfg;
}

} // namespace

SequentialConfig configure_probe_estimator(const std::string& name,
                                           SequentialConfig base,
                                           std::size_t budget,
                                           double target_half_width) {
    if (budget == 0)
        throw InvalidInputError("yield probe: budget must be >= 1 sample");
    if (!(target_half_width >= 0.0))
        throw InvalidInputError("yield probe: target_half_width must be >= 0");
    const EstimatorRegistry& registry = EstimatorRegistry::instance();
    const std::string resolved = name.empty() ? "plain_mc" : name;
    // Unknown names throw the registry's own listing error here.
    const SequentialConfig cfg = registry.create(resolved)->configure(base);
    if (cfg.pilot_samples + 1 > budget) {
        // Valid estimator, invalid tier: its pilot leaves no main-stage
        // sample inside the probe budget. List the compatible subset of the
        // zoo so the caller can substitute instead of silently degrading.
        std::vector<std::string> compatible;
        for (const std::string& candidate : registry.names()) {
            const SequentialConfig trial =
                registry.create(candidate)->configure(base);
            if (trial.pilot_samples + 1 <= budget) compatible.push_back(candidate);
        }
        throw InvalidInputError(
            "yield probe: estimator '" + resolved + "' needs " +
            std::to_string(cfg.pilot_samples) +
            " pilot samples plus >= 1 main-stage sample, which does not fit "
            "the probe budget of " +
            std::to_string(budget) +
            "; raise the budget or pick a probe-compatible estimator: " +
            (compatible.empty() ? std::string("(none at this budget)")
                                : str::join(compatible, ", ")));
    }
    return clamp_to_budget(cfg, budget, target_half_width);
}

YieldProbe::YieldProbe(ProbeConfig config, const SequentialConfig& base,
                       std::vector<mc::Spec> specs, PointKernelFactory factory,
                       std::size_t dimension)
    : config_(std::move(config)), specs_(std::move(specs)),
      factory_(std::move(factory)), dimension_(dimension) {
    if (specs_.empty())
        throw InvalidInputError("YieldProbe: need >= 1 spec");
    if (!factory_)
        throw InvalidInputError("YieldProbe: null point kernel factory");
    cold_config_ = configure_probe_estimator(
        config_.estimator, base, config_.budget, config_.target_half_width);
}

SequentialConfig YieldProbe::warm_config() const {
    SequentialConfig cfg = cold_config_;
    cfg.pilot_samples = 0;
    cfg.initial_proposal = warm_;
    return clamp_to_budget(cfg, config_.budget, config_.target_half_width);
}

std::vector<ProbeResult>
YieldProbe::probe(eval::Engine& engine,
                  const std::vector<std::vector<double>>& points, Rng rng,
                  std::size_t generation) {
    const std::size_t n = points.size();
    std::vector<ProbeResult> results(n);
    if (n == 0) return results;

    const bool warm = !warm_.components.empty();
    const SequentialConfig cfg = warm ? warm_config() : cold_config_;

    // Point i runs on rng.child(i + 1), its submission position, so the
    // batch is invariant to scheduling.
    std::vector<YieldPoint> batch;
    batch.reserve(n);
    for (const std::vector<double>& params : points)
        batch.push_back({specs_, factory_(params), dimension_});
    const std::vector<SequentialYieldResult> runs =
        run_yield_points(engine, cfg, batch, rng);

    std::size_t call_samples = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const SequentialYieldResult& res = runs[i];
        results[i].estimate = res.estimate;
        results[i].samples_used = res.samples_used + res.pilot_samples;
        results[i].warm_started = warm;
        results[i].reached_target = res.reached_target;
        call_samples += results[i].samples_used;

        // Warm-start hand-off: the last cold point this call whose pilot
        // located enough failures donates its fitted proposal. Advances in
        // point order on folded results only - deterministic.
        if (!warm && res.shift_pilot_failures >= kMinWarmFailures &&
            res.proposal.active())
            warm_ = res.proposal;
    }
    total_samples_ += call_samples;

    ProbeMetrics& metrics = ProbeMetrics::get();
    metrics.points.add(n);
    metrics.samples.add(call_samples);
    if (warm) metrics.warm_starts.add(n);
    if (obs::Tracer::enabled())
        obs::Tracer::instant("yield.probe", "yield",
                             {{"generation", static_cast<double>(generation)},
                              {"points", static_cast<double>(n)},
                              {"samples", static_cast<double>(call_samples)},
                              {"warm", warm ? 1.0 : 0.0}});
    return results;
}

} // namespace ypm::yield
