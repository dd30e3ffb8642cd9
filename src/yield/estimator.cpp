#include "yield/estimator.hpp"

#include <utility>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace ypm::yield {

SequentialYieldResult
YieldEstimator::estimate(eval::Engine& engine, const SequentialConfig& base,
                         const std::vector<mc::Spec>& specs,
                         const KernelFactory& factory, std::size_t dimension,
                         Rng rng) const {
    SequentialYieldRunner runner(engine, configure(base), specs, factory,
                                 dimension, rng);
    return runner.run();
}

namespace {

/// Every estimator starts from a clean method slate: the scenario-level
/// base keeps its problem knobs, the family knobs are reset here and then
/// re-enabled per estimator. Without the reset, a base config carrying
/// (say) refine_after_chunks would silently turn plain_mc into a CE run.
SequentialConfig reset_method_knobs(SequentialConfig c) {
    c.mixture_proposal = true;
    c.refine_after_chunks = 0;
    c.adapt_scale = false;
    return c;
}

SequentialConfig plain_mc(SequentialConfig c) {
    c = reset_method_knobs(std::move(c));
    c.pilot_samples = 0; // zero shift: the driver degenerates to plain MC
    return c;
}

SequentialConfig single_shift(SequentialConfig c) {
    c = reset_method_knobs(std::move(c));
    c.mixture_proposal = false; // legacy ISLE combined mean shift
    return c;
}

/// Shared base of the mixture family: defensive mixture proposal with one
/// cross-entropy refinement (period 2 retired chunks unless the scenario
/// asked for another period/round count).
SequentialConfig mixture_ce(SequentialConfig base) {
    const std::size_t period = base.refine_after_chunks;
    const std::size_t refits = base.max_refits;
    SequentialConfig c = reset_method_knobs(std::move(base));
    c.refine_after_chunks = period > 0 ? period : 2;
    c.max_refits = refits > 0 ? refits : 1;
    return c;
}

SequentialConfig mixture_ce_scale(SequentialConfig c) {
    c = mixture_ce(std::move(c));
    c.adapt_scale = true;
    return c;
}

/// The built-in zoo, sorted by name.
struct Builtin {
    std::string_view name;
    YieldEstimator::Transform transform;
};
constexpr Builtin kBuiltins[] = {{"mixture_ce", mixture_ce},
                                 {"mixture_ce_scale", mixture_ce_scale},
                                 {"plain_mc", plain_mc},
                                 {"single_shift", single_shift}};

} // namespace

const EstimatorRegistry& EstimatorRegistry::instance() {
    static const EstimatorRegistry registry{};
    return registry;
}

std::unique_ptr<YieldEstimator>
EstimatorRegistry::create(std::string_view name) const {
    for (const Builtin& b : kBuiltins)
        if (b.name == name)
            return std::make_unique<YieldEstimator>(b.name, b.transform);
    throw InvalidInputError("EstimatorRegistry: unknown estimator '" +
                            std::string(name) + "' (registered: " +
                            str::join(names(), ", ") + ")");
}

std::vector<std::string> EstimatorRegistry::names() const {
    std::vector<std::string> out;
    for (const Builtin& b : kBuiltins) out.emplace_back(b.name);
    return out;
}

} // namespace ypm::yield
