#include "yield/estimator.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

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

/// The whole built-in zoo shares one implementation: a name plus a config
/// transform. Estimators needing real state can subclass YieldEstimator
/// directly; none of the built-ins do.
class PolicyEstimator final : public YieldEstimator {
public:
    using Transform = SequentialConfig (*)(SequentialConfig);
    PolicyEstimator(std::string_view name, Transform transform)
        : name_(name), transform_(transform) {}

    [[nodiscard]] std::string_view name() const override { return name_; }
    [[nodiscard]] SequentialConfig
    configure(SequentialConfig base) const override {
        return transform_(std::move(base));
    }

private:
    std::string_view name_;
    Transform transform_;
};

/// Every estimator starts from a clean method slate: the scenario-level
/// base keeps its problem knobs, the family knobs are reset here and then
/// re-enabled per estimator. Without the reset, a base config carrying
/// (say) refine_after_chunks would silently turn plain_mc into a CE run.
SequentialConfig reset_method_knobs(SequentialConfig c) {
    c.mixture_proposal = true;
    c.refine_after_chunks = 0;
    c.shift_fit.adapt_scale = false;
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
    c.shift_fit.adapt_scale = true;
    return c;
}

} // namespace

EstimatorRegistry& EstimatorRegistry::instance() {
    static EstimatorRegistry registry;
    return registry;
}

EstimatorRegistry::EstimatorRegistry() {
    const auto builtin = [this](std::string_view name,
                                PolicyEstimator::Transform transform) {
        add(std::string(name), [name, transform] {
            return std::make_unique<PolicyEstimator>(name, transform);
        });
    };
    builtin("plain_mc", plain_mc);
    builtin("single_shift", single_shift);
    builtin("mixture_ce", mixture_ce);
    builtin("mixture_ce_scale", mixture_ce_scale);
}

void EstimatorRegistry::add(std::string name, EstimatorFactory factory) {
    if (name.empty())
        throw InvalidInputError("EstimatorRegistry: empty estimator name");
    if (!factory)
        throw InvalidInputError("EstimatorRegistry: null factory for '" +
                                name + "'");
    if (contains(name))
        throw InvalidInputError("EstimatorRegistry: duplicate estimator '" +
                                name + "'");
    entries_.emplace_back(std::move(name), std::move(factory));
}

bool EstimatorRegistry::contains(std::string_view name) const {
    for (const auto& [n, f] : entries_)
        if (n == name) return true;
    return false;
}

std::unique_ptr<YieldEstimator>
EstimatorRegistry::create(std::string_view name) const {
    for (const auto& [n, factory] : entries_)
        if (n == name) return factory();
    std::string known;
    for (const std::string& n : names()) {
        if (!known.empty()) known += ", ";
        known += n;
    }
    throw InvalidInputError("EstimatorRegistry: unknown estimator '" +
                            std::string(name) + "' (registered: " + known +
                            ")");
}

std::vector<std::string> EstimatorRegistry::names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [n, f] : entries_) out.push_back(n);
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace ypm::yield
