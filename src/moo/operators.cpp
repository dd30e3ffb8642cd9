#include "moo/operators.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"
#include "util/mathx.hpp"

namespace ypm::moo {

namespace {

constexpr double kCrossoverRate = 0.9;
constexpr double kMutationSigma = 0.08;

} // namespace

std::size_t select_tournament(const std::vector<double>& fitness,
                              std::size_t tournament, Rng& rng) {
    if (fitness.empty()) throw InvalidInputError("select_tournament: empty population");
    if (tournament == 0) tournament = 1;
    std::size_t best = rng.index(fitness.size());
    for (std::size_t k = 1; k < tournament; ++k) {
        const std::size_t cand = rng.index(fitness.size());
        if (fitness[cand] > fitness[best]) best = cand;
    }
    return best;
}

void crossover(const GaString& pa, const GaString& pb, GaString& child_a,
               GaString& child_b, Rng& rng) {
    if (pa.size() != pb.size() || pa.n_params() != pb.n_params())
        throw InvalidInputError("crossover: parent layout mismatch");
    child_a = pa;
    child_b = pb;
    const std::size_t n = pa.size();
    if (n < 2) return; // a one-gene string passes through unblended

    constexpr double alpha = 0.5;
    auto& ca = child_a.genes();
    auto& cb = child_b.genes();
    const auto& a = pa.genes();
    const auto& b = pb.genes();
    for (std::size_t i = 0; i < n; ++i) {
        const double lo = std::min(a[i], b[i]);
        const double hi = std::max(a[i], b[i]);
        const double span = hi - lo;
        const double xlo = lo - alpha * span;
        const double xhi = hi + alpha * span;
        ca[i] = rng.uniform(xlo, xhi);
        cb[i] = rng.uniform(xlo, xhi);
    }
    child_a.clamp();
    child_b.clamp();
}

void mutate(GaString& s, double rate, double sigma, Rng& rng) {
    for (auto& g : s.genes())
        if (rng.bernoulli(rate)) g = mathx::clamp(g + rng.gauss(0.0, sigma), 0.0, 1.0);
}

void breed(const std::vector<GaString>& parents,
           const std::function<std::size_t()>& pick, std::size_t size,
           std::vector<GaString>& next, Rng& rng) {
    if (parents.empty()) throw InvalidInputError("breed: empty population");
    const double rate = 1.0 / static_cast<double>(parents.front().size());
    while (next.size() < size) {
        const std::size_t ia = pick();
        const std::size_t ib = pick();
        GaString a = parents[ia];
        GaString b = parents[ib];
        if (rng.bernoulli(kCrossoverRate))
            crossover(parents[ia], parents[ib], a, b, rng);
        mutate(a, rate, kMutationSigma, rng);
        next.push_back(std::move(a));
        if (next.size() < size) {
            mutate(b, rate, kMutationSigma, rng);
            next.push_back(std::move(b));
        }
    }
}

} // namespace ypm::moo
