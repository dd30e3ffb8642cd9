#include "util/rng.hpp"

#include <algorithm>
#include <numeric>
#include <random>

#include "util/error.hpp"

namespace ypm {

std::uint64_t splitmix64(std::uint64_t& state) {
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

namespace {

constexpr std::uint64_t kSeedMultiplier = 6364136223846793005ull;
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;

/// One word of the MT recurrence: x_k' = x_{k+m} ^ twist(x_k, x_{k+1}).
/// The matrix term is masked rather than selected: a branch on the low bit
/// would mispredict on half of all words.
constexpr std::uint64_t twist(std::uint64_t far, std::uint64_t cur,
                              std::uint64_t nxt) {
    const std::uint64_t y = (cur & kUpperMask) | (nxt & kLowerMask);
    return far ^ (y >> 1) ^ (kMatrixA & (0 - (y & 1u)));
}

} // namespace

void Mt19937_64::refill() {
    if (next_ < n) {
        // First block, in runs that double: ready_ goes 1, 2, 4, ..., 256,
        // 312, so a stream of d draws comes here about log2(d) times. Word
        // k < n - m reads seed words k, k+1 and k+m (the twisted words below
        // k are already final); from k = n - m on every word is seeded.
        const std::uint32_t end = std::min(std::max(2 * next_, next_ + 1), n);
        const std::uint32_t need = std::min(end + m, n);
        std::uint64_t word = state_[seeded_ - 1];
        for (; seeded_ < need; ++seeded_) {
            word = kSeedMultiplier * (word ^ (word >> 62)) + seeded_;
            state_[seeded_] = word;
        }
        twist_words(next_, end);
        ready_ = end;
        return;
    }
    twist_words(0, n);
    next_ = 0;
}

void Mt19937_64::twist_words(std::uint32_t begin, std::uint32_t end) {
    // The std::mersenne_twister_engine block twist, in place, over words
    // [begin, end).
    std::uint32_t k = begin;
    for (; k < std::min(end, n - m); ++k)
        state_[k] = twist(state_[k + m], state_[k], state_[k + 1]);
    for (; k < std::min(end, n - 1); ++k)
        state_[k] = twist(state_[k + m - n], state_[k], state_[k + 1]);
    if (k < end) state_[k] = twist(state_[m - 1], state_[k], state_[0]);
}

template <std::size_t L>
void Mt19937_64::seed_first_outputs(const std::array<Mt19937_64*, L>& engines) {
    std::array<result_type, L> word{};
    for (std::size_t l = 0; l < L; ++l) word[l] = engines[l]->state_[0];
    for (std::uint32_t k = 1; k <= m; ++k)
        for (std::size_t l = 0; l < L; ++l) {
            word[l] = kSeedMultiplier * (word[l] ^ (word[l] >> 62)) + k;
            engines[l]->state_[k] = word[l];
        }
    for (std::size_t l = 0; l < L; ++l) engines[l]->seeded_ = m + 1;
}

namespace {

// Run the seed through SplitMix64 so that nearby user seeds (0, 1, 2...)
// do not produce correlated engine states.
std::uint64_t mixed_seed(std::uint64_t seed) { return splitmix64(seed); }

std::uint64_t child_seed(std::uint64_t parent, std::uint64_t stream) {
    std::uint64_t s = parent ^ (0xD1B54A32D192ED03ull * (stream + 1));
    return splitmix64(s);
}

} // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed), engine_(mixed_seed(seed)) {}

Rng Rng::child(std::uint64_t stream) const {
    return Rng(child_seed(seed_, stream));
}

void Rng::children(std::span<const std::size_t> streams,
                   std::vector<Rng>& out) const {
    const std::size_t first = out.size();
    out.reserve(first + streams.size());
    for (std::size_t stream : streams)
        out.emplace_back(child_seed(seed_, stream));
    // Lanes of 8, then one group each of 4, 2 and 1 for the remainder.
    auto seed = [&out]<std::size_t L>(std::size_t i) {
        std::array<Mt19937_64*, L> engines{};
        for (std::size_t l = 0; l < L; ++l) engines[l] = &out[i + l].engine_;
        Mt19937_64::seed_first_outputs(engines);
        return i + L;
    };
    std::size_t i = first;
    while (out.size() - i >= 8) i = seed.operator()<8>(i);
    if (out.size() - i >= 4) i = seed.operator()<4>(i);
    if (out.size() - i >= 2) i = seed.operator()<2>(i);
    if (out.size() - i >= 1) (void)seed.operator()<1>(i);
}

double Rng::uniform01() {
    // 53-bit mantissa construction: uniform in [0, 1).
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform01(); }

void Rng::gauss(std::span<double> out) {
    // Blocks of up to kBlock normals. The accepted (y, r^2) pairs come first:
    // every attempt writes its pair at slot j and only an accepted one moves
    // j on, so a rejection costs no branch. The transform then runs over the
    // whole block, its logs independent of each other and of the draws.
    constexpr std::size_t kBlock = 64;
    double r2s[kBlock];
    for (std::size_t first = 0; first < out.size(); first += kBlock) {
        const std::size_t count = std::min(kBlock, out.size() - first);
        double* ys = out.data() + first;
        std::size_t j = 0;
        while (j < count) {
            const double x = 2.0 * canonical() - 1.0;
            const double y = 2.0 * canonical() - 1.0;
            const double r2 = x * x + y * y;
            ys[j] = y;
            r2s[j] = r2;
            j += static_cast<std::size_t>((r2 <= 1.0) & (r2 != 0.0));
        }
        for (std::size_t i = 0; i < count; ++i)
            ys[i] = polar_normal(ys[i], r2s[i]);
    }
}

double Rng::gauss(double mean, double sigma) { return mean + sigma * gauss(); }

std::size_t Rng::index(std::size_t n) {
    if (n == 0) throw InvalidInputError("Rng::index: empty range (n == 0)");
    std::uniform_int_distribution<std::size_t> dist(0, n - 1);
    return dist(engine_);
}

long long Rng::integer(long long lo, long long hi) {
    if (lo > hi) throw InvalidInputError("Rng::integer: lo > hi");
    std::uniform_int_distribution<long long> dist(lo, hi);
    return dist(engine_);
}

bool Rng::bernoulli(double p) { return uniform01() < p; }

std::vector<std::size_t> Rng::permutation(std::size_t n) {
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    for (std::size_t i = n; i > 1; --i) {
        const std::size_t j = index(i);
        std::swap(idx[i - 1], idx[j]);
    }
    return idx;
}

} // namespace ypm
