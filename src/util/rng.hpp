#pragma once
/// \file rng.hpp
/// \brief Deterministic random number generation.
///
/// Every stochastic component (GA operators, Monte Carlo sampling, process
/// realisations) takes an explicit `Rng`. Reproducibility contract: the same
/// master seed always produces the same optimisation trajectory and the same
/// MC population, regardless of thread count, because parallel work items
/// derive independent child streams via `child(index)`.
///
/// The engine behind `Rng` is `Mt19937_64`, an MT19937-64 whose output
/// sequence is, for every seed, exactly that of the standard library's
/// `mt19937_64`; `gauss()` and the std distributions `index()` and
/// `integer()` use consume it draw for draw as they would the std engine.
/// It differs only in when the state is built. The std engine seeds all 312
/// state words up front and twists all of them before the first output;
/// `Mt19937_64` works through its first block lazily: output j < 156 reads
/// only seed words j, j+1 and j+156, so a refill seeds just the words the
/// next run of outputs reads and twists that run. The runs double (1, 1, 2,
/// 4, ..., 128, 56 words), so a stream of d draws refills about log2(d)
/// times, not d times, and its first draw still seeds and twists no more
/// than it reads.
/// From the 313th draw on it runs the standard full twist every 312 draws.
/// A Monte Carlo sample drawing a handful of numbers from a fresh
/// `child(i)` stream therefore pays for ~160 seeded words instead of 624
/// seeded and 312 twisted ones: about 0.4 us instead of 3.5 us per stream
/// (`BM_RngChildFirstDraw*` in bench_spice_kernel, 4-vCPU Xeon, GCC 12).
/// Bit identity is the contract: `test_util`'s `Mt19937_64.*` tests pin it
/// against the standard library's engine (its known answer, >1,000 seeds at
/// draw counts around 156 and 312 and around every run's end, copies taken
/// mid-block and mid-run), and `Rng.StreamsMatchStdEngineReference` pins
/// every draw method and child stream against `testsupport::ReferenceRng`,
/// the same `Rng` over the std engine. Every golden digest depends on it
/// too.
///
/// The per-item costs are cut further, with the same outputs:
///  - Batch seeding. The first output reads seed word 156, and the seeding
///    recurrence is one serial multiply chain. `children()` builds a whole
///    chunk's streams in place and seeds words 1-156 of up to eight of them
///    in one loop, so their independent chains overlap instead of running
///    back to back. The engine's chunk task derives its streams this way;
///    each stream stays output-identical to `child(i)`
///    (`Rng.ChildrenMatchChildDrawForDraw`; `BM_RngChildBatchFirstDraw`).
///  - An inline polar normal. `gauss()` is libstdc++'s
///    `std::normal_distribution` written out with the same operations in
///    the same order, minus the distribution object and the second value
///    of the polar pair, which a fresh distribution per call threw away.
///    `Rng.StreamsMatchStdEngineReference` pins it against
///    `std::normal_distribution` over `std::mt19937_64`.
///  - A branch-free canonical(). GCC converts a uint64_t to double with a
///    branch on the top bit, which mispredicts on half of all random words.
///    `canonical_of()` converts the two 32-bit halves exactly and rounds
///    once in their sum (`u64_to_double()`), and clamps the word rather
///    than the result. `Rng.BranchFreeCanonicalMatchesStd` pins both
///    against the cast and `std::generate_canonical<double, 64>`.
///  - Batched polar normals. `gauss(span)` first draws the accepted
///    (y, r^2) pairs, moving the slot on by the acceptance flag instead of
///    branching, then transforms them all in a second loop, where the logs
///    pipeline. Its values, and where it leaves the stream, are those of
///    the same number of `gauss()` calls (`Rng.GaussSpanMatchesScalarCalls`;
///    `BM_RngChild64GaussSpan`); both share one `polar_normal()`.
///    `yield::draw_mixture_u` draws a sample's normals with it.
///  - No zeroed state. The 312-word state is not value-initialised: the
///    lazy first block writes each word before any output reads it, and
///    copies carry only the written prefix [0, seeded_), so no unwritten
///    word is ever read. A stream no longer pays a 2.5 KB memset when it is
///    built (`Mt19937_64.CopyAssignOverUsedEngineShowsNoStaleWords`,
///    `Rng.ChildrenCopiedBeforeFirstDrawMatchChild`).

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ypm {

/// MT19937-64 with a lazily seeded and twisted first block. Same outputs
/// as the standard library's `mt19937_64` for the same seed (see the file
/// comment); a UniformRandomBitGenerator over the full 64-bit range.
class Mt19937_64 {
public:
    using result_type = std::uint64_t;
    static constexpr result_type default_seed = 5489u;

    // The state is not value-initialised: words are written as the lazy
    // first block seeds them, and [0, seeded_) is all that is ever read,
    // copies included, so zeroing the 2.5 KB up front would only cost
    // every per-sample stream a memset.
    // NOLINTBEGIN(cppcoreguidelines-pro-type-member-init): state_ beyond
    // seeded_ is written before it is read (see above).
    explicit Mt19937_64(result_type seed = default_seed) { state_[0] = seed; }
    Mt19937_64(const Mt19937_64& other)
        : next_(other.next_), ready_(other.ready_), seeded_(other.seeded_) {
        std::copy_n(other.state_.begin(), seeded_, state_.begin());
    }
    // NOLINTEND(cppcoreguidelines-pro-type-member-init)
    Mt19937_64& operator=(const Mt19937_64& other) {
        if (this == &other) return *this;
        next_ = other.next_;
        ready_ = other.ready_;
        seeded_ = other.seeded_;
        std::copy_n(other.state_.begin(), seeded_, state_.begin());
        return *this;
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    result_type operator()() {
        if (next_ >= ready_) refill();
        result_type y = state_[next_++];
        y ^= (y >> 29) & 0x5555555555555555ull;
        y ^= (y << 17) & 0x71D67FFFEDA60000ull;
        y ^= (y << 37) & 0xFFF7EEE000000000ull;
        return y ^ (y >> 43);
    }

private:
    friend class Rng;

    static constexpr std::uint32_t n = 312;
    static constexpr std::uint32_t m = 156;

    /// Seed words [1, m] - all that output 0 reads - of L freshly
    /// constructed engines, their chains interleaved. Leaves each engine
    /// exactly where its lazy path would have put it.
    template <std::size_t L>
    static void seed_first_outputs(const std::array<Mt19937_64*, L>& engines);

    /// Make state_[next_] ready: in the first block seed what the next run
    /// of words reads and twist that run, each run as long as all before it;
    /// after the first block, twist the whole block.
    void refill();

    /// Twist words [begin, end) in place, as the standard block twist does.
    void twist_words(std::uint32_t begin, std::uint32_t end);

    std::array<result_type, n> state_; ///< [0, seeded_) written, see ctor
    std::uint32_t next_ = 0;   ///< index of the next output word
    std::uint32_t ready_ = 0;  ///< words [0, ready_) are twisted
    std::uint32_t seeded_ = 1; ///< words [0, seeded_) hold seed values
};

/// static_cast<double>(w), rounded to nearest even, without the branch on
/// the top bit that GCC emits for it on x86-64 (a branch that mispredicts on
/// half of all random words): the two 32-bit halves convert exactly, their
/// sum is w exactly, and the one rounded add rounds it as the cast does.
[[nodiscard]] inline double u64_to_double(std::uint64_t w) {
    const double hi =
        static_cast<double>(static_cast<std::uint32_t>(w >> 32)) * 0x1.0p32;
    return hi + static_cast<double>(static_cast<std::uint32_t>(w));
}

/// std::generate_canonical<double, 64> of one 64-bit engine word: w scaled
/// by 2^-64, with the words whose double rounds up to 2^64 (w >= 2^64 -
/// 1024) clamped to 2^64 - 2048, whose image is the largest double below 1.
/// Clamping the word is a min, not a compare on the result.
[[nodiscard]] inline double canonical_of(std::uint64_t w) {
    constexpr std::uint64_t kLargestBelowOne = ~std::uint64_t{0} - 2047;
    return u64_to_double(w < kLargestBelowOne ? w : kLargestBelowOne) *
           0x1.0p-64;
}

/// Mt19937_64 with SplitMix64-based seeding and stream derivation.
class Rng {
public:
    /// Construct from a 64-bit seed.
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /// Derive an independent child stream. Deterministic in (parent seed,
    /// stream index); children of distinct indices are decorrelated.
    [[nodiscard]] Rng child(std::uint64_t stream) const;

    /// Append child(streams[i]) for every i to `out`, built in place and
    /// seeded together (see the file comment). Each appended stream is
    /// output-identical to the child() it replaces.
    void children(std::span<const std::size_t> streams,
                  std::vector<Rng>& out) const;

    /// Uniform double in [0, 1).
    [[nodiscard]] double uniform01();

    /// Uniform double in [lo, hi).
    [[nodiscard]] double uniform(double lo, double hi);

    /// Standard normal draw: libstdc++'s polar method, inline (see the
    /// file comment).
    [[nodiscard]] double gauss() {
        double y, r2;
        do {
            const double x = 2.0 * canonical() - 1.0;
            y = 2.0 * canonical() - 1.0;
            r2 = x * x + y * y;
        } while (r2 > 1.0 || r2 == 0.0);
        return polar_normal(y, r2);
    }

    /// Fill `out` with standard normal draws: the values, and the stream
    /// position after, of out.size() successive gauss() calls (see the file
    /// comment).
    void gauss(std::span<double> out);

    /// Normal draw with given mean and standard deviation.
    [[nodiscard]] double gauss(double mean, double sigma);

    /// Uniform integer in [0, n). \throws InvalidInputError if n == 0,
    /// before any draw.
    [[nodiscard]] std::size_t index(std::size_t n);

    /// Uniform integer in [lo, hi] inclusive. \throws InvalidInputError if
    /// lo > hi, before any draw.
    [[nodiscard]] long long integer(long long lo, long long hi);

    /// Bernoulli trial with probability p of true.
    [[nodiscard]] bool bernoulli(double p);

    /// Fisher-Yates shuffle of an index vector 0..n-1.
    [[nodiscard]] std::vector<std::size_t> permutation(std::size_t n);

    /// Seed this generator was created with.
    [[nodiscard]] std::uint64_t seed() const { return seed_; }

    /// Access the underlying engine (for std distributions in tests).
    [[nodiscard]] Mt19937_64& engine() { return engine_; }

private:
    /// std::generate_canonical<double, 64> over this engine: one draw.
    double canonical() { return canonical_of(engine_()); }

    /// The polar method's normal from an accepted pair: the std path's
    /// `ret * stddev + mean` at 1 and 0; + 0.0 turns -0 into +0 there too.
    static double polar_normal(double y, double r2) {
        return y * std::sqrt(-2.0 * std::log(r2) / r2) * 1.0 + 0.0;
    }

    std::uint64_t seed_;
    Mt19937_64 engine_;
};

/// SplitMix64 step - public because seeding logic is unit-tested.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

} // namespace ypm
