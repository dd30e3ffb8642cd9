// Allocation gate for the flat sample path. This executable replaces the
// global operator new with a counting one, so a test can count the heap
// allocations a call makes: a Monte Carlo sample batch must make as many
// for 1024 samples as for 128 (no sample owns a heap object between the
// kernel and the rows handed back), and draw_mixture_u must make none on
// any of its proposal paths.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "eval/engine.hpp"
#include "mc/monte_carlo.hpp"
#include "process/sampler.hpp"
#include "util/rng.hpp"
#include "yield/scenarios.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

/// Heap allocations made by `fn()`.
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    fn();
    return g_allocations.load(std::memory_order_relaxed) - before;
}

} // namespace

// Out of line, so the compiler never sees a free() inlined into a caller
// that got its pointer from operator new (GCC's -Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
    std::free(p);
}

namespace {

using namespace ypm;

/// Allocations of one synthetic_bimodal sample batch of `samples` samples
/// through submit_monte_carlo/wait_monte_carlo, on a fresh serial engine
/// built outside the count (a serial engine cuts every batch into the same
/// four chunks, whatever its size).
std::size_t batch_allocations(const mc::ChunkSampleFn& kernel,
                              std::size_t samples, std::size_t& rows) {
    eval::EngineConfig config;
    config.parallel = false;
    config.cache_capacity = 0;
    eval::Engine engine(config);
    mc::McConfig mc_config;
    mc_config.samples = samples;
    Rng rng(7);
    return allocations_during([&] {
        const mc::McTicket ticket =
            mc::submit_monte_carlo(engine, mc_config, rng, kernel);
        rows = mc::wait_monte_carlo(engine, ticket).size();
    });
}

TEST(Allocations, SampleBatchCountDoesNotGrowWithSamples) {
    const yield::Scenario scenario = yield::make_scenario("synthetic_bimodal");
    for (bool record_u : {false, true}) {
        const mc::ChunkSampleFn kernel =
            scenario.factory(process::ProposalMixture::nominal(), record_u);
        std::size_t rows = 0;
        (void)batch_allocations(kernel, 128, rows); // first-use statics
        const std::size_t small = batch_allocations(kernel, 128, rows);
        EXPECT_EQ(rows, 128u);
        const std::size_t large = batch_allocations(kernel, 1024, rows);
        EXPECT_EQ(rows, 1024u);
        EXPECT_EQ(small, large) << "record_u " << record_u;
        // A per-sample heap object would cost at least one allocation per
        // sample; the whole batch stays well below that.
        EXPECT_LT(small, 64u) << "record_u " << record_u;
    }
}

TEST(Allocations, DrawMixtureUAllocatesNothing) {
    constexpr std::size_t kDim = 64;
    // The three proposal paths: nominal (empty and explicit), one shifted
    // and widened component, and a defensive mixture of three components.
    process::ProposalComponent shifted;
    shifted.mu.assign(kDim, 0.5);
    shifted.scale = 1.5;
    process::ProposalMixture single;
    single.components.push_back(shifted);
    process::ProposalMixture mixture = process::ProposalMixture::nominal();
    mixture.components.front().weight = 0.1;
    shifted.weight = 0.45;
    mixture.components.push_back(shifted);
    shifted.mu.assign(kDim, -0.5);
    shifted.sigma.assign(kDim, 0.9);
    mixture.components.push_back(shifted);
    const std::vector<process::ProposalMixture> proposals = {
        process::ProposalMixture{}, process::ProposalMixture::nominal(), single,
        mixture};

    std::array<double, kDim> u{};
    double log_w = 0.0;
    double sink = 0.0;
    for (const process::ProposalMixture& proposal : proposals)
        for (std::size_t dim : {std::size_t{1}, std::size_t{2}, kDim}) {
            if (dim != kDim && !proposal.components.empty() &&
                !proposal.components.back().mu.empty())
                continue; // the shifted components are kDim-dimensional
            Rng rng = Rng(11).child(dim);
            const std::size_t count = allocations_during([&] {
                for (int i = 0; i < 16; ++i) {
                    yield::draw_mixture_u(
                        rng, proposal, std::span<double>(u).first(dim), log_w);
                    sink += u[0] + log_w;
                }
            });
            EXPECT_EQ(count, 0u) << proposal.components.size()
                                 << " components, dim " << dim;
        }
    EXPECT_TRUE(std::isfinite(sink));
}

} // namespace
