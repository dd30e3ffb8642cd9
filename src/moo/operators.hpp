#pragma once
/// \file operators.hpp
/// \brief The one genetic operator set on GA strings (paper section 3.2:
///        "crossover, mutation and selection from one generation to
///        another"): tournament selection, BLX-0.5 crossover and Gaussian
///        creep mutation, and the breeding loop WBGA and NSGA-II share.

#include <cstddef>
#include <functional>
#include <vector>

#include "moo/ga_string.hpp"
#include "util/rng.hpp"

namespace ypm::moo {

/// Tournament selection: pick `tournament` random indices, return the one
/// with the highest fitness. fitness.size() defines the population.
[[nodiscard]] std::size_t select_tournament(const std::vector<double>& fitness,
                                            std::size_t tournament, Rng& rng);

/// BLX-0.5 arithmetic blend (real-coded GA): each child gene is drawn
/// uniformly from the parents' interval, extended by half its span on each
/// side, then clamped to [0, 1]. Parents must share the same layout.
void crossover(const GaString& pa, const GaString& pb, GaString& child_a,
               GaString& child_b, Rng& rng);

/// Gaussian creep in place: with probability `rate` per gene, add
/// N(0, sigma) and clamp to [0, 1].
void mutate(GaString& s, double rate, double sigma, Rng& rng);

/// Append children to `next` until it holds `size` strings. Each pair draws
/// two parents with `pick()`, crosses them with probability 0.9 (copies
/// them otherwise) and mutates each kept child at rate 1/genes with sigma
/// 0.08. The second child of the last pair is dropped when `next` is full.
void breed(const std::vector<GaString>& parents,
           const std::function<std::size_t()>& pick, std::size_t size,
           std::vector<GaString>& next, Rng& rng);

} // namespace ypm::moo
