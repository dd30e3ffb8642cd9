#include "moo/pareto.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/error.hpp"

namespace ypm::moo {

namespace {

/// Map a raw objective to "larger is better" sign convention.
double oriented(double v, Direction d) {
    return d == Direction::maximize ? v : -v;
}

} // namespace

bool dominates(const std::vector<double>& a, const std::vector<double>& b,
               const std::vector<ObjectiveSpec>& specs) {
    if (a.size() != specs.size() || b.size() != specs.size())
        throw InvalidInputError("dominates: objective arity mismatch");
    if (evaluation_failed(a)) return false;
    if (evaluation_failed(b)) return true; // valid point dominates a failed one
    bool strictly_better = false;
    for (std::size_t m = 0; m < specs.size(); ++m) {
        const double av = oriented(a[m], specs[m].dir);
        const double bv = oriented(b[m], specs[m].dir);
        if (av < bv) return false;
        if (av > bv) strictly_better = true;
    }
    return strictly_better;
}

std::vector<std::size_t>
pareto_front_indices_2d(const std::vector<std::vector<double>>& objectives,
                        const std::vector<ObjectiveSpec>& specs) {
    if (specs.size() != 2)
        throw InvalidInputError("pareto_front_indices_2d: exactly 2 objectives required");

    std::vector<std::size_t> order;
    order.reserve(objectives.size());
    for (std::size_t i = 0; i < objectives.size(); ++i)
        if (!evaluation_failed(objectives[i])) order.push_back(i);

    // Sort by the first oriented objective descending, tie-break second
    // descending; then one scan keeps points with strictly improving second
    // objective. Duplicate objective vectors: the first sorted instance is
    // kept (matches the naive filter's treatment of strict dominance).
    auto key0 = [&](std::size_t i) { return oriented(objectives[i][0], specs[0].dir); };
    auto key1 = [&](std::size_t i) { return oriented(objectives[i][1], specs[1].dir); };
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        if (key0(a) != key0(b)) return key0(a) > key0(b);
        if (key1(a) != key1(b)) return key1(a) > key1(b);
        return a < b;
    });

    std::vector<std::size_t> front;
    double best1 = -std::numeric_limits<double>::infinity();
    double last_kept0 = std::numeric_limits<double>::quiet_NaN();
    double last_kept1 = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t idx : order) {
        const double k0 = key0(idx);
        const double k1 = key1(idx);
        // Keep if strictly better in the second objective than everything
        // seen so far, or an exact duplicate of the last kept point (equal
        // vectors never dominate each other, matching the naive filter).
        if (k1 > best1 || (k0 == last_kept0 && k1 == last_kept1)) {
            front.push_back(idx);
            best1 = std::max(best1, k1);
            last_kept0 = k0;
            last_kept1 = k1;
        }
    }
    std::sort(front.begin(), front.end());
    return front;
}

std::vector<std::vector<std::size_t>>
non_dominated_sort(const std::vector<std::vector<double>>& objectives,
                   const std::vector<ObjectiveSpec>& specs) {
    const std::size_t n = objectives.size();
    std::vector<std::size_t> domination_count(n, 0);
    std::vector<std::vector<std::size_t>> dominated_by(n);
    std::vector<std::vector<std::size_t>> fronts(1);

    for (std::size_t p = 0; p < n; ++p) {
        for (std::size_t q = 0; q < n; ++q) {
            if (p == q) continue;
            if (dominates(objectives[p], objectives[q], specs))
                dominated_by[p].push_back(q);
            else if (dominates(objectives[q], objectives[p], specs))
                ++domination_count[p];
        }
        if (domination_count[p] == 0) fronts[0].push_back(p);
    }

    std::size_t current = 0;
    while (!fronts[current].empty()) {
        std::vector<std::size_t> next;
        for (std::size_t p : fronts[current]) {
            for (std::size_t q : dominated_by[p]) {
                if (--domination_count[q] == 0) next.push_back(q);
            }
        }
        ++current;
        fronts.push_back(std::move(next));
    }
    fronts.pop_back(); // drop the trailing empty front
    return fronts;
}

std::vector<double>
crowding_distance(const std::vector<std::vector<double>>& objectives,
                  const std::vector<std::size_t>& subset,
                  const std::vector<ObjectiveSpec>& specs) {
    const std::size_t n = subset.size();
    std::vector<double> dist(n, 0.0);
    if (n <= 2) {
        std::fill(dist.begin(), dist.end(), std::numeric_limits<double>::infinity());
        return dist;
    }
    std::vector<std::size_t> order(n);
    for (std::size_t m = 0; m < specs.size(); ++m) {
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
            return objectives[subset[a]][m] < objectives[subset[b]][m];
        });
        const double lo = objectives[subset[order.front()]][m];
        const double hi = objectives[subset[order.back()]][m];
        dist[order.front()] = std::numeric_limits<double>::infinity();
        dist[order.back()] = std::numeric_limits<double>::infinity();
        const double span = hi - lo;
        if (span <= 0.0) continue;
        for (std::size_t k = 1; k + 1 < n; ++k) {
            const double gap = objectives[subset[order[k + 1]]][m] -
                               objectives[subset[order[k - 1]]][m];
            dist[order[k]] += gap / span;
        }
    }
    return dist;
}

double hypervolume_2d(const std::vector<std::vector<double>>& front,
                      const std::vector<double>& reference,
                      const std::vector<ObjectiveSpec>& specs) {
    if (specs.size() != 2 || reference.size() != 2)
        throw InvalidInputError("hypervolume_2d: exactly 2 objectives required");
    if (front.empty()) return 0.0;

    // Orient everything to maximise, reference at the bottom-left.
    struct Pt { double x, y; };
    std::vector<Pt> pts;
    pts.reserve(front.size());
    const double rx = oriented(reference[0], specs[0].dir);
    const double ry = oriented(reference[1], specs[1].dir);
    for (const auto& f : front) {
        if (evaluation_failed(f)) continue;
        const double x = oriented(f[0], specs[0].dir);
        const double y = oriented(f[1], specs[1].dir);
        if (x > rx && y > ry) pts.push_back({x, y});
    }
    if (pts.empty()) return 0.0;
    std::sort(pts.begin(), pts.end(), [](const Pt& a, const Pt& b) {
        if (a.x != b.x) return a.x > b.x;
        return a.y > b.y;
    });
    double area = 0.0;
    double prev_y = ry;
    for (const auto& p : pts) {
        if (p.y > prev_y) {
            area += (p.x - rx) * (p.y - prev_y);
            prev_y = p.y;
        }
    }
    return area;
}

} // namespace ypm::moo
