#include "eval/cache.hpp"

#include <cstring>

#include "obs/metrics.hpp"

namespace ypm::eval {

namespace {

/// Cache instruments, resolved once; always-on (two relaxed atomic bumps
/// and one gauge store per lookup).
struct CacheMetrics {
    obs::Counter& lookups;
    obs::Counter& hits;
    obs::Gauge& hit_rate;

    static CacheMetrics& get() {
        auto& registry = obs::MetricsRegistry::global();
        static CacheMetrics metrics{registry.counter("cache.lookups"),
                                    registry.counter("cache.hits"),
                                    registry.gauge("cache.hit_rate")};
        return metrics;
    }
};

} // namespace

bool CacheKey::operator==(const CacheKey& other) const {
    if (salt != other.salt) return false;
    if (params.size() != other.params.size()) return false;
    // Bit-exact comparison: distinguishes -0.0 from 0.0 and never equates
    // NaNs away, which is what a memoisation key needs.
    return params.empty() ||
           std::memcmp(params.data(), other.params.data(),
                       params.size() * sizeof(double)) == 0;
}

std::size_t CacheKeyHash::operator()(const CacheKey& key) const {
    std::uint64_t h = 0xcbf29ce484222325ull; // FNV offset basis
    auto mix = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xffull;
            h *= 0x100000001b3ull; // FNV prime
        }
    };
    for (double p : key.params) {
        std::uint64_t bits;
        std::memcpy(&bits, &p, sizeof(bits));
        mix(bits);
    }
    mix(key.salt);
    return static_cast<std::size_t>(h);
}

LruCache::LruCache(std::size_t capacity) : capacity_(capacity) {}

std::optional<std::vector<double>> LruCache::find(const CacheKey& key) {
    CacheMetrics& metrics = CacheMetrics::get();
    metrics.lookups.add();
    const util::MutexLock lock(mutex_);
    const auto it = map_.find(key);
    const bool hit = it != map_.end();
    if (hit) metrics.hits.add();
    metrics.hit_rate.set(static_cast<double>(metrics.hits.value()) /
                         static_cast<double>(metrics.lookups.value()));
    if (!hit) return std::nullopt;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
}

void LruCache::insert(CacheKey key, std::vector<double> values) {
    if (capacity_ == 0) return;
    const util::MutexLock lock(mutex_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
        // Refresh: replace in place and promote to MRU; size() unchanged.
        it->second->second = std::move(values);
        order_.splice(order_.begin(), order_, it->second);
        return;
    }
    if (map_.size() >= capacity_) {
        map_.erase(order_.back().first);
        order_.pop_back();
    }
    order_.emplace_front(std::move(key), std::move(values));
    map_.emplace(order_.front().first, order_.begin());
}

std::size_t LruCache::size() const {
    const util::MutexLock lock(mutex_);
    return map_.size();
}

} // namespace ypm::eval
