#pragma once
/// \file cache.hpp
/// \brief LRU memoisation cache for point evaluations.
///
/// Keys are bit-exact: the parameter vector's double bit patterns and a
/// salt (the batch tag) are hashed together, so a hit can only occur for a
/// request that is guaranteed to reproduce the cached values. Only
/// design-point batches are cached, and they always run at the nominal
/// process, so the key carries no process component (Monte Carlo samples
/// travel in sample batches and are never cached). Typical wins: GA elites
/// re-entering the population every generation, verification of front
/// points the optimiser already evaluated.

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace ypm::eval {

/// Composite cache key, compared bit-exactly.
struct CacheKey {
    std::vector<double> params;
    std::uint64_t salt = 0;

    [[nodiscard]] bool operator==(const CacheKey& other) const;
};

/// FNV-1a over the double bit patterns plus the salt.
struct CacheKeyHash {
    [[nodiscard]] std::size_t operator()(const CacheKey& key) const;
};

/// Fixed-capacity least-recently-used map from CacheKey to a value vector.
///
/// Thread-safe: every operation takes an internal mutex. The engine
/// already serialises its own lookup/insert traffic under its state lock
/// (submission-order determinism needs that anyway); the cache's mutex
/// covers what that lock does not - size() calls from other threads
/// while batches are in flight - and keeps the class safe
/// standalone. find() returns a *copy* of the values rather than the old
/// interior pointer, which an insert could invalidate after the lookup.
class LruCache {
public:
    /// \param capacity maximum entry count; 0 disables the cache entirely.
    explicit LruCache(std::size_t capacity);

    /// Returns a copy of the cached values and marks the entry
    /// most-recently-used, or nullopt on a miss.
    [[nodiscard]] std::optional<std::vector<double>> find(const CacheKey& key);

    /// Insert (or refresh) an entry. A refresh replaces the stored values,
    /// moves the entry to the MRU front and never changes size(); a fresh
    /// insert at capacity evicts the least-recently-used entry first, so
    /// size() never exceeds capacity(). No-op when capacity is 0.
    void insert(CacheKey key, std::vector<double> values);

    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] std::size_t capacity() const { return capacity_; }

private:
    using Entry = std::pair<CacheKey, std::vector<double>>;

    const std::size_t capacity_;
    mutable util::Mutex mutex_;
    /// Most-recently-used at the front.
    std::list<Entry> order_ YPM_GUARDED_BY(mutex_);
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash> map_
        YPM_GUARDED_BY(mutex_);
};

} // namespace ypm::eval
