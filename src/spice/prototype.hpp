#pragma once
/// \file prototype.hpp
/// \brief Reusable circuit prototype for batch evaluation.
///
/// The hot path of every batch workload (GA populations, Monte Carlo,
/// verification) evaluates the *same testbench topology* at many
/// parameter/process points. Rebuilding the Circuit per point - node name
/// maps, device allocations, finalisation - plus re-allocating the MNA
/// factorisation workspace per analysis is pure overhead: the structure
/// never changes within a chunk.
///
/// CircuitPrototype is built once per chunk from the testbench topology and
/// precomputes everything structural: the finalised node index map, the
/// typed device parameter slots (MOSFET list for process re-binding, named
/// device lookup for sizing re-binding), and - through its Instance view -
/// the MNA stamp pattern and factorisation workspaces of the DC and AC
/// analyses. Re-binding a new point mutates device parameters in place and
/// re-stamps numerics without reallocating structure; results are
/// bit-identical to building a fresh circuit at the same point (same device
/// order, same stamp values, same solver trajectory).
///
/// Instances are cheap but stateful: one Instance (and one prototype) per
/// thread. The engine's chunk kernels construct one per chunk.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

#include "process/sampler.hpp"
#include "spice/analysis/ac_sweep.hpp"
#include "spice/analysis/dc.hpp"
#include "spice/circuit.hpp"
#include "spice/devices/mosfet.hpp"
#include "util/error.hpp"

namespace ypm::spice {

class CircuitPrototype {
public:
    /// Take ownership of a built testbench, finalise it and cache the
    /// structural slots (node ids, MOSFET list).
    explicit CircuitPrototype(Circuit circuit);

    [[nodiscard]] Circuit& circuit() { return circuit_; }
    [[nodiscard]] const Circuit& circuit() const { return circuit_; }

    /// Precomputed node lookup. \throws ypm::InvalidInputError if absent.
    [[nodiscard]] NodeId node(const std::string& name) const;

    /// Every MOSFET in device order (the process re-binding slots).
    [[nodiscard]] const std::vector<Mosfet*>& mosfets() const { return mosfets_; }

    /// Geometry inventory reflecting the *currently bound* sizing (mismatch
    /// sigmas scale with 1/sqrt(WL), so sample after binding the sizing).
    [[nodiscard]] std::vector<process::MosGeometry> mos_geometries() const {
        return circuit_.mos_geometries();
    }

    /// Typed device parameter slot. \throws ypm::InvalidInputError when the
    /// device is absent or of the wrong type.
    template <typename D>
    [[nodiscard]] D& device(const std::string& name) {
        auto* dev = dynamic_cast<D*>(circuit_.find_device(name));
        if (dev == nullptr)
            throw InvalidInputError("CircuitPrototype: no device '" + name +
                                    "' of the requested type");
        return *dev;
    }

    /// Re-bind a process realisation onto the cached MOSFET slots; nullptr
    /// restores the nominal process (all deltas zero), matching a freshly
    /// built circuit.
    void bind_process(const process::Realization* realization);

    /// A per-thread evaluation view over the prototype: re-binds points and
    /// runs the analyses through reused factorisation workspaces.
    class Instance {
    public:
        explicit Instance(CircuitPrototype& prototype) : proto_(&prototype) {}

        [[nodiscard]] CircuitPrototype& prototype() { return *proto_; }

        void bind_process(const process::Realization* realization) {
            proto_->bind_process(realization);
        }

        /// Cold-start DC operating point; bit-identical to
        /// DcSolver(options).solve(circuit) on a fresh build.
        [[nodiscard]] DcResult solve_op(const DcOptions& options = {}) {
            const DcSolver solver(options);
            return solver.solve(proto_->circuit(), dc_ws_);
        }

        /// AC transfer sweep h[i] = V(out)/V(in) through the instance's
        /// sweep workspace; bit-identical to a fresh build's sweep.
        [[nodiscard]] std::vector<std::complex<double>>
        ac_transfer(const Solution& op, const std::vector<double>& freqs,
                    NodeId out, NodeId in, SweepStop stop = nullptr) {
            return ac_sweep_transfer(proto_->circuit(), op, freqs, out, in,
                                     ac_ws_, stop);
        }

    private:
        CircuitPrototype* proto_;
        DcWorkspace dc_ws_;
        AcSweepWorkspace ac_ws_;
    };

    [[nodiscard]] Instance instance() { return Instance(*this); }

private:
    Circuit circuit_;
    std::vector<Mosfet*> mosfets_;
};

/// Persistent pool of warm prototype objects, keyed by testbench
/// configuration.
///
/// Chunk kernels used to build their prototype (a CircuitPrototype wrapper
/// such as circuits::OtaPrototype / FilterPrototype) from scratch on every
/// evaluate_batch call - node maps, device allocations, finalisation and
/// workspace growth repeated per chunk. The pool keeps instances alive
/// across calls instead: acquire() hands out a warm instance (or builds one
/// through the factory on first use), and the returned Lease gives it back
/// on destruction. Because prototypes fully re-bind sizing and process per
/// point, a warm instance is bit-identical to a cold one - asserted by
/// tests/test_prototype.cpp.
///
/// Thread-safe: chunk kernels running concurrently on the pool each lease
/// their own instance; the peak number of live instances equals the peak
/// kernel concurrency. The `key` discriminates testbench configurations
/// that need structurally different circuits behind one pool (e.g. the
/// filter's OtaModelKind); callers with a single configuration use the
/// default key.
/// PrototypePool instruments, shared across instantiations: warm leases vs
/// cold factory builds (steady-state chunk traffic should be all-warm).
inline obs::Counter& prototype_warm_leases() {
    static obs::Counter& counter =
        obs::MetricsRegistry::global().counter("proto_pool.warm_leases");
    return counter;
}
inline obs::Counter& prototype_cold_builds() {
    static obs::Counter& counter =
        obs::MetricsRegistry::global().counter("proto_pool.cold_builds");
    return counter;
}

template <typename P>
class PrototypePool {
    /// The poolable state, co-owned by the pool and every outstanding
    /// Lease: async chunk kernels may hold a lease past the lifetime of
    /// whatever owned the pool (an evaluator being destroyed or assigned a
    /// fresh pool), and returning the instance must then still be safe.
    struct Core {
        mutable util::Mutex mutex;
        std::size_t created YPM_GUARDED_BY(mutex) = 0;
        std::unordered_map<std::uint64_t, std::vector<std::unique_ptr<P>>> idle
            YPM_GUARDED_BY(mutex);
    };

public:
    /// Builds a cold prototype for a configuration key.
    using Factory = std::function<std::unique_ptr<P>(std::uint64_t key)>;

    explicit PrototypePool(Factory factory)
        : factory_(std::move(factory)), core_(std::make_shared<Core>()) {}

    PrototypePool(const PrototypePool&) = delete;
    PrototypePool& operator=(const PrototypePool&) = delete;

    /// Scoped ownership of one pooled prototype; returns it warm on
    /// destruction (into the core, which it keeps alive - a lease may
    /// safely outlive the pool object itself).
    class Lease {
    public:
        Lease(Lease&&) noexcept = default;
        Lease& operator=(Lease&&) = delete;
        Lease(const Lease&) = delete;
        Lease& operator=(const Lease&) = delete;

        ~Lease() {
            if (core_ != nullptr && proto_ != nullptr) {
                // Destructors must not throw: if growing the idle bucket
                // fails (bad_alloc), drop the instance instead - the pool
                // rebuilds it cold on the next acquire().
                try {
                    const util::MutexLock lock(core_->mutex);
                    core_->idle[key_].push_back(std::move(proto_));
                } catch (...) {
                    // proto_ freed by unique_ptr; nothing else to unwind.
                }
            }
        }

        [[nodiscard]] P& operator*() const { return *proto_; }
        [[nodiscard]] P* operator->() const { return proto_.get(); }

    private:
        friend class PrototypePool;
        Lease(std::shared_ptr<Core> core, std::uint64_t key,
              std::unique_ptr<P> proto)
            : core_(std::move(core)), key_(key), proto_(std::move(proto)) {}

        std::shared_ptr<Core> core_;
        std::uint64_t key_;
        std::unique_ptr<P> proto_;
    };

    /// Lease a prototype for `key`: a warm instance when one is idle, a
    /// fresh factory build otherwise (built outside the pool lock, so slow
    /// cold builds do not serialise concurrent kernels).
    [[nodiscard]] Lease acquire(std::uint64_t key = 0) {
        {
            const util::MutexLock lock(core_->mutex);
            auto it = core_->idle.find(key);
            if (it != core_->idle.end() && !it->second.empty()) {
                std::unique_ptr<P> warm = std::move(it->second.back());
                it->second.pop_back();
                prototype_warm_leases().add();
                return Lease(core_, key, std::move(warm));
            }
            ++core_->created;
        }
        prototype_cold_builds().add();
        return Lease(core_, key, factory_(key));
    }

    /// Total cold builds so far (reuse diagnostics: steady-state chunk
    /// traffic should stop growing this).
    [[nodiscard]] std::size_t created() const {
        const util::MutexLock lock(core_->mutex);
        return core_->created;
    }

    /// Warm instances currently idle across all keys.
    [[nodiscard]] std::size_t idle() const {
        const util::MutexLock lock(core_->mutex);
        std::size_t n = 0;
        for (const auto& [key, bucket] : core_->idle) n += bucket.size();
        return n;
    }

private:
    Factory factory_;
    std::shared_ptr<Core> core_;
};

} // namespace ypm::spice
