#pragma once
/// \file bench_common.hpp
/// \brief Shared experiment plumbing for the per-table/figure bench
///        binaries: a cached paper-scale flow run (WBGA 100x100 + per-point
///        Monte Carlo) so the E2/E3/E4/E6 binaries do not redo the same
///        work, plus small formatting helpers.
///
/// Environment knobs:
///   YPM_BENCH_POP        population size          (default 100, paper value)
///   YPM_BENCH_GENS       generations              (default 100, paper value)
///   YPM_BENCH_MC         MC samples per point     (default 200, paper value)
///   YPM_BENCH_MC_POINTS  front points given MC    (default 200; 0 = all,
///                        the paper runs all ~1022 - slower)
///   YPM_BENCH_DIR        artifact cache directory (default ypm_bench_artifacts)
///
/// The cache is keyed: a flow run writes cache_key.txt (the knobs above and
/// the seed) next to its artifacts, and a cache whose key differs from the
/// current knobs is rebuilt, never reused.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/behav_model.hpp"
#include "core/flow.hpp"
#include "eval/engine.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace ypm::benchx {

inline std::size_t env_size(const char* name, std::size_t fallback) {
    // Read before any bench thread starts; nothing in the process calls
    // setenv, so the getenv race clang-tidy guards against cannot occur.
    const char* v = std::getenv(name); // NOLINT(concurrency-mt-unsafe)
    if (v == nullptr || *v == '\0') return fallback;
    return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

inline std::string artifact_dir() {
    // Same single-threaded startup context as env_size above.
    const char* v = std::getenv("YPM_BENCH_DIR"); // NOLINT(concurrency-mt-unsafe)
    return v != nullptr && *v != '\0' ? v : "ypm_bench_artifacts";
}

inline core::FlowConfig paper_flow_config() {
    core::FlowConfig cfg;
    cfg.ga.population = env_size("YPM_BENCH_POP", 100);
    cfg.ga.generations = env_size("YPM_BENCH_GENS", 100);
    cfg.mc_samples = env_size("YPM_BENCH_MC", 200);
    cfg.max_mc_points = env_size("YPM_BENCH_MC_POINTS", 200);
    cfg.seed = 2008; // DATE'08
    cfg.artifact_dir = artifact_dir();
    return cfg;
}

/// Artifact paths as written by a previous bench run in this directory.
inline core::ModelArtifacts cached_artifacts() {
    namespace fs = std::filesystem;
    const std::string dir = artifact_dir();
    core::ModelArtifacts art;
    art.dir = dir;
    art.gain_delta_tbl = (fs::path(dir) / "gain_delta.tbl").string();
    art.pm_delta_tbl = (fs::path(dir) / "pm_delta.tbl").string();
    for (int i = 1; i <= 8; ++i)
        art.param_tbls.push_back(
            (fs::path(dir) / ("lp" + std::to_string(i) + "_data.tbl")).string());
    art.f3db_tbl = (fs::path(dir) / "lp_f3db.tbl").string();
    art.front_csv = (fs::path(dir) / "pareto_front.csv").string();
    art.va_module = (fs::path(dir) / "ota_yield_model.va").string();
    return art;
}

/// The settings behind a flow run's artifacts, as one line.
inline std::string cache_key(const core::FlowConfig& cfg) {
    return "pop=" + std::to_string(cfg.ga.population) +
           " gens=" + std::to_string(cfg.ga.generations) +
           " mc=" + std::to_string(cfg.mc_samples) +
           " mc_points=" + std::to_string(cfg.max_mc_points) +
           " seed=" + std::to_string(cfg.seed);
}

inline std::filesystem::path cache_key_path() {
    return std::filesystem::path(artifact_dir()) / "cache_key.txt";
}

/// True when artifact_dir() holds artifacts built with the current knobs;
/// otherwise `why` says what is missing or stale.
inline bool artifacts_present(std::string& why) {
    const auto art = cached_artifacts();
    if (!std::filesystem::exists(art.gain_delta_tbl) ||
        !std::filesystem::exists(art.f3db_tbl) ||
        !std::filesystem::exists(art.param_tbls.back())) {
        why = "no cached artifacts";
        return false;
    }
    std::ifstream in(cache_key_path());
    std::string key;
    if (!std::getline(in, key)) {
        why = "cached artifacts without a cache key";
        return false;
    }
    const std::string want = cache_key(paper_flow_config());
    if (key != want) {
        why = "cached artifacts were built with " + key + ", not " + want;
        return false;
    }
    return true;
}

/// Run the flow with paper_flow_config(), refreshing the artifact cache and
/// its key. The old key goes first, so artifacts a failed run left half
/// written are never taken for a match.
inline core::FlowResult run_paper_flow() {
    const core::FlowConfig cfg = paper_flow_config();
    std::filesystem::remove(cache_key_path());
    const core::YieldFlow flow(circuits::OtaConfig{}, cfg);
    core::FlowResult result = flow.run();
    // A flow with too few front points writes no artifacts; leave the
    // cache keyless then, so older artifacts are not taken for these.
    if (!result.artifacts.gain_delta_tbl.empty())
        std::ofstream(cache_key_path()) << cache_key(cfg) << '\n';
    return result;
}

/// Load the MC-enriched front from cache, or run the full flow (and cache).
inline std::vector<core::FrontPointData> load_or_build_front() {
    std::string why;
    if (artifacts_present(why)) {
        log::info("bench: reusing cached artifacts in ", artifact_dir());
        return core::read_front_from_artifacts(cached_artifacts());
    }
    log::warn("bench: ", why, " in ", artifact_dir(),
              " - running the full flow (WBGA + MC)");
    return run_paper_flow().front;
}

inline std::string fmt2(double v) { return str::fmt_fixed(v, 2); }
inline std::string fmt3(double v) { return str::fmt_fixed(v, 3); }

/// One-line summary of an engine ledger for the CPU-time tables:
/// "requests (kernel evaluations, cache hits, failures)".
inline std::string fmt_counters(const eval::EngineCounters& c) {
    return std::to_string(c.requests) + " (" + std::to_string(c.evaluations) +
           " evaluated, " + std::to_string(c.cache_hits) + " cached, " +
           std::to_string(c.failures) + " failed)";
}

} // namespace ypm::benchx
