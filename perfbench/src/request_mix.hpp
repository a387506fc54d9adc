// The seeded request generator of the serve_mixed workload.
//
// A request's class fixes which server layers it exercises:
//   cold    unique single-domain warm_bubble / mountain_wave+physics
//           forecasts: executed by a worker, bypassing cache and store;
//   repeat  an earlier key of the same run: answered by the result cache;
//   fork    an ensemble member forked from the "analysis" checkpoint put
//           in the store at setup: store read + perturbation + execution;
//   decomp  a unique 2x2 lockstep (overlap none) decomposed forecast;
//   chaos   a unique 2x2 forecast with an injected NaN: the guarded path
//           (snapshots, watchdog, rollback and replay).
//
// Keys must stay unique within a run (the server caches every completed
// key), and the only cost-neutral key field of a cold request is its
// mesh, so cold/decomp/chaos meshes vary around 16x16x12 (within 12% of
// its cell count) and horizons vary from 3 to 8 steps. Forks keep the
// analysis mesh (16x16x12) and are unique by member seed.
//
// Class shares, horizons and scenarios are drawn from seeded bags rather
// than independently, so every seed offers the same mix of work and the
// seed moves only which meshes and keys carry it.
#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/server/scenario.hpp"

namespace perfbench {

enum class RequestClass { cold, repeat, fork, decomp, chaos };
inline constexpr int kRequestClasses = 5;

const char* class_name(RequestClass c);

struct MixRequest {
    std::size_t index = 0;
    RequestClass cls = RequestClass::cold;
    asuca::server::ScenarioSpec spec;
};

/// The analysis checkpoint fork requests warm-start from: the spec whose
/// state the workload integrates and puts in the store at setup.
asuca::server::ScenarioSpec analysis_spec();
inline const char* kAnalysisKey = "analysis";

class RequestMix {
  public:
    explicit RequestMix(std::uint64_t seed);

    /// The next request of the sequence; nullopt once the unique-key
    /// pools are exhausted. The sequence depends only on the seed.
    std::optional<MixRequest> next();

  private:
    std::optional<asuca::server::ScenarioSpec> unique_spec(
        RequestClass cls);
    /// Draw from a seeded bag holding each of `values` once, refilled and
    /// reshuffled when empty: exact shares over every len(values) draws.
    int draw(std::vector<int>& bag, const std::vector<int>& values);

    std::mt19937_64 rng_;
    std::size_t index_ = 0;
    std::vector<int> schedule_;  ///< class bag, one block of 20
    std::vector<int> horizons_[kRequestClasses];
    std::vector<int> scenarios_[kRequestClasses];
    std::uint64_t next_member_ = 0;
    std::set<std::string> used_;  ///< canonical keys issued so far
    std::vector<asuca::server::ScenarioSpec> repeatable_;  ///< by index
    std::vector<std::size_t> repeatable_index_;
};

}  // namespace perfbench
