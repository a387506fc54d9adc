#include "request_mix.hpp"

#include <algorithm>
#include <utility>

namespace perfbench {

using asuca::server::ScenarioSpec;

namespace {

constexpr double kRefCells = 16.0 * 16.0 * 12.0;
constexpr double kCellBand = 0.12;      ///< mesh cell count within 12%
constexpr std::size_t kRepeatGap = 8;   ///< repeat keys issued >= 8 ago
constexpr int kMaxDraws = 4000;         ///< per unique key, then give up

}  // namespace

const char* class_name(RequestClass c) {
    switch (c) {
        case RequestClass::cold: return "cold";
        case RequestClass::repeat: return "repeat";
        case RequestClass::fork: return "fork";
        case RequestClass::decomp: return "decomp";
        case RequestClass::chaos: return "chaos";
    }
    return "cold";
}

ScenarioSpec analysis_spec() {
    ScenarioSpec s;
    s.scenario = "mountain_wave";
    s.physics = true;
    s.nx = 16;
    s.ny = 16;
    s.nz = 12;
    s.steps = 3;
    return s;
}

RequestMix::RequestMix(std::uint64_t seed) : rng_(seed) {}

int RequestMix::draw(std::vector<int>& bag, const std::vector<int>& values) {
    if (bag.empty()) {
        bag = values;
        std::shuffle(bag.begin(), bag.end(), rng_);
    }
    const int v = bag.back();
    bag.pop_back();
    return v;
}

std::optional<ScenarioSpec> RequestMix::unique_spec(RequestClass cls) {
    static const std::vector<int> kHorizons = {3, 4, 5, 6, 7, 8};
    static const std::vector<int> kCoin = {0, 1};
    const auto c = static_cast<std::size_t>(cls);
    const bool decomposed =
        cls == RequestClass::decomp || cls == RequestClass::chaos;
    ScenarioSpec base =
        cls == RequestClass::fork ? analysis_spec() : ScenarioSpec{};
    base.steps = draw(horizons_[c], kHorizons);
    std::uniform_int_distribution<int> horiz(12, 20);
    std::uniform_int_distribution<int> vert(10, 14);
    const bool bubble = cls != RequestClass::fork &&
                        draw(scenarios_[c], kCoin) == 1;
    for (int attempt = 0; attempt < kMaxDraws; ++attempt) {
        ScenarioSpec s = base;
        if (cls == RequestClass::fork) {
            s.warm_start = kAnalysisKey;
            s.member = static_cast<int>(next_member_);
            s.perturb_seed = rng_();
            s.perturb_amplitude = 1.0e-3;
        } else {
            s.nx = horiz(rng_);
            s.ny = horiz(rng_);
            s.nz = vert(rng_);
            s.scenario = bubble ? "warm_bubble" : "mountain_wave";
            if (decomposed) {
                // Decomposed requests run the dry dycore on 2x2 ranks.
                s.px = 2;
                s.py = 2;
                if (s.nx % 2 != 0 || s.ny % 2 != 0) continue;
                if (cls == RequestClass::chaos) s.inject = "nan";
            } else {
                s.physics = !bubble;
            }
            const double cells = static_cast<double>(s.nx * s.ny * s.nz);
            if (cells < kRefCells * (1.0 - kCellBand) ||
                cells > kRefCells * (1.0 + kCellBand)) {
                continue;
            }
        }
        const std::string key =
            asuca::server::canonical_key(asuca::server::canonicalize(s));
        if (used_.insert(key).second) {
            if (cls == RequestClass::fork) ++next_member_;
            return s;
        }
    }
    return std::nullopt;
}

std::optional<MixRequest> RequestMix::next() {
    // Per block of 20: 10 cold, 4 repeat, 3 fork, 2 decomp, 1 chaos.
    static const std::vector<int> kBlock = [] {
        std::vector<int> b;
        for (const auto& [cls, n] :
             {std::pair{RequestClass::cold, 10}, {RequestClass::repeat, 4},
              {RequestClass::fork, 3}, {RequestClass::decomp, 2},
              {RequestClass::chaos, 1}}) {
            b.insert(b.end(), static_cast<std::size_t>(n),
                     static_cast<int>(cls));
        }
        return b;
    }();
    MixRequest r;
    r.index = index_;
    r.cls = static_cast<RequestClass>(draw(schedule_, kBlock));
    if (r.cls == RequestClass::repeat) {
        // Only keys issued at least kRepeatGap requests ago: with four
        // connections in flight they have surely reached the server, so
        // the repeat is answered by the cache, not executed.
        std::size_t eligible = 0;
        while (eligible < repeatable_index_.size() &&
               repeatable_index_[eligible] + kRepeatGap <= index_) {
            ++eligible;
        }
        if (eligible == 0) {
            r.cls = RequestClass::cold;
        } else {
            const auto pick = std::uniform_int_distribution<std::size_t>(
                0, eligible - 1)(rng_);
            r.spec = repeatable_[pick];
        }
    }
    if (r.cls != RequestClass::repeat) {
        auto spec = unique_spec(r.cls);
        if (!spec) return std::nullopt;
        r.spec = *spec;
        // Chaos keys are not repeated: a repeat must be a plain cache hit.
        if (r.cls != RequestClass::chaos) {
            repeatable_.push_back(r.spec);
            repeatable_index_.push_back(index_);
        }
    }
    ++index_;
    return r;
}

}  // namespace perfbench
