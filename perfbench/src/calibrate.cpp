// FLOPs per element of each kernel, counted by the CountingReal
// instantiation of the model on a small mesh (its own translation unit:
// the counted scalar type is the slowest part of the build).
#include "bench.hpp"
#include "src/instrument/calibration.hpp"

namespace perfbench {

std::map<std::string, double> calibrated_flops_per_element(bool physics) {
    auto cfg = asuca::benchmark_model_config();
    if (!physics) {
        cfg.microphysics = false;
        cfg.species = asuca::SpeciesSet::dry();
    }
    const auto cal = asuca::calibrate_flops(cfg, {16, 12, 12});
    std::map<std::string, double> out;
    for (const auto& r : cal.records) out[r.name] = r.flops_per_element();
    return out;
}

}  // namespace perfbench
