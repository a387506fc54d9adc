// FLOP calibration: run the full model with the CountingReal scalar on a
// small mesh and harvest per-kernel FLOPs-per-element from the registry.
//
// FLOPs per element of every kernel are mesh-size independent (each
// kernel does fixed work per grid point), so one small calibration run
// parameterizes the performance model for any mesh — the same way the
// paper calibrates GFlops with PAPI counts from a CPU run (Sec. IV-B).
#pragma once

#include <algorithm>
#include <vector>

#include "src/core/model.hpp"
#include "src/instrument/counting_real.hpp"
#include "src/instrument/kernel_registry.hpp"

namespace asuca {

struct CalibrationResult {
    std::vector<KernelRecord> records;  ///< one long step, per kernel
    double flops_per_step_per_element = 0;  ///< aggregate over all kernels
    Int3 mesh;                          ///< calibration mesh
};

namespace detail {

/// FLOPs one call of `f` retires on the calling thread.
template <class F>
std::uint64_t counted_flops(F&& f) {
    const std::uint64_t before = FlopCounter::value();
    f();
    return FlopCounter::value() - before;
}

/// The host sweep finishes its columns inside `helmholtz_1d`, but the GPU
/// program the models describe launches the paper's three post-solve
/// updates as kernels of their own. Split them back out: each keeps the
/// sweep's calls and elements, and its FLOPs (one counted cell per
/// element) leave the sweep's count. Records stay sorted by name, the
/// registry's order, so every sum over them runs in the same order.
inline void split_implicit_updates(std::vector<KernelRecord>& records) {
    const auto sweep = std::find_if(
        records.begin(), records.end(),
        [](const KernelRecord& r) { return r.name == "helmholtz_1d"; });
    if (sweep == records.end()) return;
    const auto at = static_cast<std::size_t>(sweep - records.begin());
    const CountedDouble x(1.0);
    namespace u = implicit_update;
    const struct {
        const char* name;
        KernelTraits traits;
        std::uint64_t flops_per_element;
    } updates[] = {
        {"continuity_update", u::continuity_traits,
         counted_flops([&] { (void)u::continuity(x, x, x, x); })},
        {"theta_update", u::theta_traits,
         counted_flops([&] { (void)u::theta(x, x, x, x, x, x); })},
        {"pressure_update", u::pressure_traits,
         counted_flops([&] { (void)u::pressure(x, x); })},
    };
    for (const auto& k : updates) {
        KernelRecord rec;
        rec.name = k.name;
        rec.traits = k.traits;
        rec.calls = records[at].calls;
        rec.elements = records[at].elements;
        rec.flops = k.flops_per_element * rec.elements;
        records[at].flops -= rec.flops;
        records.push_back(std::move(rec));
    }
    std::sort(records.begin(), records.end(),
              [](const KernelRecord& a, const KernelRecord& b) {
                  return a.name < b.name;
              });
}

}  // namespace detail

/// Run `steps` long steps of the instrumented model described by `cfg`
/// (grid sizes inside are overridden by `mesh`) and return per-kernel
/// records averaged per step.
inline CalibrationResult calibrate_flops(ModelConfig<CountedDouble> cfg,
                                         Int3 mesh, int steps = 1) {
    cfg.grid.nx = mesh.x;
    cfg.grid.ny = mesh.y;
    cfg.grid.nz = mesh.z;

    KernelRegistry::global().reset();
    FlopCounter::reset();

    AsucaModel<CountedDouble> model(cfg);
    model.initialize(AtmosphereProfile::constant_n(300.0, 0.01), 10.0, 0.0);
    if (cfg.species.contains(Species::Vapor)) {
        set_relative_humidity(
            model.grid(), [](double z) { return z < 2000.0 ? 0.6 : 0.2; },
            model.state());
        model.stepper().apply_state_bcs(model.state());
    }
    KernelRegistry::global().reset();  // drop initialization kernels
    model.run(steps);

    CalibrationResult out;
    out.mesh = mesh;
    out.records = KernelRegistry::global().records();
    detail::split_implicit_updates(out.records);
    double total_flops = 0;
    for (auto& rec : out.records) {
        // Average over the calibration steps so records describe ONE step.
        rec.calls /= static_cast<std::uint64_t>(steps);
        rec.elements /= static_cast<std::uint64_t>(steps);
        rec.flops /= static_cast<std::uint64_t>(steps);
        rec.seconds /= steps;
        total_flops += static_cast<double>(rec.flops);
    }
    out.flops_per_step_per_element =
        total_flops / static_cast<double>(mesh.volume());
    return out;
}

/// Default model configuration used for calibration and the paper
/// benchmarks: mountain-wave setup with warm-rain physics enabled
/// ("all kernels, including physics processes, are carried out").
inline ModelConfig<CountedDouble> benchmark_model_config() {
    ModelConfig<CountedDouble> cfg;
    cfg.grid.dx = 1000.0;
    cfg.grid.dy = 1000.0;
    cfg.grid.ztop = 12000.0;
    cfg.grid.terrain = bell_ridge(400.0, 4000.0, 16000.0);
    cfg.stepper.dt = 5.0;  // the paper's mountain-wave time step
    // Production-like acoustic CFL: dt=5 s at dx=1 km needs ~12 short
    // steps (c_s * dtau < dx); this also reproduces the paper's Fig. 11
    // per-step communication volumes.
    cfg.stepper.n_short_steps = 12;
    cfg.stepper.diffusion.kh = 20.0;
    cfg.stepper.diffusion.kv = 2.0;
    cfg.stepper.sponge.z_start = 9000.0;
    cfg.species = SpeciesSet::warm_rain();
    cfg.microphysics = true;
    return cfg;
}

}  // namespace asuca
