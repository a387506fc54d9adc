// Tests for the FLOP-counting scalar, kernel registry and calibration —
// the reproduction's PAPI substitute.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/instrument/calibration.hpp"
#include "src/instrument/counting_real.hpp"
#include "src/instrument/kernel_registry.hpp"

namespace asuca {
namespace {

TEST(CountingReal, CountsBasicArithmetic) {
    FlopCounter::reset();
    CountedDouble a(2.0), b(3.0);
    CountedDouble c = a + b;   // 1
    c = c * a;                 // 1
    c = c - b;                 // 1
    c = c / a;                 // 1
    c += a;                    // 1
    EXPECT_EQ(FlopCounter::value(), 5u);
    EXPECT_DOUBLE_EQ(static_cast<double>(c), 5.5);
}

TEST(CountingReal, TranscendentalsUseWeights) {
    FlopCounter::reset();
    CountedDouble x(2.0);
    auto y = exp(x);
    EXPECT_EQ(FlopCounter::value(), flop_weights::exp_w);
    FlopCounter::reset();
    y = pow(x, CountedDouble(0.875));
    EXPECT_EQ(FlopCounter::value(), flop_weights::pow_w);
    FlopCounter::reset();
    y = sqrt(x);
    EXPECT_EQ(FlopCounter::value(), flop_weights::sqrt_w);
    (void)y;
}

TEST(CountingReal, ResultsMatchDouble) {
    // The wrapper must be numerically transparent.
    const double a = 1.7, b = -0.3;
    CountedDouble ca(a), cb(b);
    EXPECT_EQ(static_cast<double>(ca * cb + ca / cb), a * b + a / b);
    EXPECT_EQ(static_cast<double>(exp(ca)), std::exp(a));
    EXPECT_EQ(static_cast<double>(max(ca, cb)), std::max(a, b));
}

TEST(KernelRegistry, RecordsScopes) {
    KernelRegistry reg;
    {
        KernelScope scope("k1", {2, 1, 3}, 100, &reg);
        FlopCounter::add(500);
    }
    {
        KernelScope scope("k1", {2, 1, 3}, 100, &reg);
        FlopCounter::add(300);
    }
    auto rec = reg.find("k1");
    EXPECT_EQ(rec.calls, 2u);
    EXPECT_EQ(rec.elements, 200u);
    EXPECT_EQ(rec.flops, 800u);
    EXPECT_DOUBLE_EQ(rec.flops_per_element(), 4.0);
    EXPECT_GE(rec.seconds, 0.0);
}

TEST(Calibration, FullModelStepProducesPerKernelFlops) {
    auto cfg = benchmark_model_config();
    cfg.stepper.n_short_steps = 2;
    const auto cal = calibrate_flops(cfg, {12, 10, 8});
    ASSERT_FALSE(cal.records.empty());
    EXPECT_GT(cal.flops_per_step_per_element, 100.0);

    // The paper's five key kernels must all be present and instrumented.
    auto has = [&](const char* name) {
        for (const auto& r : cal.records)
            if (r.name == name && r.flops > 0) return true;
        return false;
    };
    EXPECT_TRUE(has("coordinate_transform"));
    EXPECT_TRUE(has("pgf_x_short"));
    EXPECT_TRUE(has("advection_momentum_x"));
    EXPECT_TRUE(has("helmholtz_1d"));
    EXPECT_TRUE(has("warm_rain"));
}

TEST(Calibration, FlopsPerElementIsMeshIndependent) {
    auto cfg = benchmark_model_config();
    cfg.stepper.n_short_steps = 2;
    cfg.microphysics = false;  // microphysics work depends on saturation
    cfg.species = SpeciesSet::dry();
    const auto small = calibrate_flops(cfg, {10, 8, 8});
    const auto large = calibrate_flops(cfg, {20, 16, 8});
    auto fpe = [](const CalibrationResult& c, const char* name) {
        for (const auto& r : c.records)
            if (r.name == name) return r.flops_per_element();
        return 0.0;
    };
    // Streaming kernels: identical per-element work at any mesh size.
    for (const char* k : {"pgf_x_short", "continuity_update",
                          "pressure_update", "coordinate_transform"}) {
        EXPECT_NEAR(fpe(small, k), fpe(large, k), 0.05 * fpe(large, k))
            << k;
        EXPECT_GT(fpe(large, k), 0.0) << k;
    }
}

TEST(Calibration, UpdateKernelsSplitFromFusedSweep) {
    // The host sweep finishes rho', theta' and p' inside helmholtz_1d;
    // the calibration hands the GPU model the paper's three update
    // kernels as records of their own, taken out of the sweep's count.
    auto cfg = benchmark_model_config();
    cfg.stepper.n_short_steps = 2;
    const auto cal = calibrate_flops(cfg, {12, 10, 8});
    // The registry still holds the run's raw, fused record.
    const KernelRecord fused = KernelRegistry::global().find("helmholtz_1d");
    ASSERT_GT(fused.elements, 0u);

    auto find = [&](const std::string& name) {
        for (const auto& r : cal.records)
            if (r.name == name) return r;
        ADD_FAILURE() << name << " missing from the calibration";
        return KernelRecord{};
    };
    const KernelRecord sweep = find("helmholtz_1d");
    EXPECT_EQ(sweep.calls, fused.calls);
    EXPECT_EQ(sweep.elements, fused.elements);
    std::uint64_t total = sweep.flops;
    const struct {
        const char* name;
        KernelTraits traits;
        std::uint64_t flops_per_element;
    } updates[] = {
        {"continuity_update", {3, 1, 2}, 3},
        {"theta_update", {4, 1, 4}, 5},
        {"pressure_update", {2, 1, 0}, 1},
    };
    for (const auto& u : updates) {
        const KernelRecord rec = find(u.name);
        EXPECT_EQ(rec.calls, sweep.calls) << u.name;
        EXPECT_EQ(rec.elements, sweep.elements) << u.name;
        EXPECT_EQ(rec.flops, u.flops_per_element * rec.elements) << u.name;
        EXPECT_EQ(rec.traits.reads, u.traits.reads) << u.name;
        EXPECT_EQ(rec.traits.writes, u.traits.writes) << u.name;
        EXPECT_EQ(rec.traits.stencil_reads, u.traits.stencil_reads) << u.name;
        total += rec.flops;
    }
    EXPECT_EQ(total, fused.flops);
    // Sorted by name with no duplicates, the registry's order.
    EXPECT_EQ(std::adjacent_find(cal.records.begin(), cal.records.end(),
                                 [](const KernelRecord& a,
                                    const KernelRecord& b) {
                                     return a.name >= b.name;
                                 }),
              cal.records.end());
}

}  // namespace
}  // namespace asuca
