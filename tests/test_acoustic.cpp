// Tests for the HE-VI acoustic stepper: exact steadiness, stability of
// the implicit vertical solve, and hydrostatic adjustment behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "src/core/acoustic.hpp"
#include "src/core/diagnostics.hpp"
#include "src/core/initial.hpp"
#include "src/core/tendencies.hpp"

namespace asuca {
namespace {

struct AcousticSetup {
    GridSpec spec;
    Grid<double> grid;
    State<double> state;
    Tendencies<double> slow;
    AcousticStepper<double> stepper;

    explicit AcousticSetup(double beta = 0.6,
                           TerrainFunction terrain = flat_terrain())
        : spec(make_spec(std::move(terrain))), grid(spec),
          state(grid, SpeciesSet::dry()), slow(grid, SpeciesSet::dry()),
          stepper(grid, AcousticConfig{beta}) {
        initialize_hydrostatic(grid,
                               AtmosphereProfile::constant_n(300.0, 0.01),
                               0.0, 0.0, state);
        slow.clear();
    }

    static GridSpec make_spec(TerrainFunction terrain) {
        GridSpec s;
        s.nx = 12;
        s.ny = 8;
        s.nz = 16;
        s.dx = 1000.0;
        s.dy = 1000.0;
        s.ztop = 12000.0;
        s.terrain = std::move(terrain);
        return s;
    }
};

TEST(Acoustic, BalancedStateHasZeroDeviations) {
    AcousticSetup su;
    su.stepper.prepare(su.state);
    su.stepper.init_deviations(su.state, su.state);
    for (int n = 0; n < 10; ++n) {
        su.stepper.substep(su.slow, 1.0, LateralBc::Periodic);
    }
    EXPECT_EQ(max_abs(su.stepper.dw()), 0.0);
    EXPECT_EQ(max_abs(su.stepper.drho()), 0.0);
}

class AcousticBeta : public ::testing::TestWithParam<double> {};

TEST_P(AcousticBeta, PressurePerturbationStaysBounded) {
    // A theta' perturbation launches acoustic/gravity waves; with the
    // implicit vertical treatment the integration must stay bounded for
    // a vertical sound CFL (cs*dtau/dz ~ 0.45*340/750 >> 1 explicit limit).
    AcousticSetup su(GetParam());
    State<double> perturbed = su.state;
    add_theta_bubble(su.grid, 1.0, 6000.0, 4000.0, 5000.0, 3000.0, 3000.0,
                     2000.0, perturbed);
    su.stepper.prepare(su.state);
    su.stepper.init_deviations(perturbed, su.state);

    const double dtau = 1.0;  // vertical CFL cs*dtau/dz ~ 0.45
    double max_dw = 0.0;
    for (int n = 0; n < 300; ++n) {
        su.stepper.substep(su.slow, dtau, LateralBc::Periodic);
        max_dw = std::max(max_dw, max_abs(su.stepper.dw()));
        ASSERT_LT(max_abs(su.stepper.dw()), 1e3)
            << "blow-up at substep " << n << " (beta=" << GetParam() << ")";
    }
    EXPECT_GT(max_dw, 0.0);  // waves actually propagate
}

INSTANTIATE_TEST_SUITE_P(OffCentering, AcousticBeta,
                         ::testing::Values(0.5, 0.6, 0.8, 1.0));

TEST(Acoustic, RejectsExplicitBeta) {
    EXPECT_THROW(AcousticSetup su(0.3), Error);
    EXPECT_THROW(AcousticSetup su(1.2), Error);
}

TEST(Acoustic, SlowForcingIntegratesLinearly) {
    // With a constant slow tendency on rho*u and no pressure coupling
    // (uniform forcing => no divergence), du grows linearly in tau.
    AcousticSetup su;
    su.slow.rhou.fill(2.0);  // kg m^-2 s^-2
    su.stepper.prepare(su.state);
    su.stepper.init_deviations(su.state, su.state);
    for (int n = 0; n < 5; ++n) {
        su.stepper.substep(su.slow, 0.5, LateralBc::Periodic);
    }
    // After 2.5 s: du = 5.0 everywhere.
    auto& du = su.stepper.du();
    for (Index j = 0; j < su.spec.ny; ++j)
        for (Index k = 0; k < su.spec.nz; ++k)
            for (Index i = 0; i < su.spec.nx; ++i)
                EXPECT_NEAR(du(i, j, k), 5.0, 1e-9);
}

TEST(Acoustic, HydrostaticAdjustmentRemovesColumnImbalance) {
    // A column-wide density surplus creates downward buoyancy; the
    // implicit solve + continuity must start restoring balance rather
    // than amplifying the perturbation (energy radiates as sound).
    AcousticSetup su;
    State<double> perturbed = su.state;
    const Index h = su.grid.halo();
    for (Index j = -h; j < su.spec.ny + h; ++j)
        for (Index k = -h; k < su.spec.nz + h; ++k)
            for (Index i = -h; i < su.spec.nx + h; ++i)
                perturbed.rho(i, j, k) *= 1.001;
    su.stepper.prepare(su.state);
    su.stepper.init_deviations(perturbed, su.state);
    const double drho0 = max_abs(su.stepper.drho());
    for (int n = 0; n < 200; ++n) {
        su.stepper.substep(su.slow, 1.0, LateralBc::Periodic);
    }
    // The perturbation must not grow (beta > 0.5 damps the transients).
    EXPECT_LT(max_abs(su.stepper.drho()), 2.0 * drho0);
}

TEST(Acoustic, TerrainKinematicConditionHolds) {
    // Over terrain, the bottom dw must equal the metric part of the
    // horizontal momentum deviations (impermeable slope).
    AcousticSetup su(0.6, bell_ridge(500.0, 2000.0, 6000.0));
    initialize_hydrostatic(su.grid, AtmosphereProfile::constant_n(300.0, 0.01),
                           0.0, 0.0, su.state);
    su.slow.clear();
    su.slow.rhou.fill(1.0);  // accelerate flow over the ridge
    su.stepper.prepare(su.state);
    su.stepper.init_deviations(su.state, su.state);
    for (int n = 0; n < 10; ++n) {
        su.stepper.substep(su.slow, 0.5, LateralBc::Periodic);
    }
    const auto& zx = su.grid.slope_x_zface();
    auto& du = su.stepper.du();
    auto& dw = su.stepper.dw();
    for (Index i = 0; i < su.spec.nx; ++i) {
        const double dmu = 0.5 * (du(i, 3, 0) + du(i + 1, 3, 0));
        EXPECT_NEAR(dw(i, 3, 0), dmu * zx(i, 3, 0), 1e-10);
        if (std::abs(zx(i, 3, 0)) > 1e-4) {
            EXPECT_NE(dw(i, 3, 0), 0.0);  // slopes force vertical motion
        }
    }
}

/// Set every lateral halo cell (any k) of `a` to NaN.
void poison_lateral_halos(Array3<double>& a) {
    const Index h = a.halo();
    for (Index j = -h; j < a.ny() + h; ++j)
        for (Index k = -h; k < a.nz() + h; ++k)
            for (Index i = -h; i < a.nx() + h; ++i)
                if (i < 0 || i >= a.nx() || j < 0 || j >= a.ny())
                    a(i, j, k) = std::numeric_limits<double>::quiet_NaN();
}

bool all_finite(const Array3<double>& a) {
    for (std::size_t n = 0; n < a.size(); ++n)
        if (!std::isfinite(a.data()[n])) return false;
    return true;
}

bool same_bits(const Array3<double>& a, const Array3<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Acoustic, ImplicitPhaseDeviationHalosAreDead) {
    // A substep fills the halos of dp_half and du, dv only. No kernel may
    // read the lateral halos of dw, drho, dth or dp: poisoning them with
    // NaN after every substep must leave the finalized, BC-filled state
    // finite and bitwise equal to an unpoisoned stage.
    using Field = Array3<double> State<double>::*;
    const Field fields[] = {&State<double>::rho,  &State<double>::rhou,
                            &State<double>::rhov, &State<double>::rhow,
                            &State<double>::rhotheta, &State<double>::p};
    auto run_stage = [&](bool poison, bool& poison_reached_state) {
        AcousticSetup su(0.6, bell_mountain(400.0, 2000.0, 6000.0, 4000.0));
        State<double> now = su.state;
        add_theta_bubble(su.grid, 2.0, 1000.0, 1000.0, 3000.0, 3000.0,
                         3000.0, 2000.0, now);
        su.slow.rhou.fill(1.0);
        su.slow.rhov.fill(-0.5);
        su.stepper.prepare(su.state);
        su.stepper.init_deviations(now, su.state);
        for (int n = 0; n < 8; ++n) {
            su.stepper.substep(su.slow, 0.5, LateralBc::Periodic);
            if (poison) {
                poison_lateral_halos(su.stepper.dw());
                poison_lateral_halos(su.stepper.drho());
                poison_lateral_halos(su.stepper.dth());
                poison_lateral_halos(su.stepper.dp());
            }
        }
        State<double> out = now;
        su.stepper.finalize(su.state, out);
        poison_reached_state = false;
        for (const Field f : fields) {
            poison_reached_state = poison_reached_state || !all_finite(out.*f);
            apply_lateral_bc(out.*f, LateralBc::Periodic, su.spec.nx,
                             su.spec.ny);
        }
        return out;
    };
    bool clean_reached = false, poison_reached = false;
    const State<double> clean = run_stage(false, clean_reached);
    const State<double> poisoned = run_stage(true, poison_reached);
    EXPECT_FALSE(clean_reached);
    // finalize() copies the dead halos into the state; only the state's
    // own lateral fill makes them harmless.
    EXPECT_TRUE(poison_reached);
    for (const Field f : fields) {
        EXPECT_TRUE(all_finite(poisoned.*f));
        EXPECT_TRUE(same_bits(clean.*f, poisoned.*f));
    }
}

}  // namespace
}  // namespace asuca
