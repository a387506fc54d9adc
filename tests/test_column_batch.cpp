// The vertical implicit solve marches W columns at once (the CPU analogue
// of the paper's kij->xzy layout change, Sec. IV-A-1) and finishes each
// column's rho', theta' and p' inside the sweep; every width, W=1
// included, runs that batched sweep. Each batched lane executes exactly
// the operation sequence of the one-column-at-a-time reference sweep
// (phase_vertical_implicit_scalar), so on default builds (no implicit FMA
// contraction) every width must be bitwise identical to it. These tests
// pin that claim at three levels: the width-resolution rules, the
// implicit phase in isolation against the scalar reference, and the full
// RK3/HE-VI step with microphysics across widths.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>

#include "src/core/acoustic.hpp"
#include "src/core/diagnostics.hpp"
#include "src/core/initial.hpp"
#include "src/core/scenarios.hpp"
#include "src/field/simd.hpp"

namespace asuca {
namespace {

template <class T>
void expect_bitwise_equal(const Array3<T>& a, const Array3<T>& b,
                          const char* name) {
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0)
        << name << " differs (max |diff| = " << max_abs_diff(a, b) << ")";
}

/// Temporarily set/clear ASUCA_COLUMN_BATCH, restoring on destruction.
class ScopedEnv {
  public:
    ScopedEnv(const char* name, const char* value) : name_(name) {
        if (const char* old = std::getenv(name)) saved_ = old;
        if (value != nullptr) {
            ::setenv(name, value, 1);
        } else {
            ::unsetenv(name);
        }
    }
    ~ScopedEnv() {
        if (saved_.empty()) {
            ::unsetenv(name_);
        } else {
            ::setenv(name_, saved_.c_str(), 1);
        }
    }

  private:
    const char* name_;
    std::string saved_;
};

TEST(ColumnBatch, ExplicitConfigValueWins) {
    ScopedEnv env("ASUCA_COLUMN_BATCH", "5");
    EXPECT_EQ(resolve_column_batch<double>(1), 1);
    EXPECT_EQ(resolve_column_batch<double>(4), 4);
    EXPECT_EQ(resolve_column_batch<double>(12), 12);
}

TEST(ColumnBatch, EnvOverridesAutoWidth) {
    ScopedEnv env("ASUCA_COLUMN_BATCH", "5");
    EXPECT_EQ(resolve_column_batch<double>(0), 5);
}

TEST(ColumnBatch, AutoWidthDefaultsToSimdMultiple) {
    ScopedEnv env("ASUCA_COLUMN_BATCH", nullptr);
    EXPECT_EQ(resolve_column_batch<double>(0), default_column_batch<double>());
    EXPECT_EQ(default_column_batch<double>() % simd_lanes<double>(), 0);
    EXPECT_GE(default_column_batch<double>(), 4);
}

// ---------------------------------------------------------------------
// Implicit phase in isolation: batched sweeps of any width (including the
// degenerate W=1) must reproduce the scalar reference sweep bitwise on the
// same inputs, in W' and in the rho', theta', p' each sweep finishes.

struct PhaseSetup {
    GridSpec spec;
    Grid<double> grid;
    State<double> bar;    ///< linearization state: hydrostatic flow
    State<double> state;  ///< the same flow plus a warm bubble
    Tendencies<double> slow;
    AcousticStepper<double> stepper;

    explicit PhaseSetup(Index column_batch)
        : spec(make_spec()), grid(spec), bar(grid, SpeciesSet::dry()),
          state(grid, SpeciesSet::dry()), slow(grid, SpeciesSet::dry()),
          stepper(grid, make_config(column_batch)) {
        for (State<double>* s : {&bar, &state}) {
            initialize_hydrostatic(grid,
                                   AtmosphereProfile::constant_n(300.0, 0.01),
                                   5.0, 2.0, *s);
        }
        add_theta_bubble(grid, 1.5, 6000.0, 3000.0, 5000.0, 3000.0, 3000.0,
                         2000.0, state);
        slow.clear();
        // The bubble is the initial deviation (rho'); a few substeps
        // spread it so the deviations feeding the implicit phase are
        // nontrivial in every field.
        stepper.prepare(bar);
        stepper.init_deviations(state, bar);
        for (int n = 0; n < 4; ++n) {
            stepper.substep(slow, 1.0, LateralBc::Periodic);
        }
    }

    static AcousticConfig make_config(Index column_batch) {
        AcousticConfig cfg;
        cfg.column_batch = column_batch;
        return cfg;
    }

    static GridSpec make_spec() {
        GridSpec s;
        s.nx = 13;  // deliberately not a multiple of any batch width
        s.ny = 6;
        s.nz = 16;
        s.dx = 1000.0;
        s.dy = 1000.0;
        s.ztop = 12000.0;
        s.terrain = bell_mountain(300.0, 2500.0, 6000.0, 3000.0);
        return s;
    }
};

class ColumnBatchPhase : public ::testing::TestWithParam<Index> {};

TEST_P(ColumnBatchPhase, BatchedImplicitPhaseMatchesScalarBitwise) {
    PhaseSetup scalar(1);   // both evolve with width 1 so the state
    PhaseSetup batched(1);  // feeding the phase is identical
    scalar.stepper.phase_vertical_implicit_scalar(scalar.slow, 1.0);
    batched.stepper.phase_vertical_implicit_batched(batched.slow, 1.0,
                                                    GetParam());
    // Nothing is compared vacuously: every field the phase writes is live.
    EXPECT_GT(max_abs(scalar.stepper.dw()), 0.0);
    EXPECT_GT(max_abs(scalar.stepper.drho()), 0.0);
    EXPECT_GT(max_abs(scalar.stepper.dth()), 0.0);
    EXPECT_GT(max_abs(scalar.stepper.dp()), 0.0);
    expect_bitwise_equal(scalar.stepper.dw(), batched.stepper.dw(), "dw");
    expect_bitwise_equal(scalar.stepper.drho(), batched.stepper.drho(),
                         "drho");
    expect_bitwise_equal(scalar.stepper.dth(), batched.stepper.dth(), "dth");
    expect_bitwise_equal(scalar.stepper.dp(), batched.stepper.dp(), "dp");
}

INSTANTIATE_TEST_SUITE_P(Widths, ColumnBatchPhase,
                         ::testing::Values<Index>(1, 2, 4, 8, 13, 16));

// ---------------------------------------------------------------------
// Full-step equivalence: the mountain-wave + warm-rain configuration must
// produce bit-identical states for width 1, small/odd batched widths, and
// the resolved auto width.

std::unique_ptr<AsucaModel<double>> run_full_steps(Index column_batch,
                                                   int steps) {
    auto cfg = scenarios::mountain_wave_config<double>(24, 10, 16);
    cfg.microphysics = true;
    cfg.stepper.acoustic.column_batch = column_batch;
    auto m = std::make_unique<AsucaModel<double>>(cfg);
    scenarios::init_mountain_wave(*m);
    m->run(steps);
    return m;
}

TEST(ColumnBatch, FullStepBatchedWidthsMatchScalarBitwise) {
    ScopedEnv env("ASUCA_COLUMN_BATCH", nullptr);
    const int steps = 2;
    auto scalar = run_full_steps(1, steps);
    for (const Index w : {Index(4), Index(7), Index(0)}) {  // 0 = auto
        auto batched = run_full_steps(w, steps);
        const auto& a = scalar->state();
        const auto& b = batched->state();
        expect_bitwise_equal(a.rho, b.rho, "rho");
        expect_bitwise_equal(a.rhou, b.rhou, "rhou");
        expect_bitwise_equal(a.rhov, b.rhov, "rhov");
        expect_bitwise_equal(a.rhow, b.rhow, "rhow");
        expect_bitwise_equal(a.rhotheta, b.rhotheta, "rhotheta");
        expect_bitwise_equal(a.p, b.p, "p");
        ASSERT_EQ(a.tracers.size(), b.tracers.size());
        for (std::size_t n = 0; n < a.tracers.size(); ++n) {
            expect_bitwise_equal(a.tracers[n], b.tracers[n],
                                 std::string(name_of(a.species.at(n))).c_str());
        }
    }
}

TEST(ColumnBatch, StepperReportsResolvedWidth) {
    ScopedEnv env("ASUCA_COLUMN_BATCH", "6");
    PhaseSetup su(0);
    EXPECT_EQ(su.stepper.column_batch_width(), 6);
    PhaseSetup forced(3);
    EXPECT_EQ(forced.stepper.column_batch_width(), 3);
}

}  // namespace
}  // namespace asuca
