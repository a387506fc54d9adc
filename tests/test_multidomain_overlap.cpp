// Bitwise determinism of the multi-domain runner: every overlap mode
// (unsplit, kernel splitting, tracer pipelining, density-theta fusion)
// must reproduce the single-domain run exactly, across decomposition
// shapes and step counts — the paper's Sec. V-A overlap methods change
// only WHEN work happens, never what is computed.
#include <gtest/gtest.h>

#include <string>

#include "src/cluster/multidomain.hpp"
#include "src/core/diagnostics.hpp"
#include "src/core/initial.hpp"

namespace asuca::cluster {
namespace {

GridSpec make_global(TerrainFunction terrain) {
    GridSpec s;
    s.nx = 24;
    s.ny = 12;
    s.nz = 10;
    s.dx = 1000.0;
    s.dy = 1000.0;
    s.ztop = 10000.0;
    s.terrain = std::move(terrain);
    return s;
}

TimeStepperConfig make_stepper_cfg() {
    TimeStepperConfig cfg;
    cfg.dt = 4.0;
    cfg.n_short_steps = 6;
    cfg.diffusion.kh = 10.0;
    cfg.diffusion.kv = 1.0;
    cfg.sponge.z_start = 8000.0;
    return cfg;
}

void init_case(const Grid<double>& grid, const SpeciesSet& species,
               State<double>& state) {
    initialize_hydrostatic(grid, AtmosphereProfile::constant_n(292.0, 0.011),
                           8.0, 3.0, state);
    if (species.contains(Species::Vapor)) {
        set_relative_humidity(
            grid, [](double z) { return z < 2000.0 ? 0.8 : 0.3; }, state);
    }
}

struct OverlapCase {
    Index px, py;
    OverlapMode mode;
    int steps;
};

std::string mode_name(OverlapMode m) {
    switch (m) {
        case OverlapMode::None: return "none";
        case OverlapMode::Split: return "split";
        case OverlapMode::SplitPipeline: return "pipeline";
    }
    return "unknown";
}

class MultiDomainOverlap : public ::testing::TestWithParam<OverlapCase> {};

TEST_P(MultiDomainOverlap, BitwiseIdenticalToLockstep) {
    const auto c = GetParam();
    const auto spec = make_global(
        bell_mountain(350.0, 3000.0, 12000.0, 6000.0));
    const auto cfg = make_stepper_cfg();
    const auto species = SpeciesSet::warm_rain();

    Grid<double> grid(spec);
    State<double> initial(grid, species);
    init_case(grid, species, initial);

    // Reference: the single-domain run from the same initial state.
    State<double> ref = initial;
    TimeStepper<double> stepper(grid, species, cfg);
    for (int n = 0; n < c.steps; ++n) stepper.step(ref);

    // Decomposed run under test.
    MultiDomainConfig md;
    md.overlap = c.mode;
    md.threads_per_rank = 2;
    MultiDomainRunner<double> overlapped(spec, c.px, c.py, species, cfg, md);
    overlapped.scatter(initial);
    for (int n = 0; n < c.steps; ++n) overlapped.step();
    State<double> got(grid, species);
    overlapped.gather(got);

    EXPECT_EQ(max_abs_diff(ref.rho, got.rho), 0.0);
    EXPECT_EQ(max_abs_diff(ref.rhou, got.rhou), 0.0);
    EXPECT_EQ(max_abs_diff(ref.rhov, got.rhov), 0.0);
    EXPECT_EQ(max_abs_diff(ref.rhow, got.rhow), 0.0);
    EXPECT_EQ(max_abs_diff(ref.rhotheta, got.rhotheta), 0.0);
    EXPECT_EQ(max_abs_diff(ref.p, got.p), 0.0);
    for (std::size_t n = 0; n < species.count(); ++n) {
        EXPECT_EQ(max_abs_diff(ref.tracers[n], got.tracers[n]), 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, MultiDomainOverlap,
    ::testing::Values(
        // None needs nxl, nyl >= halo = 3: 4x4 gives 6x3 ranks, whose
        // y strips span the whole rank.
        OverlapCase{2, 2, OverlapMode::None, 2},
        OverlapCase{4, 2, OverlapMode::None, 2},
        OverlapCase{4, 4, OverlapMode::None, 2},
        // The split modes need nxl, nyl >= 2*halo = 6.
        OverlapCase{2, 1, OverlapMode::Split, 2},
        OverlapCase{2, 1, OverlapMode::SplitPipeline, 2},
        OverlapCase{1, 2, OverlapMode::Split, 2},
        OverlapCase{1, 2, OverlapMode::SplitPipeline, 2},
        OverlapCase{2, 2, OverlapMode::Split, 1},
        OverlapCase{2, 2, OverlapMode::Split, 3},
        OverlapCase{2, 2, OverlapMode::SplitPipeline, 1},
        OverlapCase{2, 2, OverlapMode::SplitPipeline, 3},
        OverlapCase{4, 2, OverlapMode::Split, 2},
        OverlapCase{4, 2, OverlapMode::SplitPipeline, 2}),
    [](const auto& info) {
        return std::to_string(info.param.px) + "x" +
               std::to_string(info.param.py) + "_" +
               mode_name(info.param.mode) + "_" +
               std::to_string(info.param.steps) + "step";
    });

TEST(MultiDomainOverlap, MatchesSingleDomainBitwise) {
    // The pipelined executor (all three overlap methods on) with one
    // thread per rank — kernels inline on the rank workers — equals the
    // single-domain stepper too.
    const auto spec = make_global(
        bell_mountain(350.0, 3000.0, 12000.0, 6000.0));
    const auto cfg = make_stepper_cfg();
    const auto species = SpeciesSet::warm_rain();

    Grid<double> grid(spec);
    State<double> ref(grid, species);
    init_case(grid, species, ref);
    TimeStepper<double> stepper(grid, species, cfg);
    State<double> initial = ref;
    for (int n = 0; n < 3; ++n) stepper.step(ref);

    MultiDomainConfig md;
    md.overlap = OverlapMode::SplitPipeline;
    MultiDomainRunner<double> runner(spec, 2, 2, species, cfg, md);
    runner.scatter(initial);
    for (int n = 0; n < 3; ++n) runner.step();
    State<double> got(grid, species);
    runner.gather(got);

    EXPECT_EQ(max_abs_diff(ref.rho, got.rho), 0.0);
    EXPECT_EQ(max_abs_diff(ref.rhou, got.rhou), 0.0);
    EXPECT_EQ(max_abs_diff(ref.rhov, got.rhov), 0.0);
    EXPECT_EQ(max_abs_diff(ref.rhow, got.rhow), 0.0);
    EXPECT_EQ(max_abs_diff(ref.rhotheta, got.rhotheta), 0.0);
    for (std::size_t n = 0; n < species.count(); ++n) {
        EXPECT_EQ(max_abs_diff(ref.tracers[n], got.tracers[n]), 0.0);
    }
}

TEST(MultiDomainOverlap, HaloMessagesPerStepAreExact) {
    // Each field exchange sends one message from every rank to each of
    // its four neighbors: 16 on 2x2. A dry step exchanges the 6 dynamic
    // fields 4 times (three stage openings and the final fill) and, per
    // acoustic substep, dp_half, du and dv. n_short_steps = 6 gives
    // 2 + 3 + 6 = 11 substeps: 16 * (4 * 6 + 11 * 3) = 912 messages in
    // every mode. An exchange no kernel needs would raise the count.
    const auto spec = make_global(flat_terrain());
    const auto cfg = make_stepper_cfg();
    ASSERT_EQ(cfg.n_short_steps, 6);
    Grid<double> grid(spec);
    State<double> initial(grid, SpeciesSet::dry());
    init_case(grid, SpeciesSet::dry(), initial);

    struct MetricsOff {
        ~MetricsOff() { obs::MetricsRegistry::global().disable(); }
    } metrics_off;
    auto& messages = obs::MetricsRegistry::global().counter("halo.messages");
    for (const OverlapMode mode :
         {OverlapMode::None, OverlapMode::Split, OverlapMode::SplitPipeline}) {
        MultiDomainConfig md;
        md.overlap = mode;
        MultiDomainRunner<double> runner(spec, 2, 2, SpeciesSet::dry(), cfg,
                                         md);
        runner.scatter(initial);
        obs::MetricsRegistry::global().enable();
        const std::uint64_t before = messages.value();
        runner.step();
        const std::uint64_t sent = messages.value() - before;
        obs::MetricsRegistry::global().disable();
        EXPECT_EQ(sent, 912u) << mode_name(mode);
    }
}

TEST(MultiDomainOverlap, RejectsSubdomainsSmallerThanTheHalo) {
    const auto spec = make_global(flat_terrain());
    // 12 / 6 = 2 rows per rank < halo(3): the channel strips would copy
    // halo rows, so even the unsplit mode must refuse.
    EXPECT_THROW(MultiDomainRunner<double>(spec, 1, 6, SpeciesSet::dry(),
                                           make_stepper_cfg()),
                 Error);
}

TEST(MultiDomainOverlap, RejectsSubdomainsSmallerThanTwoHalos) {
    const auto spec = make_global(flat_terrain());
    MultiDomainConfig md;
    md.overlap = OverlapMode::Split;
    // 12 / 3 = 4 rows per rank < 2 * halo(3): the split kernel frames
    // would overlap, so the constructor must refuse.
    EXPECT_THROW(MultiDomainRunner<double>(spec, 1, 3, SpeciesSet::dry(),
                                           make_stepper_cfg(), md),
                 Error);
}

}  // namespace
}  // namespace asuca::cluster
