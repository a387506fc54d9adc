// integrate_sd and integrate_2x2: the paper's single-GPU step (Sec. IV-B
// mountain wave + warm rain) and its 2-D decomposition with halo
// exchange overlapped with compute (Sec. V), timed one long step at a
// time.
//
// Both run in episodes: restore the seeded initial state, take
// kEpisodeSteps long steps (each timed), fingerprint the result. Every
// episode therefore ends in the same state, which the correctness checks
// compare against a reference, and the window is whole episodes until
// --seconds have passed.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "layers.hpp"
#include "src/cluster/multidomain.hpp"
#include "src/core/scenarios.hpp"
#include "src/field/simd.hpp"
#include "src/observability/metrics.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/server/ensemble.hpp"

namespace perfbench {

using asuca::AsucaModel;
using asuca::Index;
using asuca::State;
using asuca::ThreadPool;

namespace {

constexpr int kEpisodeSteps = 10;
/// Episodes continue past --seconds until this many steps are timed, so
/// the p90 always has ten samples beyond it.
constexpr std::size_t kMinSteps = 100;
constexpr int kSetupReps = 5;
constexpr int kOneThreadSteps = 3;
constexpr int kControlSteps = 5;
constexpr double kIcAmplitude = 1.0e-3;  ///< seeded theta noise [K]
constexpr std::uint64_t kIcStream = 0x5eedULL;

// integrate_sd: the seed picks one of four initial-state variants, whose
// fingerprints after one episode are recorded here (--print-references
// regenerates them).
constexpr int kSdVariants = 4;
constexpr std::uint64_t kSdReference[kSdVariants] = {
    0x8e645336c0703fe1ULL, 0xaadc4b1ab6d94ae5ULL, 0x7c23bef219b7a44dULL,
    0x6932196e81ce5efaULL};

std::size_t compute_threads() {
    const std::size_t hw =
        std::max(1u, std::thread::hardware_concurrency());
    return std::min<std::size_t>(4, hw);
}

/// Theta noise of the seeded variant, then the lateral BCs.
void perturb(AsucaModel<double>& model, std::uint64_t stream) {
    asuca::server::perturb_theta(
        model.state(), asuca::server::member_seed(kIcStream + stream, 0),
        kIcAmplitude);
    model.stepper().apply_state_bcs(model.state());
}

std::unique_ptr<AsucaModel<double>> sd_model(std::uint64_t variant) {
    auto m = std::make_unique<AsucaModel<double>>(
        asuca::scenarios::mountain_wave_config<double>(64, 48, 48, true));
    asuca::scenarios::init_mountain_wave(*m);
    perturb(*m, variant);
    return m;
}

void end_to_end(Report& report, bool trace, const std::vector<double>& setup,
                const std::vector<double>& steps_ms, double cells) {
    const Summary s = summarize(steps_ms);
    double wall_ms = 0.0;
    for (const double v : steps_ms) wall_ms += v;
    const double ops = wall_ms > 0.0
                           ? static_cast<double>(steps_ms.size()) /
                                 (wall_ms / 1e3)
                           : 0.0;
    report.line(describe("long step", steps_ms, "ms"));
    report.line(describe("set-up", setup, "s"));
    if (trace) return;
    report.metric("setup_s", quantile(setup, 0.5), "s", "lower");
    report.metric("op_ms_p50", s.p50, "ms", "lower");
    report.metric("op_ms_p90", quantile(steps_ms, 0.9), "ms", "lower");
    report.metric("ops_per_s", ops, "1/s", "higher");
    report.metric("mcell_steps_per_s", cells * ops / 1e6, "Mcell-step/s",
                  "higher");
}

/// Median wall time of `n` calls of `step` on a private 1-thread pool.
template <class Stepper>
double one_thread_step_ms(Stepper&& step, int n) {
    ThreadPool pool(1);
    ThreadPool::ScopedOverride route(pool);
    std::vector<double> ms;
    for (int s = 0; s < n; ++s) {
        const auto t0 = Clock::now();
        step();
        ms.push_back(ms_since(t0));
    }
    return quantile(ms, 0.5);
}

}  // namespace

void print_sd_references() {
    ThreadPool::set_global_threads(compute_threads());
    for (int v = 0; v < kSdVariants; ++v) {
        auto m = sd_model(static_cast<std::uint64_t>(v));
        m->run(kEpisodeSteps);
        std::printf("    0x%016llxULL,\n",
                    static_cast<unsigned long long>(
                        asuca::server::state_fingerprint(m->state())));
    }
}

void run_integrate_sd(const RunArgs& args, Tracer& tracer, Report& report) {
    const std::size_t threads = compute_threads();
    ThreadPool::set_global_threads(threads);
    report.set_resources(threads, asuca::resolve_column_batch<double>(0));
    const auto variant = args.seed % kSdVariants;
    const double cells = 64.0 * 48.0 * 48.0;

    // Set-up: construct, initialize, warm-up step; repeated, median kept.
    std::vector<double> setup_s;
    std::unique_ptr<AsucaModel<double>> model;
    std::unique_ptr<State<double>> ic;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        model.reset();
        const auto t0 = Clock::now();
        model = sd_model(variant);
        const double build_ms = ms_since(t0);
        ic = std::make_unique<State<double>>(model->state());
        const auto t1 = Clock::now();
        model->step();
        setup_s.push_back((build_ms + ms_since(t1)) / 1e3);
    }

    asuca::KernelRegistry::global().reset();
    std::vector<double> traced_ms, untraced_ms, all_ms;
    std::vector<std::uint64_t> fingerprints;
    const auto window = Clock::now();
    for (int episode = 0;
         ms_since(window) < args.seconds * 1e3 || all_ms.size() < kMinSteps;
         ++episode) {
        const bool traced = args.trace && episode % 2 == 0;
        tracer.set_enabled(traced);
        {
            Tracer::Scope ep(tracer, "episode");
            {
                Tracer::Scope sc(tracer, "restore");
                model->state() = *ic;
                model->set_clock(0.0, 0);
            }
            for (int s = 0; s < kEpisodeSteps; ++s) {
                const auto t0 = Clock::now();
                {
                    Tracer::Scope sc(tracer, "AsucaModel::step");
                    model->step();
                }
                const double ms = ms_since(t0);
                (traced ? traced_ms : untraced_ms).push_back(ms);
                all_ms.push_back(ms);
            }
            report.attempt(kEpisodeSteps);
            Tracer::Scope sc(tracer, "state_fingerprint");
            fingerprints.push_back(
                model->is_finite()
                    ? asuca::server::state_fingerprint(model->state())
                    : 0);
        }
    }
    tracer.set_enabled(false);
    const auto records = asuca::KernelRegistry::global().records();

    // Correctness: every episode ends on the recorded reference.
    std::size_t bad = 0;
    for (const auto fp : fingerprints) bad += fp != kSdReference[variant];
    report.fail(bad * kEpisodeSteps);
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "integrate_sd: %zu episodes x %d steps end on the "
                  "recorded fingerprint %016llx (variant %llu)",
                  fingerprints.size(), kEpisodeSteps,
                  static_cast<unsigned long long>(kSdReference[variant]),
                  static_cast<unsigned long long>(variant));
    report.check(bad == 0 && !fingerprints.empty(), buf);

    report.line("integrate_sd: mountain wave + warm rain 64x48x48, " +
                std::to_string(threads) + " threads");
    end_to_end(report, args.trace, setup_s, all_ms, cells);
    if (!args.trace) return;

    emit_layer_defaults(report);
    const Summary s = summarize(all_ms);
    report.metric("core.step_ms", s.mean, "ms");
    report.metric("core.steps", static_cast<double>(s.n), "count");
    emit_kernel_metrics(report, records, static_cast<double>(s.n), 1.0,
                        s.mean, calibrated_flops_per_element(true));
    model->state() = *ic;
    model->set_clock(0.0, 0);
    const double one_t =
        one_thread_step_ms([&] { model->step(); }, kOneThreadSteps);
    report.metric("parallel.step_ms_1t", one_t, "ms");
    report.metric("parallel.efficiency_4t",
                  one_t / (static_cast<double>(threads) * s.p50), "ratio");
    report_trace_overhead(report, traced_ms, untraced_ms, "step spans");
}

void run_integrate_2x2(const RunArgs& args, Tracer& tracer, Report& report) {
    namespace cl = asuca::cluster;
    const std::size_t threads = compute_threads();
    ThreadPool::set_global_threads(threads);
    const Index px = 2, py = 2;
    report.set_resources(static_cast<std::size_t>(px * py),
                         asuca::resolve_column_batch<double>(0));
    const auto cfg =
        asuca::scenarios::mountain_wave_config<double>(64, 48, 32, false);
    const double cells = 64.0 * 48.0 * 32.0;
    cl::MultiDomainConfig md;
    md.overlap = cl::OverlapMode::Split;
    md.threads_per_rank = 1;

    // Set-up: initial state, runner, scatter, warm-up step.
    std::vector<double> setup_s;
    std::unique_ptr<AsucaModel<double>> seed_model;
    std::unique_ptr<cl::MultiDomainRunner<double>> runner;
    std::unique_ptr<State<double>> ic;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        runner.reset();
        seed_model.reset();
        const auto t0 = Clock::now();
        seed_model = std::make_unique<AsucaModel<double>>(cfg);
        asuca::scenarios::init_mountain_wave(*seed_model);
        perturb(*seed_model, args.seed);
        runner = std::make_unique<cl::MultiDomainRunner<double>>(
            cfg.grid, px, py, cfg.species, cfg.stepper, md);
        runner->scatter(seed_model->state());
        runner->step();
        setup_s.push_back(ms_since(t0) / 1e3);
    }
    ic = std::make_unique<State<double>>(seed_model->state());

    auto& metrics = asuca::obs::MetricsRegistry::global();
    auto& halo_messages = metrics.counter("halo.messages");
    auto& halo_bytes = metrics.counter("halo.bytes");
    metrics.reset();
    asuca::KernelRegistry::global().reset();
    State<double> out(seed_model->grid(), cfg.species);
    std::vector<double> traced_ms, untraced_ms, all_ms, scatter_ms,
        gather_ms;
    std::vector<std::uint64_t> fingerprints;
    std::size_t traced_steps = 0;
    const auto window = Clock::now();
    for (int episode = 0;
         ms_since(window) < args.seconds * 1e3 || all_ms.size() < kMinSteps;
         ++episode) {
        const bool traced = args.trace && episode % 2 == 0;
        tracer.set_enabled(traced);
        if (traced) {
            metrics.enable();
        } else {
            metrics.disable();
        }
        Tracer::Scope ep(tracer, "episode");
        auto t0 = Clock::now();
        {
            Tracer::Scope sc(tracer, "MultiDomainRunner::scatter");
            runner->scatter(*ic);
        }
        scatter_ms.push_back(ms_since(t0));
        for (int s = 0; s < kEpisodeSteps; ++s) {
            t0 = Clock::now();
            {
                Tracer::Scope sc(tracer, "MultiDomainRunner::step");
                runner->step();
            }
            const double ms = ms_since(t0);
            (traced ? traced_ms : untraced_ms).push_back(ms);
            all_ms.push_back(ms);
        }
        traced_steps += traced ? kEpisodeSteps : 0;
        report.attempt(kEpisodeSteps);
        out = *ic;  // halo frame before the interior gather
        t0 = Clock::now();
        {
            Tracer::Scope sc(tracer, "MultiDomainRunner::gather");
            runner->gather(out);
        }
        gather_ms.push_back(ms_since(t0));
        seed_model->stepper().apply_state_bcs(out);
        fingerprints.push_back(asuca::state_is_finite(out)
                                   ? asuca::server::state_fingerprint(out)
                                   : 0);
    }
    tracer.set_enabled(false);
    metrics.disable();
    const auto records = asuca::KernelRegistry::global().records();

    // Correctness: the gathered state equals the single-domain run of the
    // same spec from the same initial state (decomposed == single-domain).
    seed_model->state() = *ic;
    seed_model->set_clock(0.0, 0);
    seed_model->run(kEpisodeSteps);
    const std::uint64_t reference =
        asuca::server::state_fingerprint(seed_model->state());
    std::size_t bad = 0;
    for (const auto fp : fingerprints) bad += fp != reference;
    report.fail(bad * kEpisodeSteps);
    char buf[220];
    std::snprintf(buf, sizeof(buf),
                  "integrate_2x2: %zu gathered episodes equal the "
                  "single-domain run (%016llx)",
                  fingerprints.size(),
                  static_cast<unsigned long long>(reference));
    report.check(bad == 0 && !fingerprints.empty(), buf);

    report.line("integrate_2x2: dry mountain wave 64x48x32, 2x2 ranks, "
                "overlap split, 1 thread per rank");
    end_to_end(report, args.trace, setup_s, all_ms, cells);
    if (!args.trace) return;

    emit_layer_defaults(report);
    const Summary s = summarize(all_ms);
    report.metric("core.step_ms", s.mean, "ms");
    report.metric("core.steps", static_cast<double>(s.n), "count");
    emit_kernel_metrics(report, records, static_cast<double>(s.n),
                        static_cast<double>(px * py), s.mean,
                        calibrated_flops_per_element(false));

    // 1x1 control: one rank's 32x24x32 mesh on one thread, no halo
    // channels, with the ranks' fused density/theta update.
    auto control_cfg =
        asuca::scenarios::mountain_wave_config<double>(32, 24, 32, false);
    control_cfg.stepper.acoustic.fuse_density_theta = true;
    AsucaModel<double> control(control_cfg);
    asuca::scenarios::init_mountain_wave(control);
    control.step();
    const double rank_ms =
        one_thread_step_ms([&] { control.step(); }, kControlSteps);
    report.metric("cluster.step_ms", s.p50, "ms");
    report.metric("cluster.rank_compute_ms", rank_ms, "ms");
    report.metric("cluster.overhead_ms", s.p50 - rank_ms, "ms");
    const double per_step = traced_steps ? 1.0 / traced_steps : 0.0;
    report.metric("cluster.halo_mb_per_step",
                  static_cast<double>(halo_bytes.value()) * per_step / 1e6,
                  "MB");
    report.metric("cluster.halo_messages_per_step",
                  static_cast<double>(halo_messages.value()) * per_step,
                  "count");
    report.metric("cluster.scatter_ms", quantile(scatter_ms, 0.5), "ms");
    report.metric("cluster.gather_ms", quantile(gather_ms, 0.5), "ms");
    report.line(describe("scatter", scatter_ms, "ms"));
    report.line(describe("gather", gather_ms, "ms"));
    std::snprintf(buf, sizeof(buf),
                  "  2x2 step p50 %.3f ms = rank compute %.3f ms (1x1 "
                  "control, 1 thread) + overhead %.3f ms (halo + imbalance)",
                  s.p50, rank_ms, s.p50 - rank_ms);
    report.line(buf);

    report_trace_overhead(report, traced_ms, untraced_ms,
                          "step spans + halo counters");
}

}  // namespace perfbench
