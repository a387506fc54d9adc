// serve_mixed: an in-process SocketServer on loopback (2 workers x 1
// thread, queue capacity 8, the default admission policy, a durable
// store in a fresh directory per server) driven by a closed loop of four
// ForecastClient connections with zero think time. Each wire caller
// blocks on its reply, so the loop is closed: a slower server receives
// proportionally less load. The four load threads spend the service time
// blocked in recv, so active threads stay within the two workers plus
// the one frame being parsed.
//
// After the window every answered fingerprint is checked against an
// in-process run_forecast of the response's executed spec.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "layers.hpp"
#include "request_mix.hpp"
#include "src/field/simd.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/server/checkpoint_store.hpp"
#include "src/server/client.hpp"
#include "src/server/ensemble.hpp"
#include "src/server/socket_server.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace srv = asuca::server;
using asuca::ThreadPool;

namespace {

constexpr std::size_t kClients = 4;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kQueueCapacity = 8;
constexpr int kSetupReps = 5;
constexpr int kStoreReps = 5;
constexpr int kStatsRoundTrips = 200;
constexpr std::size_t kCheckThreads = 4;

/// One served answer, as the load generator saw it.
struct Outcome {
    MixRequest req;
    bool traced = false;
    bool answered = false;  ///< a reply frame arrived and parsed
    double rtt_ms = 0.0;
    srv::wire::ForecastResponseV1 resp;
    std::string error;
};

/// One server incarnation with its store directory; removes the
/// directory when destroyed.
struct Service {
    std::string dir;
    std::unique_ptr<srv::SocketServer> server;
    std::vector<std::unique_ptr<srv::ForecastClient>> clients;

    ~Service() {
        clients.clear();
        server.reset();
        std::error_code ec;
        fs::remove_all(dir, ec);
    }
};

srv::wire::ForecastRequestV1 envelope(const srv::ScenarioSpec& spec,
                                      std::uint64_t id) {
    srv::wire::ForecastRequestV1 req;
    req.spec = spec;
    req.id = id;
    req.client = "perfbench";
    return req;
}

/// Construct the server, integrate the analysis the fork class perturbs
/// and capture it into the store (returning its blob in `blob`), connect
/// the clients and warm up with one executed request (its key lies
/// outside the mix: horizon 1).
std::unique_ptr<Service> start_service(const std::string& dir,
                                       std::string& blob) {
    auto svc = std::make_unique<Service>();
    svc->dir = dir;
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir);
    srv::SocketServerConfig cfg;
    cfg.server.n_workers = kWorkers;
    cfg.server.threads_per_worker = 1;
    cfg.server.queue_capacity = kQueueCapacity;
    cfg.server.store_dir = dir;
    svc->server = std::make_unique<srv::SocketServer>(cfg);
    const srv::ScenarioSpec spec = srv::canonicalize(analysis_spec());
    asuca::AsucaModel<double> analysis(srv::build_config(spec));
    srv::init_model(analysis, spec);
    analysis.run(spec.steps);
    auto& store = svc->server->core().checkpoints();
    store.capture(kAnalysisKey, analysis);
    blob = *store.get(kAnalysisKey);
    for (std::size_t c = 0; c < kClients; ++c) {
        svc->clients.push_back(std::make_unique<srv::ForecastClient>(
            "127.0.0.1", svc->server->port()));
    }
    srv::ScenarioSpec warm;
    warm.scenario = "warm_bubble";
    warm.steps = 1;
    const auto r = svc->clients.front()->forecast(envelope(warm, 0));
    ASUCA_REQUIRE(r.ok, "warm-up request failed: " << r.error.detail);
    return svc;
}

/// Whether a worker ran this request's integration. Repeats are answered
/// by the result cache; the server does not mark them in the response
/// (ForecastResult::deduped stays false on cache hits), so the class says
/// it and ServerStats::dedup_hits confirms the count.
bool executed_here(const Outcome& o) {
    return o.answered && o.resp.ok && o.req.cls != RequestClass::repeat &&
           !o.resp.deduped && o.resp.served_from == "executed";
}

double cell_steps(const srv::wire::ForecastResponseV1& r) {
    const double f = static_cast<double>(1 << r.executed.coarsen);
    return static_cast<double>(r.executed.nx) / f *
           static_cast<double>(r.executed.ny) / f *
           static_cast<double>(r.executed.nz) *
           static_cast<double>(r.steps_run);
}

/// Check every answered fingerprint against an in-process run_forecast of
/// its executed spec (one run per distinct executed key, on private
/// one-thread pools). Returns the number of answers that disagree.
std::size_t verify_fingerprints(const std::vector<Outcome>& outcomes,
                                const std::string& blob, Report& report) {
    std::map<std::string, srv::ScenarioSpec> specs;
    for (const auto& o : outcomes) {
        if (o.answered && o.resp.ok) {
            specs.emplace(srv::canonical_key(o.resp.executed),
                          o.resp.executed);
        }
    }
    std::vector<std::pair<std::string, srv::ScenarioSpec>> work(
        specs.begin(), specs.end());
    std::vector<std::uint64_t> reference(work.size(), 0);
    const auto shared_blob = std::make_shared<const std::string>(blob);
    std::vector<std::string> errors(work.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < kCheckThreads; ++t) {
        pool.emplace_back([&] {
            ThreadPool one(1);
            ThreadPool::ScopedOverride route(one);
            for (std::size_t i = next++; i < work.size(); i = next++) {
                try {
                    const auto& spec = work[i].second;
                    reference[i] =
                        srv::run_forecast(spec,
                                          spec.warm_start.empty()
                                              ? nullptr
                                              : shared_blob,
                                          false)
                            .fingerprint;
                } catch (const std::exception& e) {
                    errors[i] = e.what();
                }
            }
        });
    }
    for (auto& th : pool) th.join();
    std::map<std::string, std::uint64_t> expected;
    bool errored = false;
    for (std::size_t i = 0; i < work.size(); ++i) {
        expected[work[i].first] = reference[i];
        if (!errors[i].empty()) {
            errored = true;
            report.line("  in-process run_forecast failed: " + work[i].first +
                        ": " + errors[i]);
        }
    }
    std::size_t bad = 0;
    for (const auto& o : outcomes) {
        if (!o.answered || !o.resp.ok) continue;
        const std::string key = srv::canonical_key(o.resp.executed);
        const auto it = expected.find(key);
        if (it != expected.end() && it->second == o.resp.fingerprint) {
            continue;
        }
        if (++bad <= 5) {
            report.line("  fingerprint mismatch, request " +
                        std::to_string(o.req.index) + " (" +
                        class_name(o.req.cls) + "): " + key);
        }
    }
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "serve_mixed: every answered fingerprint equals an "
                  "in-process run_forecast (%zu distinct products)",
                  work.size());
    report.check(bad == 0 && !errored, buf);
    return bad;
}

}  // namespace

void run_serve_mixed(const RunArgs& args, Tracer& tracer, Report& report) {
    report.set_resources(kWorkers, asuca::resolve_column_batch<double>(0));
    const std::string base =
        (args.out_dir.empty() ? std::string(".") : args.out_dir) +
        "/serve-" + std::to_string(::getpid());

    // The determinism property the seed relies on.
    {
        RequestMix a(args.seed), b(args.seed);
        bool same = true;
        for (int n = 0; n < 200 && same; ++n) {
            const auto x = a.next(), y = b.next();
            same = x && y && x->cls == y->cls &&
                   srv::canonical_key(srv::canonicalize(x->spec)) ==
                       srv::canonical_key(srv::canonicalize(y->spec));
        }
        report.check(same, "serve_mixed: the request mix is a function of "
                           "the seed");
    }

    // Set-up: server + durable store + analysis put + clients + warm-up.
    std::string blob;
    std::vector<double> setup_s;
    std::unique_ptr<Service> svc;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        svc.reset();
        const auto t0 = Clock::now();
        svc = start_service(base + "-" + std::to_string(rep), blob);
        setup_s.push_back(ms_since(t0) / 1e3);
    }
    auto& core = svc->server->core();
    const srv::ServerStats stats0 = core.stats();

    // The closed loop.
    asuca::KernelRegistry::global().reset();
    RequestMix mix(args.seed);
    std::mutex mix_mutex;
    bool exhausted = false;  // guarded by mix_mutex
    std::vector<std::vector<Outcome>> per_client(kClients);
    tracer.set_enabled(args.trace);
    const auto window = Clock::now();
    const auto deadline =
        window + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(args.seconds));
    std::vector<std::thread> load;
    for (std::size_t c = 0; c < kClients; ++c) {
        load.emplace_back([&, c] {
            auto& client = *svc->clients[c];
            while (Clock::now() < deadline) {
                Outcome o;
                {
                    std::lock_guard lock(mix_mutex);
                    auto next = mix.next();
                    if (!next) {
                        exhausted = true;
                        return;
                    }
                    o.req = std::move(*next);
                }
                o.traced = args.trace && o.req.index % 2 == 0;
                const auto t0 = Clock::now();
                try {
                    Tracer::Scope sc(tracer, "ForecastClient::forecast",
                                     o.req.index + 1, o.traced);
                    o.resp =
                        client.forecast(envelope(o.req.spec, o.req.index + 1));
                    o.answered = true;
                } catch (const std::exception& e) {
                    o.error = e.what();
                }
                o.rtt_ms = ms_since(t0);
                per_client[c].push_back(std::move(o));
                if (!per_client[c].back().answered) return;
            }
        });
    }
    for (auto& th : load) th.join();
    const double window_s = ms_since(window) / 1e3;
    tracer.set_enabled(false);
    const auto records = asuca::KernelRegistry::global().records();
    const srv::ServerStats stats1 = core.stats();

    std::vector<Outcome> outcomes;
    for (auto& v : per_client)
        for (auto& o : v) outcomes.push_back(std::move(o));
    std::sort(outcomes.begin(), outcomes.end(),
              [](const Outcome& a, const Outcome& b) {
                  return a.req.index < b.req.index;
              });

    // Idle wire round trips and store timings, traced runs only.
    std::vector<double> stats_us, put_ms, get_ms;
    bool reloads_ok = true;
    if (args.trace) {
        tracer.set_enabled(true);
        for (int n = 0; n < kStatsRoundTrips; ++n) {
            const auto t0 = Clock::now();
            Tracer::Scope sc(tracer, "ForecastClient::stats");
            (void)svc->clients.front()->stats();
            stats_us.push_back(ms_since(t0) * 1e3);
        }
        for (int n = 0; n < kStoreReps; ++n) {
            auto t0 = Clock::now();
            {
                Tracer::Scope sc(tracer, "CheckpointStore::put");
                core.checkpoints().put(kAnalysisKey, blob);
            }
            put_ms.push_back(ms_since(t0));
            // A fresh store instance on the same directory reads from
            // disk and verifies, as a restarted server would.
            srv::DurableCheckpointStore cold(
                srv::DurableStoreConfig{svc->dir});
            t0 = Clock::now();
            srv::CheckpointStore::Blob got;
            {
                Tracer::Scope sc(tracer, "CheckpointStore::get");
                got = cold.get(kAnalysisKey);
            }
            get_ms.push_back(ms_since(t0));
            reloads_ok = reloads_ok && got != nullptr && *got == blob;
        }
        report.check(reloads_ok, "store: every disk reload returns the "
                                 "stored blob");
        tracer.set_enabled(false);
    }
    svc.reset();  // drain and stop the server before the checks

    // Correctness and failure accounting.
    std::size_t answered = 0, failed = 0;
    for (const auto& o : outcomes) {
        report.attempt();
        if (!o.answered || !o.resp.ok) {
            ++failed;
            if (failed <= 5) {
                report.line("  failed request " + std::to_string(o.req.index) +
                            " (" + class_name(o.req.cls) + "): " +
                            (o.answered ? o.resp.error.detail : o.error));
            }
        } else {
            ++answered;
        }
    }
    failed += verify_fingerprints(outcomes, blob, report);
    report.fail(failed);
    report.check(answered >= 1, "serve_mixed: requests were answered");
    if (exhausted) {
        report.line("  note: the unique-key pools ran out before the "
                    "window ended");
    }

    // End-to-end.
    std::vector<double> rtt, rtt_traced, rtt_untraced;
    double delivered_cell_steps = 0.0;
    std::size_t full_res = 0, degraded = 0;
    const std::size_t hits = (stats1.dedup_hits - stats0.dedup_hits) +
                             (stats1.durable_hits - stats0.durable_hits);
    std::size_t repeats = 0;
    std::map<RequestClass, std::vector<double>> exec_by_class;
    std::vector<double> exec_ms, wait_ms, repeat_rtt;
    double exec_steps = 0.0, exec_total_ms = 0.0;
    for (const auto& o : outcomes) {
        if (!o.answered || !o.resp.ok) continue;
        rtt.push_back(o.rtt_ms);
        if (args.trace) {
            (o.traced ? rtt_traced : rtt_untraced).push_back(o.rtt_ms);
        }
        delivered_cell_steps += cell_steps(o.resp);
        full_res += o.resp.degrade_level == 0;
        degraded += o.resp.degrade_level > 0;
        const bool here = executed_here(o);
        repeats += o.req.cls == RequestClass::repeat;
        const double exec = here ? o.resp.latency_ms : 0.0;
        exec_ms.push_back(exec);
        if (here) {
            wait_ms.push_back(o.rtt_ms - exec);
            exec_by_class[o.req.cls].push_back(exec);
            exec_steps += static_cast<double>(o.resp.steps_run);
            exec_total_ms += exec;
        }
        if (o.req.cls == RequestClass::repeat) repeat_rtt.push_back(o.rtt_ms);
    }
    const Summary rs = summarize(rtt);
    const double n = static_cast<double>(rtt.size());
    char buf[240];
    std::snprintf(buf, sizeof(buf),
                  "serve_mixed: %zu answered in %.2f s, %zu clients, %zu "
                  "workers x 1 thread, queue %zu",
                  rtt.size(), window_s, kClients, kWorkers, kQueueCapacity);
    report.line(buf);
    report.line(describe("round trip", rtt, "ms"));
    report.line(describe("set-up", setup_s, "s"));
    std::snprintf(buf, sizeof(buf),
                  "  full_res_share %.4f (%zu / %zu answers), hit_share "
                  "%.4f (%zu server cache hits / %zu answers; %zu repeats)",
                  full_res / std::max(1.0, n), full_res, rtt.size(),
                  hits / std::max(1.0, n), hits, rtt.size(), repeats);
    report.line(buf);
    if (!args.trace) {
        report.metric("setup_s", quantile(setup_s, 0.5), "s", "lower");
        report.metric("op_ms_p50", rs.p50, "ms", "lower");
        report.metric("op_ms_p90", quantile(rtt, 0.9), "ms", "lower");
        report.metric("ops_per_s", n / window_s, "1/s", "higher");
        report.metric("mcell_steps_per_s",
                      delivered_cell_steps / window_s / 1e6, "Mcell-step/s",
                      "higher");
        return;
    }

    // Per-layer.
    emit_layer_defaults(report);
    const double step_ms = exec_steps > 0 ? exec_total_ms / exec_steps : 0.0;
    report.metric("core.step_ms", step_ms, "ms");
    report.metric("core.steps", exec_steps, "count");
    emit_kernel_metrics(report, records, exec_steps, 1.0, step_ms, {});
    report.metric("server.requests", n, "count");
    for (const auto cls : {RequestClass::cold, RequestClass::fork,
                           RequestClass::decomp, RequestClass::chaos}) {
        const auto& v = exec_by_class[cls];
        report.metric(std::string("server.exec_ms_p50.") + class_name(cls),
                      quantile(v, 0.5), "ms");
        report.line(describe(std::string("exec ") + class_name(cls), v,
                             "ms"));
    }
    report.metric("server.rtt_ms_p50.repeat", quantile(repeat_rtt, 0.5), "ms");
    report.line(describe("round trip repeat", repeat_rtt, "ms"));
    report.line(describe("wait (executed)", wait_ms, "ms"));
    report.line(describe("idle stats rtt", stats_us, "us"));
    report.line(describe("store put", put_ms, "ms"));
    report.line(describe("store get (disk)", get_ms, "ms"));
    const double exec_mean = mean(exec_ms);
    report.metric("server.exec_ms_mean", exec_mean, "ms");
    report.metric("server.wait_ms_mean", rs.mean - exec_mean, "ms");
    report.metric("server.wait_ms_p50", quantile(wait_ms, 0.5), "ms");
    report.metric("server.wait_ms_p90", quantile(wait_ms, 0.9), "ms");
    std::snprintf(buf, sizeof(buf),
                  "  round trip mean %.3f ms = exec %.3f ms + wait %.3f ms "
                  "(wire, admission, queue; hits count exec 0)",
                  rs.mean, exec_mean, rs.mean - exec_mean);
    report.line(buf);
    report.metric("server.hit_share", hits / std::max(1.0, n), "ratio");
    report.metric("server.full_res_share", full_res / std::max(1.0, n),
                  "ratio");
    report.metric("server.degraded", static_cast<double>(degraded), "count");
    report.metric("server.retried",
                  static_cast<double>(stats1.retried - stats0.retried),
                  "count");
    report.metric("wire.rtt_us_p50", quantile(stats_us, 0.5), "us");
    report.metric("store.put_ms", quantile(put_ms, 0.5), "ms");
    report.metric("store.get_ms", quantile(get_ms, 0.5), "ms");
    report.metric("store.blob_kb", static_cast<double>(blob.size()) / 1024.0,
                  "KB");
    const double chaos = quantile(exec_by_class[RequestClass::chaos], 0.5);
    const double decomp = quantile(exec_by_class[RequestClass::decomp], 0.5);
    report.metric("resilience.chaos_overhead",
                  decomp > 0.0 ? chaos / decomp - 1.0 : 0.0, "ratio");
    report_trace_overhead(report, rtt_traced, rtt_untraced,
                          "request spans");
}

}  // namespace perfbench
