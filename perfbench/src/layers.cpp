#include "layers.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

const std::vector<std::string>& timed_kernels() {
    static const std::vector<std::string> k = {
        "helmholtz_1d",         "theta_update_half",
        "boundary_ops",         "pgf_x_short",
        "pgf_y_short",          "diffusion",
        "advection_momentum_y", "advection_momentum_x",
        "advection_momentum_z", "theta_update",
        "continuity_update",    "density_theta_fused",
        "advection_theta",      "advection_qv",
        "eos_pressure",         "warm_rain",
        "precipitation"};
    return k;
}

const std::vector<std::string>& rated_kernels() {
    static const std::vector<std::string> k(timed_kernels().begin(),
                                            timed_kernels().begin() + 6);
    return k;
}

const std::vector<LayerMetric>& layer_metrics() {
    static const std::vector<LayerMetric> m = [] {
        std::vector<LayerMetric> out = {
            {"core.step_ms", "ms"},
            {"core.steps", "count"},
            {"core.kernel_ms_per_step", "ms"},
            {"core.unattributed_ms_per_step", "ms"},
            {"core.kernel_coverage", "ratio"},
        };
        for (const auto& k : timed_kernels())
            out.push_back({"kernel." + k + ".ms_per_step", "ms"});
        for (const auto& k : rated_kernels()) {
            out.push_back({"kernel." + k + ".gflops", "GFlop/s"});
            out.push_back({"kernel." + k + ".computed_mb", "MB"});
        }
        const std::vector<LayerMetric> rest = {
            {"parallel.step_ms_1t", "ms"},
            {"parallel.efficiency_4t", "ratio"},
            {"cluster.step_ms", "ms"},
            {"cluster.rank_compute_ms", "ms"},
            {"cluster.overhead_ms", "ms"},
            {"cluster.halo_mb_per_step", "MB"},
            {"cluster.halo_messages_per_step", "count"},
            {"cluster.scatter_ms", "ms"},
            {"cluster.gather_ms", "ms"},
            {"server.requests", "count"},
            {"server.exec_ms_p50.cold", "ms"},
            {"server.exec_ms_p50.fork", "ms"},
            {"server.exec_ms_p50.decomp", "ms"},
            {"server.exec_ms_p50.chaos", "ms"},
            {"server.rtt_ms_p50.repeat", "ms"},
            {"server.exec_ms_mean", "ms"},
            {"server.wait_ms_mean", "ms"},
            {"server.wait_ms_p50", "ms"},
            {"server.wait_ms_p90", "ms"},
            {"server.hit_share", "ratio"},
            {"server.full_res_share", "ratio"},
            {"server.degraded", "count"},
            {"server.retried", "count"},
            {"wire.rtt_us_p50", "us"},
            {"store.put_ms", "ms"},
            {"store.get_ms", "ms"},
            {"store.blob_kb", "KB"},
            {"resilience.chaos_overhead", "ratio"},
            {"trace.overhead", "ratio"},
        };
        out.insert(out.end(), rest.begin(), rest.end());
        return out;
    }();
    return m;
}

void emit_layer_defaults(Report& report) {
    for (const auto& m : layer_metrics()) report.metric(m.name, 0.0, m.unit);
}

void emit_kernel_metrics(Report& report,
                         const std::vector<asuca::KernelRecord>& records,
                         double steps, double ranks, double step_ms,
                         const std::map<std::string, double>& flops_per_el) {
    const double per = steps * ranks;
    if (per <= 0.0) return;
    double total_s = 0.0;
    for (const auto& r : records) total_s += r.seconds;
    const double kernel_ms = total_s * 1e3 / per;
    report.metric("core.kernel_ms_per_step", kernel_ms, "ms");
    report.metric("core.unattributed_ms_per_step", step_ms - kernel_ms, "ms");
    report.metric("core.kernel_coverage",
                  step_ms > 0.0 ? kernel_ms / step_ms : 0.0, "ratio");

    auto find = [&](const std::string& name) -> const asuca::KernelRecord* {
        for (const auto& r : records)
            if (r.name == name) return &r;
        return nullptr;
    };
    for (const auto& k : timed_kernels()) {
        const auto* r = find(k);
        report.metric("kernel." + k + ".ms_per_step",
                      r ? r->seconds * 1e3 / per : 0.0, "ms");
    }
    for (const auto& k : rated_kernels()) {
        const auto* r = find(k);
        if (r == nullptr) continue;
        const double elements = static_cast<double>(r->elements) / per;
        const double seconds = r->seconds / per;
        const double bytes =
            (r->traits.reads + r->traits.writes) * elements * sizeof(double);
        report.metric("kernel." + k + ".computed_mb", bytes / 1e6, "MB");
        const auto f = flops_per_el.find(k);
        if (f != flops_per_el.end() && seconds > 0.0) {
            report.metric("kernel." + k + ".gflops",
                          f->second * elements / seconds / 1e9, "GFlop/s");
        }
    }

    // Human-readable inventory, costliest first, with cumulative share.
    std::vector<asuca::KernelRecord> sorted = records;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) {
                  return a.seconds > b.seconds;
              });
    char buf[160];
    std::snprintf(buf, sizeof(buf), "\n  %-28s %12s %10s %8s",
                  "kernel (per rank, per step)", "ms", "share", "cum");
    report.line(buf);
    double cum = 0.0;
    for (const auto& r : sorted) {
        const double ms = r.seconds * 1e3 / per;
        cum += r.seconds;
        std::snprintf(buf, sizeof(buf), "  %-28s %12.3f %9.1f%% %7.1f%%",
                      r.name.c_str(), ms, 100.0 * r.seconds / total_s,
                      100.0 * cum / total_s);
        report.line(buf);
    }
    std::snprintf(buf, sizeof(buf),
                  "  step %.3f ms = kernels %.3f ms + unattributed %.3f ms",
                  step_ms, kernel_ms, step_ms - kernel_ms);
    report.line(buf);
}

}  // namespace perfbench
