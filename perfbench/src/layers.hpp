// The per-layer metric catalogue. Every traced run reports every name
// (0 where its workload does not exercise the layer), so one table lines
// up across workloads; BENCHMARK.json lists the same names.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "src/instrument/kernel_registry.hpp"

namespace perfbench {

struct LayerMetric {
    std::string name;
    std::string unit;
};

/// Kernels reported with ms_per_step: together they cover >= 90% of the
/// named-kernel time of integrate_sd on the reference host.
const std::vector<std::string>& timed_kernels();
/// The six costliest of them, also reported with gflops and computed_mb.
const std::vector<std::string>& rated_kernels();

const std::vector<LayerMetric>& layer_metrics();

/// Report every per-layer metric as 0, to be overwritten by the workload.
void emit_layer_defaults(Report& report);

/// Kernel metrics from registry records accumulated over `steps` long
/// steps of `ranks` concurrent ranks (per-rank time per step). With
/// calibrated FLOPs per element, also gflops and computed_mb. Also emits
/// the core step breakdown against `step_ms` (mean step wall time).
void emit_kernel_metrics(Report& report,
                         const std::vector<asuca::KernelRecord>& records,
                         double steps, double ranks, double step_ms,
                         const std::map<std::string, double>& flops_per_el);

}  // namespace perfbench
