// The benchmark of record.
//
//   asuca_perfbench --workload <integrate_sd|integrate_2x2|serve_mixed>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--out-dir <dir>] [--commit <sha>]
//   asuca_perfbench --selftest            request-mix determinism test
//   asuca_perfbench --print-references    integrate_sd fingerprints
//
// Prints the workload's metrics by name with unit and direction, the
// host/build record, and as the LAST line one JSON object with
// correct/attempted/failed/metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 records spans around the public calls and reports
// the per-layer metrics instead. Exits 1 when a correctness check fails.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "request_mix.hpp"
#include "src/server/scenario.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "error: %s\nusage: asuca_perfbench --workload "
                 "<integrate_sd|integrate_2x2|serve_mixed> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>] "
                 "[--commit <sha>]\n",
                 why.c_str());
    std::exit(2);
}

/// Same seed => same request sequence; another seed => another one.
int selftest() {
    auto keys = [](std::uint64_t seed) {
        RequestMix mix(seed);
        std::string all;
        for (int n = 0; n < 2000; ++n) {
            const auto r = mix.next();
            if (!r) break;
            all += class_name(r->cls);
            all += asuca::server::canonical_key(
                asuca::server::canonicalize(r->spec));
            all += '\n';
        }
        return all;
    };
    const std::string a = keys(7), b = keys(7), c = keys(8);
    const bool same = a == b && !a.empty();
    const bool differs = a != c;
    std::printf("request mix: same seed -> same sequence: %s\n",
                same ? "ok" : "FAIL");
    std::printf("request mix: other seed -> other sequence: %s\n",
                differs ? "ok" : "FAIL");
    return same && differs ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    RunArgs args;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--selftest") return selftest();
        if (flag == "--print-references") {
            print_sd_references();
            return 0;
        }
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = end != nullptr && *end == '\0' && !value.empty();
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            have_seconds = end != nullptr && *end == '\0' &&
                           args.seconds > 0.0 && args.seconds <= 600.0;
        } else if (flag == "--trace") {
            have_trace = value == "0" || value == "1";
            args.trace = value == "1";
        } else if (flag == "--out-dir") {
            args.out_dir = value;
        } else if (flag == "--commit") {
            args.commit = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_seed || !have_seconds || !have_trace) {
        usage("--seed, --seconds and --trace need valid values");
    }

    Tracer tracer;
    Report report;
    try {
        if (args.workload == "integrate_sd") {
            run_integrate_sd(args, tracer, report);
        } else if (args.workload == "integrate_2x2") {
            run_integrate_2x2(args, tracer, report);
        } else if (args.workload == "serve_mixed") {
            run_serve_mixed(args, tracer, report);
        } else {
            usage("unknown workload '" + args.workload + "'");
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "benchmark failed: %s\n", e.what());
        return 1;
    }

    if (args.trace) {
        report.line("\n  span (benchmark-side)              count   total ms"
                    "    self ms");
        for (const auto& [name, t] : span_totals(tracer.spans())) {
            char buf[160];
            std::snprintf(buf, sizeof(buf), "  %-32s %7zu %10.1f %10.1f",
                          name.c_str(), t.count, t.total_ms, t.self_ms);
            report.line(buf);
        }
    }
    const asuca::io::JsonValue host = host_record(args, report);
    if (!args.out_dir.empty()) {
        const std::string stem = args.out_dir + "/" + args.workload + "-s" +
                                 std::to_string(args.seed) + "-t" +
                                 (args.trace ? "1" : "0");
        asuca::io::JsonValue record = report.result();
        record.set("host", host);
        std::ofstream(stem + ".json") << record.dump(0) << "\n";
        if (args.trace && !tracer.write(stem + ".trace.json")) {
            std::fprintf(stderr, "cannot write %s.trace.json\n",
                         stem.c_str());
        }
    }
    report.print(host);
    return report.correct() ? 0 : 1;
}
