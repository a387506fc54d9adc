// Shared pieces of the benchmark of record: clock helpers, sample
// statistics, the benchmark's own span recorder, and the metric report
// whose last stdout line is the machine-readable result.
//
// Everything here lives outside src/: the benchmark measures the
// program's layers from outside, by timing calls into their public
// functions and reading counters the program already exposes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/io/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point a) {
    return std::chrono::duration<double, std::milli>(Clock::now() - a)
        .count();
}

/// What one workload run was asked to do.
struct RunArgs {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir;  ///< where the span file and result record go
    std::string commit = "unknown";
};

// ---------------------------------------------------------------------
// Sample statistics.
// ---------------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0 for
/// an empty sample.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

/// A timing's median and its highest percentile that still has at least
/// ten samples beyond it (0 when fewer than 40 samples exist).
struct Summary {
    std::size_t n = 0;
    double p50 = 0.0;
    int tail_pct = 0;
    double tail = 0.0;
    double mean = 0.0;
};
Summary summarize(const std::vector<double>& v);
/// One output line: "<what> n=.. p50 .. p<tail> .. mean .. <unit>".
std::string describe(const std::string& what, const std::vector<double>& v,
                     const std::string& unit);

// ---------------------------------------------------------------------
// Spans: name, start, end, parent, kept in memory and written at exit.
// ---------------------------------------------------------------------

struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   ///< 0 = root
    std::uint64_t request = 0;  ///< shared by the spans of one request
    std::string name;
    double start_us = 0.0;      ///< since the recorder was created
    double end_us = 0.0;
    int thread = 0;
};

class Tracer {
  public:
    Tracer();

    /// Spans are recorded only while enabled; a disabled scope costs one
    /// branch.
    void set_enabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /// RAII span, recorded when the tracer is enabled and `record` holds.
    /// The parent is the innermost open scope on this thread.
    class Scope {
      public:
        Scope(Tracer& t, const char* name, std::uint64_t request = 0,
              bool record = true);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer* tracer_ = nullptr;  ///< null when tracing was off
        Span span_;
    };

    std::vector<Span> spans() const;
    /// Chrome trace-event JSON (Perfetto opens it); parents and request
    /// ids ride in each event's args.
    bool write(const std::string& path) const;

  private:
    double now_us() const;

    bool enabled_ = false;
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;  ///< guarded by mutex_
    std::uint64_t next_id_ = 1;  ///< guarded by mutex_
};

/// Per span name: count, total and self time (duration minus the part
/// covered by direct children), in ms.
struct SpanTotals {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
};
std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& s);

// ---------------------------------------------------------------------
// The report.
// ---------------------------------------------------------------------

class Report {
  public:
    /// Record one metric of the result line (the JSON "metrics" object).
    void metric(const std::string& name, double value,
                const std::string& unit, const std::string& better = "");

    /// Human-readable lines, printed before the result line.
    void line(const std::string& text);

    /// Count ops and failures; `check` records one correctness check.
    void attempt(std::size_t n = 1) { attempted_ += n; }
    void fail(std::size_t n = 1) { failed_ += n; }
    void check(bool ok, const std::string& what);

    /// The resolved compute resources the workload ran with.
    void set_resources(std::size_t threads, long long column_batch) {
        threads_ = threads;
        column_batch_ = column_batch;
    }
    std::size_t threads() const { return threads_; }
    long long column_batch() const { return column_batch_; }

    bool correct() const { return correct_ && failed_ == 0; }
    std::size_t attempted() const { return attempted_; }
    std::size_t failed() const { return failed_; }

    /// The result line: correct, attempted, failed and metrics.
    asuca::io::JsonValue result() const;
    /// Print the table, the host record and the result line (last).
    void print(const asuca::io::JsonValue& host) const;

  private:

    struct Entry {
        std::string name;
        double value;
        std::string unit;
        std::string better;
    };
    std::vector<Entry> metrics_;
    std::vector<std::string> lines_;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    bool correct_ = true;
    std::size_t threads_ = 0;
    long long column_batch_ = 0;
};

/// trace.overhead: traced p50 / untraced p50 - 1 of the same op, with a
/// line naming what the traced ops recorded.
void report_trace_overhead(Report& report, const std::vector<double>& traced,
                           const std::vector<double>& untraced,
                           const std::string& what);

/// Host and build record: nproc, CPU model, compiler and flags, commit,
/// resolved thread count and column-batch width, and the run's workload
/// and seed.
asuca::io::JsonValue host_record(const RunArgs& args, const Report& report);

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

void run_integrate_sd(const RunArgs& args, Tracer& tracer, Report& report);
void run_integrate_2x2(const RunArgs& args, Tracer& tracer, Report& report);
void run_serve_mixed(const RunArgs& args, Tracer& tracer, Report& report);

/// Recorded reference fingerprints of integrate_sd, printed fresh.
void print_sd_references();

/// Calibrated CountingReal FLOPs per element of each kernel, for the
/// mountain-wave configuration with or without warm-rain physics.
std::map<std::string, double> calibrated_flops_per_element(bool physics);

}  // namespace perfbench
