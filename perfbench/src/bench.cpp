#include "bench.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <thread>

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace perfbench {

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
}

Summary summarize(const std::vector<double>& v) {
    Summary s;
    s.n = v.size();
    s.p50 = quantile(v, 0.5);
    s.mean = mean(v);
    for (const int pct : {99, 95, 90, 75}) {
        const double beyond =
            static_cast<double>(s.n) * (100.0 - pct) / 100.0;
        if (beyond >= 10.0) {
            s.tail_pct = pct;
            s.tail = quantile(v, pct / 100.0);
            break;
        }
    }
    return s;
}

std::string describe(const std::string& what, const std::vector<double>& v,
                     const std::string& unit) {
    const Summary s = summarize(v);
    char buf[200];
    if (s.tail_pct > 0) {
        std::snprintf(buf, sizeof(buf),
                      "  %-22s n=%-5zu p50 %10.3f  p%d %10.3f  mean %10.3f %s",
                      what.c_str(), s.n, s.p50, s.tail_pct, s.tail, s.mean,
                      unit.c_str());
    } else {
        std::snprintf(buf, sizeof(buf),
                      "  %-22s n=%-5zu p50 %10.3f  (too few samples for a "
                      "tail)  mean %10.3f %s",
                      what.c_str(), s.n, s.p50, s.mean, unit.c_str());
    }
    return buf;
}

// ---------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------

namespace {
thread_local std::vector<std::uint64_t> t_open_spans;

int thread_index() {
    static std::mutex m;
    static std::map<std::thread::id, int> ids;
    std::lock_guard lock(m);
    const auto [it, _] =
        ids.emplace(std::this_thread::get_id(), static_cast<int>(ids.size()));
    return it->second;
}
}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

double Tracer::now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
}

Tracer::Scope::Scope(Tracer& t, const char* name, std::uint64_t request,
                     bool record) {
    if (!t.enabled() || !record) return;
    tracer_ = &t;
    {
        std::lock_guard lock(t.mutex_);
        span_.id = t.next_id_++;
    }
    span_.parent = t_open_spans.empty() ? 0 : t_open_spans.back();
    span_.request = request;
    span_.name = name;
    span_.thread = thread_index();
    t_open_spans.push_back(span_.id);
    span_.start_us = t.now_us();
}

Tracer::Scope::~Scope() {
    if (tracer_ == nullptr) return;
    span_.end_us = tracer_->now_us();
    t_open_spans.pop_back();
    std::lock_guard lock(tracer_->mutex_);
    tracer_->spans_.push_back(std::move(span_));
}

std::vector<Span> Tracer::spans() const {
    std::lock_guard lock(mutex_);
    return spans_;
}

bool Tracer::write(const std::string& path) const {
    asuca::io::JsonArray events;
    for (const Span& s : spans()) {
        asuca::io::JsonValue args;
        args.set("id", static_cast<unsigned long long>(s.id));
        args.set("parent", static_cast<unsigned long long>(s.parent));
        args.set("request", static_cast<unsigned long long>(s.request));
        asuca::io::JsonValue e;
        e.set("name", s.name);
        e.set("ph", "X");
        e.set("pid", 1);
        e.set("tid", s.thread);
        e.set("ts", s.start_us);
        e.set("dur", s.end_us - s.start_us);
        e.set("args", std::move(args));
        events.push_back(std::move(e));
    }
    asuca::io::JsonValue doc;
    doc.set("traceEvents", std::move(events));
    std::ofstream out(path);
    out << doc.dump_compact() << "\n";
    return static_cast<bool>(out);
}

std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& s) {
    std::map<std::uint64_t, double> child_us;
    for (const Span& sp : s) {
        if (sp.parent != 0) child_us[sp.parent] += sp.end_us - sp.start_us;
    }
    std::map<std::string, SpanTotals> out;
    for (const Span& sp : s) {
        auto& t = out[sp.name];
        const double dur = sp.end_us - sp.start_us;
        t.count += 1;
        t.total_ms += dur / 1e3;
        const auto it = child_us.find(sp.id);
        t.self_ms += (dur - (it == child_us.end() ? 0.0 : it->second)) / 1e3;
    }
    return out;
}

// ---------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit, const std::string& better) {
    if (!std::isfinite(value)) {
        check(false, "metric " + name + " is not finite");
        value = 0.0;
    }
    for (auto& e : metrics_) {
        if (e.name == name) {
            e = {name, value, unit, better};
            return;
        }
    }
    metrics_.push_back({name, value, unit, better});
}

void Report::line(const std::string& text) { lines_.push_back(text); }

void Report::check(bool ok, const std::string& what) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "  check %-5s ", ok ? "ok" : "FAIL");
    lines_.push_back(buf + what);
    if (!ok) correct_ = false;
}

asuca::io::JsonValue Report::result() const {
    asuca::io::JsonValue metrics(asuca::io::JsonMembers{});
    for (const auto& e : metrics_) {
        asuca::io::JsonValue m;
        m.set("value", e.value);
        m.set("unit", e.unit);
        metrics.set(e.name, std::move(m));
    }
    asuca::io::JsonValue r;
    r.set("correct", correct());
    r.set("attempted", static_cast<unsigned long long>(attempted_));
    r.set("failed", static_cast<unsigned long long>(failed_));
    r.set("metrics", std::move(metrics));
    return r;
}

void Report::print(const asuca::io::JsonValue& host) const {
    for (const auto& l : lines_) std::printf("%s\n", l.c_str());
    std::printf("\n  %-40s %16s  %-14s %s\n", "metric", "value", "unit",
                "better");
    for (const auto& e : metrics_) {
        std::printf("  %-40s %16.6g  %-14s %s\n", e.name.c_str(), e.value,
                    e.unit.c_str(), e.better.c_str());
    }
    std::printf("\n  failed_share %.6g (%zu failed / %zu attempted)\n",
                attempted_ ? static_cast<double>(failed_) /
                                 static_cast<double>(attempted_)
                           : 0.0,
                failed_, attempted_);
    std::printf("host %s\n", host.dump_compact().c_str());
    std::printf("%s\n", result().dump_compact().c_str());
    std::fflush(stdout);
}

void report_trace_overhead(Report& report, const std::vector<double>& traced,
                           const std::vector<double>& untraced,
                           const std::string& what) {
    const double t = quantile(traced, 0.5), u = quantile(untraced, 0.5);
    const double overhead = u > 0.0 ? t / u - 1.0 : 0.0;
    report.metric("trace.overhead", overhead, "ratio");
    char buf[240];
    std::snprintf(buf, sizeof(buf),
                  "  tracing overhead (%s): traced p50 %.3f ms (n=%zu) vs "
                  "untraced p50 %.3f ms (n=%zu): %+.2f%%",
                  what.c_str(), t, traced.size(), u, untraced.size(),
                  100.0 * overhead);
    report.line(buf);
}

asuca::io::JsonValue host_record(const RunArgs& args, const Report& report) {
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    for (std::string l; std::getline(info, l);) {
        if (l.rfind("model name", 0) == 0) {
            const auto colon = l.find(':');
            if (colon != std::string::npos) {
                cpu = l.substr(colon + 1);
                cpu.erase(0, cpu.find_first_not_of(' '));
            }
            break;
        }
    }
    asuca::io::JsonValue h;
    h.set("workload", args.workload);
    h.set("seed", static_cast<unsigned long long>(args.seed));
    h.set("seconds", args.seconds);
    h.set("trace", args.trace ? 1 : 0);
    h.set("nproc", ::sysconf(_SC_NPROCESSORS_ONLN));
    h.set("cpu", cpu);
    h.set("compiler", PERFBENCH_COMPILER);
    h.set("flags", PERFBENCH_FLAGS);
    h.set("commit", args.commit);
    h.set("threads", static_cast<unsigned long long>(report.threads()));
    h.set("column_batch", report.column_batch());
    return h;
}

}  // namespace perfbench
