/**
 * @file
 * Host-side throughput of the simulation kernel itself: the same
 * applications executed under the synchronous reference scheduler, the
 * quiescence-aware event-driven scheduler, and the compiled scheduler
 * (identical simulated cycles by construction — see
 * tests/sim_sched_test.cpp), comparing
 * wall-clock time, simulated-cycles-per-second, and component steps
 * avoided. A high-DRAM-latency configuration makes the memory-bound
 * applications idle-heavy, which is where quiescence tracking pays; a
 * fast-DRAM configuration makes them pipeline-bound, where the
 * compiled sweep pays.
 *
 * Writes BENCH_sim.json next to the binary (consumed by CI).
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "benchsuite/suite.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

using namespace soff;
using benchsuite::App;
using benchsuite::BenchContext;
using benchsuite::Engine;

namespace
{

struct Workload
{
    const char *app;
    const char *config;  ///< "default" or "membound".
    int dramLatency;
    int dramCyclesPerLine;
};

struct Row
{
    Workload load;
    double refWallMs = 0.0;
    double evtWallMs = 0.0;
    double cmpWallMs = 0.0;
    uint64_t simCycles = 0;
    uint64_t refSteps = 0;
    uint64_t evtSteps = 0;
    uint64_t cmpSteps = 0;
    uint64_t evtCyclesActive = 0;
    int instances = 0;
    bool verified = false;
    /** Architectural counter context (event-driven run). */
    benchsuite::RunMetrics evtMetrics;
};

/** Runs one app on one scheduler; returns wall ms (simulation only —
 *  the compile happens outside the timed region). */
double
timedRun(const App &app, sim::SchedulerMode mode, const Workload &load,
         benchsuite::RunMetrics &metrics, bool &verified)
{
    BenchContext ctx(Engine::SoffSim);
    sim::PlatformConfig platform;
    platform.scheduler = mode;
    platform.dramLatency = load.dramLatency;
    platform.dramCyclesPerLine = load.dramCyclesPerLine;
    ctx.setPlatformConfig(platform);
    ctx.build(app.source);
    auto start = std::chrono::steady_clock::now();
    verified = app.host(ctx);
    auto stop = std::chrono::steady_clock::now();
    metrics = ctx.metrics();
    return std::chrono::duration<double, std::milli>(stop - start)
        .count();
}

/** One scheduler's best-of-N timing for a row. */
struct Variant
{
    explicit Variant(sim::SchedulerMode m) : mode(m) {}

    sim::SchedulerMode mode;
    double bestMs = 0.0;
    benchsuite::RunMetrics metrics;
    bool verified = true;
};

/**
 * Best-of-N timing of every scheduler on one workload: wall-clock noise
 * on shared hosts is one-sided (preemption only ever adds time), so the
 * minimum over seven repetitions estimates the true cost (with three,
 * one run in ten on a 4-core host read a compiled/event-driven row
 * ratio under the CI gate's 0.90 floor; with seven, no row read under
 * 1.05 in ten runs). Each
 * repetition runs all variants back to back (ref, evt, cmp, then the
 * next repetition), so a slow spell of the host lands on every variant
 * instead of covering all repetitions of one. Metrics come from the
 * last repetition (they are repetition-invariant — the simulation is
 * deterministic); a variant that fails to verify stops repeating.
 */
void
bestTimedRuns(const App &app, const Workload &load,
              std::vector<Variant> &variants)
{
    constexpr int kReps = 7;
    for (int rep = 0; rep < kReps; ++rep) {
        for (Variant &v : variants) {
            if (!v.verified)
                continue;
            double ms =
                timedRun(app, v.mode, load, v.metrics, v.verified);
            if (rep == 0 || ms < v.bestMs)
                v.bestMs = ms;
        }
    }
}

double
cyclesPerSec(uint64_t cycles, double wall_ms)
{
    return wall_ms > 0.0 ? 1e3 * static_cast<double>(cycles) / wall_ms
                         : 0.0;
}

} // namespace

int
main()
{
    // 112.spmv and 103.stencil are the memory-bound representatives;
    // gemm is the compute-bound control where stalls are rarer. Each
    // app runs in three memory regimes: "pipebound" (fast DRAM — the
    // datapath pipeline dominates, the compiled scheduler's home
    // turf), "default", and "membound" (slow DRAM — the generic
    // memory system dominates and the compiled sweep is mostly
    // bypassed).
    const std::vector<Workload> workloads = {
        {"103.stencil", "pipebound", 8, 1},
        {"112.spmv", "pipebound", 8, 1},
        {"gemm", "pipebound", 8, 1},
        {"103.stencil", "default", 40, 4},
        {"112.spmv", "default", 40, 4},
        {"gemm", "default", 40, 4},
        {"103.stencil", "membound", 400, 16},
        {"112.spmv", "membound", 400, 16},
        {"gemm", "membound", 400, 16},
    };

    std::printf("Simulation-kernel throughput: reference vs "
                "event-driven vs compiled\n");
    std::printf("%-14s %-9s %5s %10s %10s %10s %8s %12s\n",
                "Application", "config", "inst", "ref (ms)", "evt (ms)",
                "cmp (ms)", "cmp spd", "Mcyc/s cmp");

    std::vector<Row> rows;
    double max_speedup = 0.0;
    double compiled_speedup_log_sum = 0.0;
    int compiled_speedup_count = 0;
    for (const Workload &load : workloads) {
        const App *app = benchsuite::findApp(load.app);
        SOFF_ASSERT(app != nullptr, "unknown bench app");
        Row row;
        row.load = load;

        std::vector<Variant> variants = {
            Variant(sim::SchedulerMode::Reference),
            Variant(sim::SchedulerMode::EventDriven),
            Variant(sim::SchedulerMode::Compiled),
        };
        bestTimedRuns(*app, load, variants);
        const Variant &ref = variants[0];
        const Variant &evt = variants[1];
        const Variant &cmp = variants[2];
        row.refWallMs = ref.bestMs;
        row.evtWallMs = evt.bestMs;
        row.cmpWallMs = cmp.bestMs;
        const benchsuite::RunMetrics &ref_metrics = ref.metrics;
        const benchsuite::RunMetrics &evt_metrics = evt.metrics;
        const benchsuite::RunMetrics &cmp_metrics = cmp.metrics;
        // The compiled plan sweeps exactly the event-driven wake set,
        // so its step count must match it, not just the cycles.
        row.verified =
            ref.verified && evt.verified && cmp.verified &&
            ref_metrics.cycles == evt_metrics.cycles &&
            ref_metrics.cycles == cmp_metrics.cycles &&
            cmp_metrics.componentSteps == evt_metrics.componentSteps;
        row.simCycles = evt_metrics.cycles;
        row.refSteps = ref_metrics.componentSteps;
        row.evtSteps = evt_metrics.componentSteps;
        row.cmpSteps = cmp_metrics.componentSteps;
        row.evtCyclesActive = evt_metrics.cyclesActive;
        row.instances = evt_metrics.instances;
        row.evtMetrics = evt_metrics;
        double speedup =
            row.evtWallMs > 0.0 ? row.refWallMs / row.evtWallMs : 0.0;
        max_speedup = std::max(max_speedup, speedup);
        double cmp_speedup =
            row.cmpWallMs > 0.0 ? row.evtWallMs / row.cmpWallMs : 0.0;
        if (cmp_speedup > 0.0) {
            compiled_speedup_log_sum += std::log(cmp_speedup);
            ++compiled_speedup_count;
        }

        std::printf("%-14s %-9s %5d %10.2f %10.2f %10.2f %7.2fx "
                    "%12.2f%s\n",
                    load.app, load.config, row.instances, row.refWallMs,
                    row.evtWallMs, row.cmpWallMs, cmp_speedup,
                    cyclesPerSec(row.simCycles, row.cmpWallMs) / 1e6,
                    row.verified ? "" : "  [MISMATCH]");

        rows.push_back(row);
    }

    support::JsonWriter w;
    w.beginObject();
    w.field("benchmark", "sim_throughput");
    w.field("hardwareConcurrency", std::thread::hardware_concurrency());
    w.field("maxSpeedup", max_speedup);
    const double compiled_geomean =
        compiled_speedup_count > 0
            ? std::exp(compiled_speedup_log_sum /
                       compiled_speedup_count)
            : 0.0;
    w.field("compiledGeomean", compiled_geomean);
    w.key("rows").beginArray();
    for (const Row &r : rows) {
        w.beginObject();
        w.field("app", r.load.app);
        w.field("config", r.load.config);
        w.field("dramLatency", r.load.dramLatency);
        w.field("instances", r.instances);
        w.field("refWallMs", r.refWallMs);
        w.field("evtWallMs", r.evtWallMs);
        w.field("cmpWallMs", r.cmpWallMs);
        w.field("speedup",
                r.evtWallMs > 0.0 ? r.refWallMs / r.evtWallMs : 0.0);
        w.field("speedupCompiledVsEvt",
                r.cmpWallMs > 0.0 ? r.evtWallMs / r.cmpWallMs : 0.0);
        w.field("simCycles", r.simCycles);
        w.field("refCyclesPerSec", cyclesPerSec(r.simCycles, r.refWallMs));
        w.field("evtCyclesPerSec", cyclesPerSec(r.simCycles, r.evtWallMs));
        w.field("cmpCyclesPerSec", cyclesPerSec(r.simCycles, r.cmpWallMs));
        w.field("refComponentSteps", r.refSteps);
        w.field("evtComponentSteps", r.evtSteps);
        w.field("cmpComponentSteps", r.cmpSteps);
        w.field("evtCyclesActive", r.evtCyclesActive);
        w.field("verified", r.verified);

        // Architectural counter context from the event-driven run (the
        // counters are scheduler-invariant; see tests/stats_test.cpp).
        const benchsuite::RunMetrics &m = r.evtMetrics;
        uint64_t busy = 0, stalled = 0;
        for (const auto &report : m.statsReports) {
            busy += report->busyCycles;
            stalled += report->stalledCycles;
        }
        double lookups =
            static_cast<double>(m.cacheHits + m.cacheMisses);
        w.key("counters").beginObject();
        w.field("cacheHits", m.cacheHits);
        w.field("cacheMisses", m.cacheMisses);
        w.field("cacheHitRate",
                lookups > 0.0
                    ? static_cast<double>(m.cacheHits) / lookups
                    : 0.0);
        w.field("cacheEvictions", m.cacheEvictions);
        w.field("dramTransfers", m.dramTransfers);
        w.field("dramBytes", m.dramBytes);
        w.field("busyCycles", busy);
        w.field("stalledCycles", stalled);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    w.writeFile("BENCH_sim.json");

    bool all_verified = true;
    for (const Row &r : rows)
        all_verified = all_verified && r.verified;
    std::printf("\nmax wall-clock speedup: %.2fx (event-driven vs "
                "reference); compiled vs event-driven geomean %.2fx; "
                "results %s\n",
                max_speedup, compiled_geomean,
                all_verified ? "identical across schedulers"
                             : "MISMATCHED");
    return all_verified ? 0 : 1;
}
