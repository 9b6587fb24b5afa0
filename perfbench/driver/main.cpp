/**
 * @file
 * soff_perfbench: runs one benchmark workload and prints its metrics.
 *
 *   soff_perfbench --workload suite|launch_mix|compile --seed N
 *                  --seconds S --trace 0|1 [--max-ops N] [--plant-fault]
 *                  [--commit SHA] [--source-digest HEX] [--out-dir DIR]
 *
 * --trace 0 measures the end-to-end metrics: set-up (repeated, median)
 * then a closed loop for S seconds. --trace 1 runs one cycle of the
 * workload untraced, traced and untraced again (the difference is the
 * tracing overhead), then the layer pass, and reports the per-layer
 * metrics. --max-ops caps either at N ops (the self-test's short runs).
 * The last stdout line is the result object; the line before it holds
 * provenance. Spans and per-app rows go to --out-dir.
 */
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "workload.hpp"

using namespace perfbench;

namespace
{

constexpr int kSetups = 5;          ///< Set-ups per run; setup_s is the median.
constexpr uint64_t kMinOps = 100;   ///< So >= 10 ops lie beyond p90.
constexpr uint64_t kHoldoutSeed = 7919; ///< Reserved for held-out claims.

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    uint64_t maxOps = 0;
    bool plantFault = false;
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
    std::string outDir = ".bench_out";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr, "soff_perfbench: %s\n", why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--plant-fault") {
            a.plantFault = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string v = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--seed")
                a.seed = std::stoull(v);
            else if (flag == "--seconds")
                a.seconds = std::stod(v);
            else if (flag == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (flag == "--max-ops")
                a.maxOps = std::stoull(v);
            else if (flag == "--commit")
                a.commit = v;
            else if (flag == "--source-digest")
                a.sourceDigest = v;
            else if (flag == "--out-dir")
                a.outDir = v;
            else
                usage(("unknown flag " + flag).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (a.workload != "suite" && a.workload != "launch_mix" &&
        a.workload != "compile")
        usage("--workload must be suite, launch_mix or compile");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

std::unique_ptr<Workload>
makeWorkload(const Args &a)
{
    if (a.workload == "suite")
        return makeSuite(a.seed);
    if (a.workload == "launch_mix")
        return makeLaunchMix(a.seed);
    return makeCompile(a.seed);
}

/** A metric line of the result object. */
struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    if (v == std::floor(v) && std::fabs(v) < 9e15)
        std::snprintf(buf, sizeof buf, "%.0f", v);
    else
        std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Per-layer metrics: span medians and counters of the traced run. */
std::vector<Metric>
layerMetrics(const Tracer &t, const OpLog &traced, double p50u, double p50t)
{
    auto c = [&](const char *name) {
        auto it = t.counters().find(name);
        return it == t.counters().end() ? 0.0 : it->second;
    };
    std::vector<Metric> m;
    const std::pair<const char *, const char *> timed[] = {
        {"frontend.ms", "frontend"},
        {"frontend.reject_ms", "frontend.reject"},
        {"ir.verify_ms", "ir.verify"},
        {"transform.ms", "transform"},
        {"analysis.ms", "analysis"},
        {"datapath.plan_ms", "datapath.plan"},
        {"datapath.resource_ms", "datapath.resource"},
        {"verilog.emit_ms", "verilog.emit"},
        {"core.compile_ms", "core.compile"},
        {"runtime.context_open_ms", "runtime.context_open"},
        {"runtime.build_ms", "runtime.build"},
        {"runtime.enqueue_ms", "runtime.enqueue"},
        {"runtime.wait_ms", "runtime.wait"},
        {"sim.elaborate_ms", "sim.elaborate"},
        {"sim.first_run_ms", "sim.first_run"},
        {"sim.relaunch_ms", "sim.relaunch"},
        {"sim.run_ms", "sim.run"},
        {"benchsuite.host_cold_ms", "benchsuite.host_cold"},
        {"benchsuite.host_warm_ms", "benchsuite.host_warm"},
        {"baseline.host_ms", "baseline.host"},
        {"baseline.oracle_ms", "baseline.oracle"},
    };
    for (const auto &[metric, span] : timed)
        m.push_back({metric, t.medianSelfMs(span), "ms"});

    const char *counts[] = {
        "frontend.rejects", "ir.insts", "datapath.instances",
        "runtime.pool_hits", "runtime.pool_misses", "runtime.pool_steals",
        "runtime.commands_failed", "sim.cycles", "sim.cycles_active",
        "sim.component_steps", "sim.channel_commits", "sim.busy_cycles",
        "sim.stalled_cycles", "sim.components", "sim.channels",
        "memsys.cache_hits", "memsys.cache_misses",
        "memsys.cache_evictions", "memsys.dram_transfers",
        "memsys.local_accesses", "memsys.local_bank_conflicts",
    };
    for (const char *name : counts)
        m.push_back({name, c(name), "count"});
    m.push_back({"verilog.rtl_bytes", c("verilog.rtl_bytes"), "bytes"});
    m.push_back({"memsys.dram_bytes", c("memsys.dram_bytes"), "bytes"});
    m.push_back({"runtime.pool_hit_ratio",
                 ratio(c("runtime.pool_hits"),
                       c("runtime.pool_hits") + c("runtime.pool_misses") +
                           c("runtime.pool_steals")),
                 "ratio"});
    m.push_back({"sim.steps_per_active_cycle",
                 ratio(c("sim.component_steps"), c("sim.cycles_active")),
                 "ratio"});
    m.push_back({"memsys.cache_hit_ratio",
                 ratio(c("memsys.cache_hits"),
                       c("memsys.cache_hits") + c("memsys.cache_misses")),
                 "ratio"});
    m.push_back({"sim.ns_per_step", c("sim.ns_per_step"), "ns"});
    m.push_back({"sim.ns_per_cycle", c("sim.ns_per_cycle"), "ns"});

    // The workload's own traced cycle: its simulated cycles and
    // verdicts, and what tracing it cost.
    m.push_back({"sim_cycles", static_cast<double>(traced.simCycles),
                 "cycles"});
    m.push_back({"fail_ratio",
                 ratio(static_cast<double>(traced.failed),
                       static_cast<double>(traced.attempted)),
                 "ratio"});
    m.push_back({"trace.op_ms_p50_untraced", p50u, "ms"});
    m.push_back({"trace.overhead_ms_p50", p50t - p50u, "ms"});
    m.push_back({"trace.overhead_pct",
                 100.0 * ratio(p50t - p50u, p50u), "%"});
    m.push_back({"trace.spans", static_cast<double>(t.spans().size()),
                 "count"});
    return m;
}

int
runBenchmark(const Args &args)
{
#ifndef NDEBUG
    const bool release = false;
#else
    const bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#endif
    if (!release) {
        // Numbers count only from a Release build (NDEBUG, -O3).
        std::fprintf(stderr, "soff_perfbench: refusing to report from a "
                             "%s build; configure with "
                             "-DCMAKE_BUILD_TYPE=Release\n",
                     PERFBENCH_BUILD_TYPE);
        return 3;
    }

    std::printf("{\"provenance\": {\"workload\": %s, \"seed\": %llu, "
                "\"holdoutSeed\": %llu, \"seconds\": %s, \"trace\": %d, "
                "\"cores\": %u, \"buildType\": %s, \"compiler\": %s, "
                "\"commit\": %s, \"sourceDigest\": %s}}\n",
                jsonString(args.workload).c_str(),
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(kHoldoutSeed),
                number(args.seconds).c_str(), args.trace ? 1 : 0,
                std::thread::hardware_concurrency(),
                jsonString(PERFBENCH_BUILD_TYPE).c_str(),
                jsonString("g++ " __VERSION__).c_str(),
                jsonString(args.commit).c_str(),
                jsonString(args.sourceDigest).c_str());
    std::fflush(stdout);

    Tracer off(false);
    Tracer tracer(args.trace);
    std::vector<double> setup_s;
    std::unique_ptr<Workload> workload;
    for (int i = 0; i < kSetups; ++i) {
        workload.reset();
        int64_t t0 = nowNs();
        workload = makeWorkload(args);
        workload->setup(tracer);
        setup_s.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    if (args.plantFault)
        workload->plantFault();

    std::vector<Metric> metrics;
    uint64_t attempted = 0, failed = 0;
    if (!args.trace) {
        Budget budget;
        budget.deadlineNs =
            nowNs() + static_cast<int64_t>(args.seconds * 1e9);
        budget.minOps = kMinOps;
        budget.fixedOps = args.maxOps;
        OpLog log = workload->run(budget, off);
        Summary s = workload->summary(log);
        workload.reset();
        attempted = log.attempted;
        failed = log.failed;
        metrics = {
            {"setup_s", median(setup_s), "s"},
            {"ops_per_s", s.opsPerS, "ops/s"},
            {"op_ms_p50", s.p50Ms, "ms"},
            {"op_ms_p90", s.p90Ms, "ms"},
            {"peak_rss_mb", peakRssMb(), "MiB"},
        };
    } else {
        Budget budget;
        budget.fixedOps =
            args.maxOps > 0 ? args.maxOps : workload->cycleOps();
        // Untraced segments on both sides of the traced one, so warm-up
        // does not count as tracing overhead.
        OpLog untraced = workload->run(budget, off);
        OpLog traced = workload->run(budget, tracer);
        untraced.merge(workload->run(budget, off));
        double p50_untraced = workload->summary(untraced).p50Ms;
        double p50_traced = workload->summary(traced).p50Ms;
        workload.reset();
        std::filesystem::create_directories(args.outDir);
        std::string stem = args.outDir + "/" + args.workload + "_seed" +
                           std::to_string(args.seed);
        uint64_t layer_failures = runLayerPass(
            args.seed, args.workload != "launch_mix", tracer,
            stem + "_apps.json");
        tracer.writeJson(stem + "_spans.json");
        attempted = untraced.attempted + traced.attempted;
        failed = untraced.failed + traced.failed + layer_failures;
        metrics = layerMetrics(tracer, traced, p50_untraced, p50_traced);
    }

    std::string line = "{\"correct\": ";
    line += failed == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0)
            line += ", ";
        line += jsonString(metrics[i].name) + ": {\"value\": " +
                number(metrics[i].value) + ", \"unit\": " +
                jsonString(metrics[i].unit) + "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    try {
        return runBenchmark(args);
    } catch (const std::exception &e) {
        // Set-up failures and errors outside any op's checks: no result.
        std::fprintf(stderr, "soff_perfbench: %s\n", e.what());
        return 1;
    }
}
