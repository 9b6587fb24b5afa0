/**
 * @file
 * The traced run's layer pass: a fixed input set driven through every
 * module's public entry points, with a span around each call and exact
 * counters read from the results. The input set does not depend on the
 * workload or the seed, so every counter here repeats exactly.
 *
 *  1. Staged compile of the 34 app sources and the launch_mix kernels:
 *     the calls core::Compiler::compile makes, one span each, checked
 *     against Compiler::compile itself; plus a truncated copy of each
 *     source that the frontend must reject.
 *  2. Every app cold (fresh Program), warm (same Program, template pool
 *     filled) and on the Reference engine; one per-app row each.
 *  3. Each launch_mix variant on a sim::KernelCircuit driven directly:
 *     elaborate, first run, relaunch, warm run.
 *  4. For workloads other than launch_mix, a fixed launch_mix segment,
 *     so queue, event and pool metrics exist on every workload.
 */
#include <algorithm>
#include <optional>

#include "analysis/features.hpp"
#include "datapath/resource.hpp"
#include "frontend/irgen.hpp"
#include "ir/verifier.hpp"
#include "launch_kernels.hpp"
#include "support/json.hpp"
#include "transform/passes.hpp"
#include "verilog/emit.hpp"
#include "workload.hpp"

using namespace soff;
using namespace soff::benchsuite;

namespace perfbench
{

namespace
{

/** Runs the compiler's stages one by one; returns failed checks. */
uint64_t
stagedCompile(const std::string &source, uint64_t cut_seed, Tracer &tracer)
{
    uint64_t failures = 0;
    std::unique_ptr<core::CompiledProgram> reference;
    {
        Tracer::Scope s(tracer, "core.compile");
        reference = core::Compiler().compile(source);
    }
    const core::CompilerOptions options;
    Tracer::Scope staged(tracer, "compile.staged");
    std::unique_ptr<ir::Module> module;
    {
        Tracer::Scope s(tracer, "frontend");
        module = fe::compileToIR(source, "program");
    }
    {
        Tracer::Scope s(tracer, "ir.verify");
        ir::verifyOrThrow(*module);
    }
    {
        Tracer::Scope s(tracer, "transform");
        transform::runStandardPipeline(*module);
    }
    {
        Tracer::Scope s(tracer, "ir.verify");
        ir::verifyOrThrow(*module);
    }
    tracer.count("ir.insts", static_cast<double>(countInstructions(*module)));

    std::vector<std::unique_ptr<datapath::KernelPlan>> plans;
    std::vector<const datapath::KernelPlan *> plan_ptrs;
    for (const auto &kernel : module->kernels()) {
        if (!kernel->isKernel())
            continue;
        {
            Tracer::Scope s(tracer, "analysis");
            analysis::scanKernelFeatures(*kernel);
        }
        {
            Tracer::Scope s(tracer, "datapath.plan");
            plans.push_back(datapath::planKernel(*kernel, options.plan));
        }
        int max_alone;
        {
            Tracer::Scope s(tracer, "datapath.resource");
            datapath::estimateInstance(*plans.back());
            max_alone = datapath::maxInstances(*plans.back(), options.fpga);
        }
        size_t k = plans.size() - 1;
        if (k >= reference->kernels.size() ||
            reference->kernels[k].maxInstancesAlone != max_alone)
            ++failures;
        plan_ptrs.push_back(plans.back().get());
    }
    std::vector<int> shared;
    {
        Tracer::Scope s(tracer, "datapath.resource");
        shared = datapath::partitionInstances(plan_ptrs, options.fpga);
    }
    if (plans.size() != reference->kernels.size() ||
        shared != reference->sharedInstanceCounts)
        return failures + 1;

    uint64_t rtl_bytes = 0;
    int instances = 0;
    {
        Tracer::Scope s(tracer, "verilog.emit");
        for (size_t k = 0; k < plans.size(); ++k) {
            int n = plannedInstances(*reference, k);
            instances += n;
            rtl_bytes += verilog::emitKernel(*plans[k], n).size() +
                         verilog::emitTop(*plans[k], n).size();
        }
    }
    tracer.count("datapath.instances", instances);
    tracer.count("verilog.rtl_bytes", static_cast<double>(rtl_bytes));

    std::string truncated = truncateLastKernel(source, cut_seed);
    try {
        Tracer::Scope s(tracer, "frontend.reject");
        fe::compileToIR(truncated, "program");
        ++failures;
    } catch (const CompileError &) {
        tracer.count("frontend.rejects", 1);
    }
    return failures;
}

/** Counters of one launch's StatsReport. */
void
countReport(const sim::StatsReport &r, Tracer &tracer)
{
    tracer.count("sim.busy_cycles", static_cast<double>(r.busyCycles));
    tracer.count("sim.stalled_cycles", static_cast<double>(r.stalledCycles));
    tracer.count("sim.components", static_cast<double>(r.components.size()));
    tracer.count("sim.channels", static_cast<double>(r.channels.size()));
    tracer.count("memsys.cache_hits", static_cast<double>(r.cacheHits));
    tracer.count("memsys.cache_misses", static_cast<double>(r.cacheMisses));
    tracer.count("memsys.cache_evictions",
                 static_cast<double>(r.cacheEvictions));
    tracer.count("memsys.dram_transfers",
                 static_cast<double>(r.dramTransfers));
    tracer.count("memsys.dram_bytes", static_cast<double>(r.dramBytes));
    tracer.count("memsys.local_accesses",
                 static_cast<double>(r.localAccesses));
    tracer.count("memsys.local_bank_conflicts",
                 static_cast<double>(r.localBankConflicts));
}

double
elapsedMs(int64_t since)
{
    return static_cast<double>(nowNs() - since) / 1e6;
}

/** One app cold, warm and on the Reference engine: counts its first
 *  launch's work, writes its row, returns whether every check held. */
bool
appRow(const App &app, BenchContext &cold, BenchContext &ref,
       Tracer &tracer, support::JsonWriter &rows)
{
    RunMetrics before = cold.metrics();
    bool ok = false;
    {
        Tracer::Scope s(tracer, "runtime.build");
        cold.build(app.source);
    }
    alignLikeFreshContext(cold.context());
    int64_t t0 = nowNs();
    try {
        Tracer::Scope s(tracer, "benchsuite.host_cold");
        ok = app.host(cold) && !app.expectInsufficientResources;
    } catch (const rt::OpenClError &e) {
        ok = app.expectInsufficientResources &&
             e.status() == ClStatus::OutOfResources;
    }
    double cold_ms = elapsedMs(t0);
    const RunMetrics &after = cold.metrics();
    uint64_t cycles = after.cycles - before.cycles;
    uint64_t steps = after.componentSteps - before.componentSteps;
    const std::map<std::string, uint64_t> &golden = goldenCycles();
    auto g = golden.find(app.name);
    ok = ok && (g == golden.end() || g->second == cycles);
    tracer.count("sim.cycles", static_cast<double>(cycles));
    tracer.count("sim.cycles_active",
                 static_cast<double>(after.cyclesActive - before.cyclesActive));
    tracer.count("sim.component_steps", static_cast<double>(steps));
    tracer.count("sim.channel_commits",
                 static_cast<double>(after.channelCommits -
                                     before.channelCommits));
    for (size_t i = before.statsReports.size();
         i < after.statsReports.size(); ++i)
        countReport(*after.statsReports[i], tracer);
    int instances = after.instances;

    double warm_ms = 0.0;
    if (!app.expectInsufficientResources) {
        uint64_t warm0 = cold.metrics().cycles;
        alignLikeFreshContext(cold.context());
        t0 = nowNs();
        {
            Tracer::Scope s(tracer, "benchsuite.host_warm");
            ok = app.host(cold) && ok;
        }
        warm_ms = elapsedMs(t0);
        ok = ok && cold.metrics().cycles - warm0 == cycles;
    }
    {
        Tracer::Scope s(tracer, "runtime.build");
        ref.build(app.source);
    }
    t0 = nowNs();
    {
        Tracer::Scope s(tracer, "baseline.host");
        ok = app.host(ref) && ok;
    }
    double ref_ms = elapsedMs(t0);

    rows.beginObject();
    rows.field("app", app.name);
    rows.field("verified", ok);
    rows.field("coldMs", cold_ms);
    rows.field("warmMs", warm_ms);
    rows.field("referenceMs", ref_ms);
    rows.field("cycles", cycles);
    if (g != golden.end())
        rows.field("goldenCycles", g->second);
    rows.field("componentSteps", steps);
    rows.field("instances", instances);
    rows.endObject();
    return ok;
}

/** Every app through appRow(); returns the failed apps. */
uint64_t
appPass(Tracer &tracer, support::JsonWriter &rows)
{
    std::optional<BenchContext> cold, ref;
    {
        Tracer::Scope s(tracer, "runtime.context_open");
        cold.emplace(Engine::SoffSim);
    }
    {
        Tracer::Scope s(tracer, "runtime.context_open");
        ref.emplace(Engine::Reference);
    }
    uint64_t failures = 0;
    for (const App &app : allApps()) {
        bool ok = false;
        try {
            ok = appRow(app, *cold, *ref, tracer, rows);
        } catch (const std::exception &) {
        }
        failures += ok ? 0 : 1;
    }
    return failures;
}

/** Drives every launch_mix variant on a KernelCircuit directly. */
uint64_t
circuitPass(Tracer &tracer)
{
    uint64_t failures = 0;
    std::unique_ptr<rt::Context> ctx;
    {
        Tracer::Scope s(tracer, "runtime.context_open");
        ctx = std::make_unique<rt::Context>();
    }
    std::optional<rt::Program> program;
    {
        Tracer::Scope s(tracer, "runtime.build");
        program.emplace(ctx->buildProgram(kLaunchKernels));
    }
    rt::Buffer in0 = ctx->createBuffer(kSlotBytes);
    rt::Buffer in1 = ctx->createBuffer(kSlotBytes);
    rt::Buffer out = ctx->createBuffer(kSlotBytes);
    memsys::GlobalMemory &memory = ctx->device().globalMemory();
    const std::vector<Variant> variants = makeVariants();
    const std::vector<VariantInputs> inputs = makeInputs(variants);
    std::vector<double> ns_per_step, ns_per_cycle;
    for (const Variant &v : variants) {
        const VariantInputs &in = inputs[static_cast<size_t>(v.id)];
        rt::KernelHandle kernel =
            program->createKernel(kLaunchAppNames[v.app]);
        sim::LaunchContext launch;
        launch.ndrange = bindVariant(v, kernel, in0, in1, out);
        launch.args = kernel.argValues();
        const core::CompiledKernel &ck = kernel.compiled();
        int instances = program->instancesFor(ck);
        // The runtime's default cycle cap for this NDRange.
        sim::Cycle cap = 1000000ull + launch.ndrange.totalWorkItems() * 50000ull;

        writeInputs(*ctx, v, in, in0, in1, out);
        std::unique_ptr<sim::KernelCircuit> circuit;
        {
            Tracer::Scope s(tracer, "sim.elaborate");
            circuit = std::make_unique<sim::KernelCircuit>(
                *ck.plan, launch, memory, instances);
        }
        sim::Simulator::RunResult first, warm;
        {
            Tracer::Scope s(tracer, "sim.first_run");
            first = circuit->run(cap);
        }
        std::vector<uint8_t> first_out(v.outBytes()), warm_out(v.outBytes());
        ctx->readBuffer(out, first_out.data(), first_out.size());

        writeInputs(*ctx, v, in, in0, in1, out);
        {
            Tracer::Scope s(tracer, "sim.relaunch");
            circuit->relaunch(launch);
        }
        int64_t t0 = nowNs();
        {
            Tracer::Scope s(tracer, "sim.run");
            warm = circuit->run(cap);
        }
        double run_ns = static_cast<double>(nowNs() - t0);
        ctx->readBuffer(out, warm_out.data(), warm_out.size());
        sim::SchedulerStats sched = circuit->simulator().schedulerStats();
        if (!first.completed || !warm.completed ||
            first.cycles != warm.cycles || first_out != warm_out ||
            sched.componentSteps == 0) {
            ++failures;
            continue;
        }
        ns_per_step.push_back(run_ns /
                              static_cast<double>(sched.componentSteps));
        ns_per_cycle.push_back(run_ns / static_cast<double>(warm.cycles));
    }
    tracer.count("sim.ns_per_step", median(ns_per_step));
    tracer.count("sim.ns_per_cycle", median(ns_per_cycle));
    return failures;
}

} // namespace

uint64_t
runLayerPass(uint64_t seed, bool include_launch_mix, Tracer &tracer,
             const std::string &apps_path)
{
    uint64_t failures = 0;
    std::vector<std::string> sources;
    for (const App &app : allApps())
        sources.push_back(app.source);
    sources.push_back(kLaunchKernels);
    for (size_t i = 0; i < sources.size(); ++i) {
        try {
            // Fixed truncation points: the pass is the same for every seed.
            failures += stagedCompile(sources[i], i, tracer);
        } catch (const std::exception &) {
            ++failures;
        }
    }

    support::JsonWriter rows;
    rows.beginObject();
    rows.field("seed", seed);
    rows.key("apps").beginArray();
    failures += appPass(tracer, rows);
    rows.endArray();
    rows.endObject();
    rows.writeFile(apps_path);

    failures += circuitPass(tracer);

    if (include_launch_mix) {
        std::unique_ptr<Workload> mix = makeLaunchMix(seed);
        mix->setup(tracer);
        Budget budget;
        budget.fixedOps = mix->cycleOps();
        failures += mix->run(budget, tracer).failed;
    }
    return failures;
}

} // namespace perfbench
