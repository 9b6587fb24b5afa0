#include "runtime/runtime.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <thread>

#include "baseline/interpreter.hpp"
#include "runtime/launch_internal.hpp"
#include "sim/forensics.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace soff::rt
{

// ----------------------------------------------------------------------
// Device
// ----------------------------------------------------------------------
Device::Device(datapath::FpgaSpec fpga, uint64_t global_mem_bytes)
    : fpga_(std::move(fpga)), memory_(global_mem_bytes)
{
    // The reserved null line plus at least one allocatable line.
    if (global_mem_bytes < 128) {
        throw OpenClError(ClStatus::InvalidValue, strFormat(
            "device global memory of %llu bytes is below the 128-byte "
            "minimum",
            static_cast<unsigned long long>(global_mem_bytes)));
    }
    // Address 0 is reserved (null); carve the rest as one free block.
    blocks_.push_back({64, global_mem_bytes - 64, false});
}

uint64_t
Device::allocate(uint64_t bytes)
{
    if (bytes == 0) {
        throw OpenClError(ClStatus::InvalidBufferSize,
                          "zero-byte buffer allocation");
    }
    // Checked before rounding up, which would wrap near 2^64.
    if (bytes > memory_.size()) {
        throw OpenClError(ClStatus::MemObjectAllocationFailure,
                          "device global memory exhausted");
    }
    std::lock_guard<std::mutex> lock(mutex_);
    // 64-byte alignment keeps every scalar access within one cache line.
    uint64_t aligned = (bytes + 63) & ~63ull;
    for (size_t i = 0; i < blocks_.size(); ++i) {
        if (blocks_[i].used || blocks_[i].size < aligned)
            continue;
        uint64_t addr = blocks_[i].addr;
        uint64_t remaining = blocks_[i].size - aligned;
        blocks_[i].size = aligned;
        blocks_[i].used = true;
        if (remaining > 0) {
            // Note: insert first invalidates references into blocks_.
            blocks_.insert(blocks_.begin() + static_cast<ptrdiff_t>(i) + 1,
                           {addr + aligned, remaining, false});
        }
        return addr;
    }
    throw OpenClError(ClStatus::MemObjectAllocationFailure,
                      "device global memory exhausted");
}

void
Device::release(uint64_t addr)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < blocks_.size(); ++i) {
        if (blocks_[i].addr != addr || !blocks_[i].used)
            continue;
        blocks_[i].used = false;
        // Coalesce with free neighbors.
        if (i + 1 < blocks_.size() && !blocks_[i + 1].used) {
            blocks_[i].size += blocks_[i + 1].size;
            blocks_.erase(blocks_.begin() + static_cast<ptrdiff_t>(i) + 1);
        }
        if (i > 0 && !blocks_[i - 1].used) {
            blocks_[i - 1].size += blocks_[i].size;
            blocks_.erase(blocks_.begin() + static_cast<ptrdiff_t>(i));
        }
        return;
    }
    throw OpenClError(ClStatus::InvalidValue,
                      "release of unknown device address");
}

namespace
{

/** GlobalMemory's block API takes a uint32_t size; reject transfers
 *  that would silently truncate instead of wrapping the length. */
void
checkDmaSize(uint64_t size)
{
    if (size > UINT32_MAX) {
        throw OpenClError(ClStatus::InvalidValue, strFormat(
            "DMA transfer of %llu bytes exceeds the 4 GiB block limit",
            static_cast<unsigned long long>(size)));
    }
}

} // namespace

void
Device::dmaWrite(uint64_t addr, uint64_t size, const void *src)
{
    checkDmaSize(size);
    std::lock_guard<std::mutex> lock(mutex_);
    memory_.writeBlock(addr, static_cast<uint32_t>(size),
                       static_cast<const uint8_t *>(src));
}

void
Device::dmaRead(uint64_t addr, uint64_t size, void *dst) const
{
    checkDmaSize(size);
    std::lock_guard<std::mutex> lock(mutex_);
    memory_.readBlock(addr, static_cast<uint32_t>(size),
                      static_cast<uint8_t *>(dst));
}

int
Device::reconfigurations() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return reconfigurations_;
}

bool
Device::ensureResident(const std::string &kernel, bool all_fit)
{
    if (all_fit)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    if (resident_ == kernel)
        return false;
    ++reconfigurations_;
    resident_ = kernel;
    return true;
}

// ----------------------------------------------------------------------
// KernelHandle
// ----------------------------------------------------------------------
const std::string &
KernelHandle::name() const
{
    return compiled_->kernel->name();
}

size_t
KernelHandle::numArgs() const
{
    return compiled_->kernel->numArguments();
}

void
KernelHandle::checkIndex(size_t index, bool is_buffer) const
{
    if (index >= numArgs()) {
        throw OpenClError(ClStatus::InvalidArgIndex, strFormat(
            "kernel '%s' has %zu argument(s); index %zu out of range",
            name().c_str(), numArgs(), index));
    }
    const ir::Argument *arg = compiled_->kernel->argument(index);
    if (is_buffer != arg->type()->isPointer()) {
        throw OpenClError(ClStatus::InvalidArgValue, strFormat(
            "kernel '%s' argument %zu: %s expected", name().c_str(),
            index, arg->type()->isPointer() ? "a buffer" : "a scalar"));
    }
}

void
KernelHandle::setArg(size_t index, const Buffer &buffer)
{
    checkIndex(index, true);
    args_[index] = ir::RtValue::makeInt(buffer.deviceAddress());
    bufferArgs_[index] = {buffer.deviceAddress(), buffer.size()};
}

std::vector<std::pair<uint64_t, uint64_t>>
KernelHandle::bufferSpans() const
{
    std::vector<std::pair<uint64_t, uint64_t>> spans;
    spans.reserve(bufferArgs_.size());
    for (const auto &kv : bufferArgs_)
        spans.push_back(kv.second);
    return spans;
}

namespace
{

ir::RtValue
scalarArg(const ir::Argument *arg, double fp, uint64_t bits)
{
    if (arg->type()->isFloat())
        return ir::RtValue::makeFloat(
            arg->type()->bits() == 32
                ? static_cast<double>(static_cast<float>(fp)) : fp);
    return ir::RtValue::makeInt(ir::normalizeInt(arg->type(), bits));
}

} // namespace

void
KernelHandle::setArg(size_t index, int32_t v)
{
    checkIndex(index, false);
    args_[index] = scalarArg(compiled_->kernel->argument(index),
                             static_cast<double>(v),
                             static_cast<uint64_t>(static_cast<int64_t>(v)));
}

void
KernelHandle::setArg(size_t index, uint32_t v)
{
    checkIndex(index, false);
    args_[index] = scalarArg(compiled_->kernel->argument(index),
                             static_cast<double>(v), v);
}

void
KernelHandle::setArg(size_t index, int64_t v)
{
    checkIndex(index, false);
    args_[index] = scalarArg(compiled_->kernel->argument(index),
                             static_cast<double>(v),
                             static_cast<uint64_t>(v));
}

void
KernelHandle::setArg(size_t index, uint64_t v)
{
    checkIndex(index, false);
    args_[index] = scalarArg(compiled_->kernel->argument(index),
                             static_cast<double>(v), v);
}

void
KernelHandle::setArg(size_t index, float v)
{
    checkIndex(index, false);
    args_[index] = scalarArg(compiled_->kernel->argument(index),
                             static_cast<double>(v),
                             static_cast<uint64_t>(v));
}

void
KernelHandle::setArg(size_t index, double v)
{
    checkIndex(index, false);
    args_[index] = scalarArg(compiled_->kernel->argument(index), v,
                             static_cast<uint64_t>(v));
}

std::map<const ir::Argument *, ir::RtValue>
KernelHandle::argValues() const
{
    std::map<const ir::Argument *, ir::RtValue> values;
    for (size_t i = 0; i < numArgs(); ++i) {
        auto it = args_.find(i);
        if (it == args_.end()) {
            throw OpenClError(ClStatus::InvalidKernelArgs, strFormat(
                "kernel '%s' argument %zu was never set",
                name().c_str(), i));
        }
        values[compiled_->kernel->argument(i)] = it->second;
    }
    return values;
}

// ----------------------------------------------------------------------
// Program
// ----------------------------------------------------------------------
KernelHandle
Program::createKernel(const std::string &name)
{
    const core::CompiledKernel *ck = compiled_->findKernel(name);
    if (ck == nullptr) {
        throw OpenClError(ClStatus::InvalidKernelName,
                          "no kernel named '" + name + "' in program");
    }
    return KernelHandle(this, ck);
}

int
Program::instancesFor(const core::CompiledKernel &kernel) const
{
    // §III-B: all kernels resident together when they fit; otherwise
    // the region is reconfigured per kernel and each kernel gets the
    // whole device.
    bool all_fit = true;
    for (int n : compiled_->sharedInstanceCounts)
        all_fit &= n > 0;
    if (all_fit && compiled_->kernels.size() > 1) {
        for (size_t i = 0; i < compiled_->kernels.size(); ++i) {
            if (&compiled_->kernels[i] == &kernel)
                return compiled_->sharedInstanceCounts[i];
        }
    }
    return kernel.maxInstancesAlone;
}

bool
Program::needsReconfiguration(const core::CompiledKernel &kernel) const
{
    bool all_fit = true;
    for (int n : compiled_->sharedInstanceCounts)
        all_fit &= n > 0;
    if (all_fit)
        return false;
    return device_->residentKernel() != kernel.kernel->name();
}

// ----------------------------------------------------------------------
// Context
// ----------------------------------------------------------------------
namespace
{

/**
 * Strict cycle-bound parser for the SOFF_TRACE window: a bare decimal
 * uint64 (no sign, no whitespace, no trailing text). `what` and `spec`
 * feed the error message.
 */
uint64_t
parseCycleBound(const char *what, const std::string &text,
                const char *spec)
{
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    bool bare_digits =
        !text.empty() && text[0] >= '0' && text[0] <= '9';
    if (!bare_digits || end == text.c_str() || *end != '\0' ||
        errno == ERANGE) {
        throw OpenClError(ClStatus::InvalidValue, strFormat(
            "invalid SOFF_TRACE '%s': %s cycle '%s' is not a bare "
            "decimal integer (expected file.json or "
            "file.json:start:end)", spec, what, text.c_str()));
    }
    return v;
}

/**
 * Strict SOFF_TRACE parser. Grammar: "file.json" (trace the whole run)
 * or "file.json:start:end" (trace the half-open cycle window
 * [start, end)). A value containing any colon must carry a complete,
 * well-formed window — a lone ":start", non-numeric bounds, or
 * start >= end are rejected with CL_INVALID_VALUE rather than silently
 * tracing the wrong cycles.
 */
void
parseTraceSpec(const char *text, sim::PlatformConfig &plat)
{
    std::string spec(text);
    size_t last = spec.rfind(':');
    if (last == std::string::npos) {
        plat.tracePath = spec;
        return;
    }
    size_t first = last == 0 ? std::string::npos
                             : spec.rfind(':', last - 1);
    if (first == std::string::npos || first == 0) {
        throw OpenClError(ClStatus::InvalidValue, strFormat(
            "invalid SOFF_TRACE '%s': expected file.json or "
            "file.json:start:end (both window bounds required)", text));
    }
    uint64_t start = parseCycleBound(
        "start", spec.substr(first + 1, last - first - 1), text);
    uint64_t end = parseCycleBound("end", spec.substr(last + 1), text);
    if (start >= end) {
        throw OpenClError(ClStatus::InvalidValue, strFormat(
            "invalid SOFF_TRACE '%s': window start %llu must be below "
            "end %llu", text, static_cast<unsigned long long>(start),
            static_cast<unsigned long long>(end)));
    }
    plat.tracePath = spec.substr(0, first);
    plat.traceStart = start;
    plat.traceEnd = end;
}

/**
 * Environment overrides. SOFF_SCHEDULER selects the simulation kernel
 * by name ("reference", "event-driven", "compiled", "cross-check")
 * whenever the caller's config holds Compiled. That is the default, so
 * a caller that pins Compiled cannot be told apart from one that left
 * it and is overridden too; a caller that pins any other mode (tests,
 * benchmark baselines, the cross-check itself) is not affected.
 * SOFF_FAULTS installs a delay-only fault-injection plan
 * (sim/fault.hpp grammar) when the caller did not already configure
 * one. SOFF_TRACE enables the Chrome trace exporter and SOFF_STATS the
 * structured StatsReport export, each only when the caller did not
 * already set a path.
 */
void
applyEnvOverrides(sim::PlatformConfig &plat)
{
    if (plat.scheduler == sim::SchedulerMode::Compiled) {
        const char *name = std::getenv("SOFF_SCHEDULER");
        if (name != nullptr && *name != '\0') {
            sim::SchedulerMode mode;
            if (!sim::schedulerModeFromName(name, &mode)) {
                throw OpenClError(ClStatus::InvalidValue, strFormat(
                    "unknown SOFF_SCHEDULER '%s': valid values are "
                    "reference, event-driven, compiled, cross-check",
                    name));
            }
            plat.scheduler = mode;
        }
    }
    if (!plat.faults.enabled() && !plat.faults.checkInvariants) {
        const char *faults = std::getenv("SOFF_FAULTS");
        if (faults != nullptr && *faults != '\0') {
            try {
                plat.faults = sim::FaultConfig::parse(faults);
            } catch (const RuntimeError &e) {
                throw OpenClError(ClStatus::InvalidValue,
                                  std::string("invalid SOFF_FAULTS: ") +
                                  e.what());
            }
        }
    }
    if (plat.tracePath.empty()) {
        const char *trace = std::getenv("SOFF_TRACE");
        if (trace != nullptr && *trace != '\0')
            parseTraceSpec(trace, plat);
    }
    if (plat.statsPath.empty()) {
        const char *stats = std::getenv("SOFF_STATS");
        if (stats != nullptr && *stats != '\0')
            plat.statsPath = stats;
    }
}

/** One scheduler's complete outcome, for cross-check comparison. */
struct ModeRun
{
    sim::Simulator::RunResult run;
    sim::SchedulerStats sched;
    uint64_t retired = 0;
    /** Final global memory (outlives the verdict; not copied). */
    const memsys::GlobalMemory *mem = nullptr;
};

/**
 * CrossCheck verdict: every scheduler must be bit- and cycle-identical
 * to the synchronous reference. Cycle counts and StatsReports are
 * compared for completed runs only — on deadlock the reference reports
 * the heuristic idle-window cycle while the event-driven schedulers
 * report the exact quiescence cycle, by design.
 */
void
crossCheckCompare(const std::string &kernel, const char *mode,
                  const ModeRun &ref, const ModeRun &alt)
{
    auto fail = [&](const std::string &what) {
        throw RuntimeError("scheduler cross-check mismatch for kernel '" +
                           kernel + "' (reference vs " + mode +
                           "): " + what);
    };
    auto check = [&](const char *name, uint64_t a, uint64_t b) {
        if (a != b) {
            fail(strFormat("%s: reference=%llu %s=%llu", name,
                           static_cast<unsigned long long>(a), mode,
                           static_cast<unsigned long long>(b)));
        }
    };
    check("completed", ref.run.completed ? 1 : 0,
          alt.run.completed ? 1 : 0);
    check("deadlock", ref.run.deadlock ? 1 : 0, alt.run.deadlock ? 1 : 0);
    if (!ref.run.completed)
        return;
    check("cycles", ref.run.cycles, alt.run.cycles);
    check("retiredWorkItems", ref.retired, alt.retired);
    // The full architectural counter fabric — cache, DRAM and local
    // memory totals, per-component busy/stall cycles, token counts,
    // channel high-water marks, datapath retirement timing — must be
    // bit-identical.
    if (ref.run.stats != nullptr && alt.run.stats != nullptr) {
        std::string diff =
            sim::diffStatsReports(*ref.run.stats, *alt.run.stats);
        if (!diff.empty())
            fail("StatsReport: " + diff);
    }
    if (std::optional<uint64_t> at = ref.mem->firstDifference(*alt.mem)) {
        fail(strFormat("final global memory differs at address 0x%llx",
                       static_cast<unsigned long long>(*at)));
    }
}

/**
 * Structural equality of platform configs: the fields that shape the
 * built circuit (timing parameters, scheduler, FIFO sizing
 * overrides). Trace/stats export paths are observational and
 * deliberately excluded; fault configs never reach the pool (faulted
 * launches bypass it).
 */
bool
samePlatformStructure(const sim::PlatformConfig &a,
                      const sim::PlatformConfig &b)
{
    return a.dramLatency == b.dramLatency &&
           a.dramCyclesPerLine == b.dramCyclesPerLine &&
           a.scheduler == b.scheduler &&
           a.memRespWindowOverride == b.memRespWindowOverride &&
           a.balanceFifoCap == b.balanceFifoCap;
}

/** A kernel's out-of-bounds access, as the error the launch fails
 *  with: the process survives and the context stays usable. */
OpenClError
memoryFaultError(const core::CompiledKernel &ck,
                 const memsys::MemoryFault &fault)
{
    return OpenClError(ClStatus::OutOfResources,
                       "kernel '" + ck.kernel->name() +
                           "' accessed memory out of bounds: " +
                           fault.what());
}

} // namespace

std::unique_ptr<sim::KernelCircuit>
Program::takeCachedCircuit(const datapath::KernelPlan *plan,
                           int instances,
                           const sim::PlatformConfig &platform)
{
    std::lock_guard<std::mutex> lock(poolMutex_);
    for (PoolKey &key : circuitPool_) {
        if (key.plan != plan || key.instances != instances ||
            !samePlatformStructure(key.platform, platform))
            continue;
        if (key.parked.empty()) {
            // The key is known but every template is checked out by a
            // concurrent launch: the caller builds a duplicate.
            ++poolStats_.steals;
            return nullptr;
        }
        ++poolStats_.hits;
        // LIFO checkout: the most recently returned template.
        std::unique_ptr<sim::KernelCircuit> circuit =
            std::move(key.parked.back());
        key.parked.pop_back();
        return circuit;
    }
    ++poolStats_.misses;
    PoolKey key;
    key.plan = plan;
    key.instances = instances;
    key.platform = platform;
    circuitPool_.push_back(std::move(key));
    return nullptr;
}

void
Program::storeCachedCircuit(const datapath::KernelPlan *plan,
                            int instances,
                            const sim::PlatformConfig &platform,
                            std::unique_ptr<sim::KernelCircuit> circuit)
{
    std::lock_guard<std::mutex> lock(poolMutex_);
    for (PoolKey &key : circuitPool_) {
        if (key.plan != plan || key.instances != instances ||
            !samePlatformStructure(key.platform, platform))
            continue;
        key.parked.push_back(std::move(circuit));
        ++poolStats_.returns;
        return;
    }
    PoolKey key;
    key.plan = plan;
    key.instances = instances;
    key.platform = platform;
    key.parked.push_back(std::move(circuit));
    ++poolStats_.returns;
    circuitPool_.push_back(std::move(key));
}

size_t
Program::circuitCacheSize() const
{
    std::lock_guard<std::mutex> lock(poolMutex_);
    size_t parked = 0;
    for (const PoolKey &key : circuitPool_)
        parked += key.parked.size();
    return parked;
}

TemplatePoolStats
Program::templatePoolStats() const
{
    std::lock_guard<std::mutex> lock(poolMutex_);
    return poolStats_;
}

Buffer
Context::createBuffer(uint64_t size)
{
    return Buffer(device_.allocate(size), size);
}

void
Context::releaseBuffer(Buffer &buffer)
{
    if (buffer.valid()) {
        device_.release(buffer.deviceAddress());
        buffer = Buffer();
    }
}

void
Context::writeBuffer(const Buffer &buffer, const void *src, uint64_t size)
{
    if (size > buffer.size()) {
        throw OpenClError(ClStatus::InvalidValue,
                          "writeBuffer: size exceeds the buffer");
    }
    device_.dmaWrite(buffer.deviceAddress(), size, src);
}

void
Context::readBuffer(const Buffer &buffer, void *dst, uint64_t size)
{
    if (size > buffer.size()) {
        throw OpenClError(ClStatus::InvalidValue,
                          "readBuffer: size exceeds the buffer");
    }
    device_.dmaRead(buffer.deviceAddress(), size, dst);
}

Program
Context::buildProgram(const std::string &source,
                      const core::CompilerOptions &options)
{
    core::CompilerOptions opts = options;
    opts.fpga = device_.fpga();
    core::Compiler compiler(opts);
    return Program(device_, compiler.compile(source));
}

detail::CorePlan
Context::resolveLaunch(KernelHandle &kernel, const sim::NDRange &ndrange,
                       ExecutionMode mode,
                       const sim::PlatformConfig &platform,
                       int instance_override)
{
    const core::CompiledKernel &ck = kernel.compiled();
    for (int d = 0; d < 3; ++d) {
        if (ndrange.localSize[d] == 0 ||
            ndrange.globalSize[d] % ndrange.localSize[d] != 0) {
            throw OpenClError(ClStatus::InvalidWorkGroupSize,
                              "NDRange global size must be a multiple "
                              "of the work-group size");
        }
    }
    detail::CorePlan plan;
    plan.program = kernel.program();
    plan.ck = &ck;
    plan.launch.ndrange = ndrange;
    plan.launch.args = kernel.argValues();
    plan.mode = mode;
    if (mode == ExecutionMode::Reference)
        return plan;

    plan.instances = instance_override > 0
                         ? instance_override
                         : kernel.program()->instancesFor(ck);
    if (instance_override <= 0 && plan.instances <= 0) {
        throw OpenClError(
            ClStatus::OutOfResources,
            "kernel '" + ck.kernel->name() + "' does not fit the "
            "target FPGA (insufficient resources)");
    }
    plan.allFit = true;
    for (int n : kernel.program()->compiled().sharedInstanceCounts)
        plan.allFit &= n > 0;

    plan.maxCycles = ndrange.workBudget();

    plan.plat = platform;
    applyEnvOverrides(plan.plat);
    plan.crosscheck =
        plan.plat.scheduler == sim::SchedulerMode::CrossCheck;
    // Launch-visible-only fault plans (abortevery/dmaevery/poolevery
    // with the timing classes off) keep the circuit clean, so they
    // stay pool-eligible — the retry path depends on that ("re-run via
    // the template pool"), and the pool-checkout fault class needs a
    // pool to be injectable at all.
    plan.cacheable = !plan.crosscheck && plan.plat.tracePath.empty() &&
                     !plan.plat.faults.perturbsTiming() &&
                     !plan.plat.faults.checkInvariants;
    // Reliability layer: the deterministic fault ordinal and the buffer
    // spans the retry path snapshots/restores (a queue sets the
    // watchdog budget after return).
    plan.ordinal = nextCommandOrdinal();
    plan.bufferSpans = kernel.bufferSpans();
    return plan;
}

LaunchResult
Context::runLaunchCore(const detail::CorePlan &cp, uint64_t *duration_ns,
                       const std::atomic<bool> *cancel)
{
    *duration_ns = 0;
    LaunchResult result;
    if (cp.mode == ExecutionMode::Reference) {
        baseline::Interpreter interp(device_.globalMemory());
        try {
            interp.run(*cp.ck->kernel, cp.launch);
        } catch (const memsys::MemoryFault &e) {
            throw memoryFaultError(*cp.ck, e);
        } catch (const baseline::RunawayKernel &e) {
            throw OpenClError(ClStatus::OutOfResources,
                              "kernel '" + cp.ck->kernel->name() +
                                  "' " + e.what());
        }
        result.instances = 1;
        return result;
    }
    const core::CompiledKernel &ck = *cp.ck;
    const sim::LaunchContext &launch = cp.launch;
    int instances = cp.instances;
    // Watchdog: an explicit cycle budget (a queue's launchTimeoutCycles)
    // replaces the generous NDRange-derived heuristic cap and makes a
    // trip a distinct, forensics-carrying failure class.
    bool watchdog = cp.timeoutCycles > 0;
    uint64_t max_cycles = watchdog ? cp.timeoutCycles : cp.maxCycles;
    sim::PlatformConfig plat = cp.plat;

    // Injected launch abort: run only up to the seeded abort cycle; a
    // launch that would have completed before it never observes the
    // fault. Skipped under cross-check (the side runs would diverge).
    sim::FaultPlan rt_faults(plat.faults);
    uint64_t abort_at = 0;
    bool abort_armed =
        !cp.crosscheck &&
        rt_faults.launchAborts(cp.ordinal, cp.attempt, &abort_at) &&
        abort_at < max_cycles;
    uint64_t run_cap = abort_armed ? abort_at : max_cycles;

    device_.ensureResident(ck.kernel->name(), cp.allFit);

    bool crosscheck = cp.crosscheck;
    ModeRun ref_side, comp_side;
    std::unique_ptr<memsys::GlobalMemory> ref_memory, comp_memory;
    std::exception_ptr ref_error, comp_error;
    // Declared after everything the side runs touch: if the primary run
    // throws, unwinding joins them before that state is destroyed.
    std::vector<std::jthread> checkers;
    if (crosscheck) {
        // The three schedulers run concurrently: the reference and
        // compiled circuits each on a private copy of global memory
        // (atomics and stores must not be applied twice; a copy costs
        // the written extent, not the whole memory), the event-driven
        // circuit below on device memory — its effects are the ones
        // the caller keeps.
        ref_memory = std::make_unique<memsys::GlobalMemory>(
            device_.globalMemory());
        comp_memory = std::make_unique<memsys::GlobalMemory>(
            device_.globalMemory());
        // Set before the side runs start: each copies `plat`.
        plat.scheduler = sim::SchedulerMode::EventDriven;
        auto side_run = [&](sim::SchedulerMode mode,
                            memsys::GlobalMemory &memory, ModeRun &out,
                            std::exception_ptr &error) {
            try {
                sim::PlatformConfig p = plat;
                p.scheduler = mode;
                // Only the primary circuit exports trace/stats files;
                // the side runs exist to be compared, not observed.
                p.tracePath.clear();
                p.statsPath.clear();
                sim::KernelCircuit c(*ck.plan, launch, memory,
                                     instances, p);
                out.run = c.run(max_cycles);
                out.sched = c.simulator().schedulerStats();
                out.retired = c.retired();
                out.mem = &memory;
            } catch (...) {
                error = std::current_exception();
            }
        };
        checkers.emplace_back(side_run, sim::SchedulerMode::Reference,
                              std::ref(*ref_memory), std::ref(ref_side),
                              std::ref(ref_error));
        checkers.emplace_back(side_run, sim::SchedulerMode::Compiled,
                              std::ref(*comp_memory),
                              std::ref(comp_side), std::ref(comp_error));
    }

    // Circuit-template pool: reuse a previously built circuit for the
    // same (plan, instances, structural platform) via relaunch()
    // instead of rebuilding. Observational or perturbing modes
    // (cross-check, fault injection, tracing) bypass the pool; the
    // template is checked out on hit and only returned after a fully
    // successful run, so a throwing launch never parks a half-run
    // circuit.
    std::unique_ptr<sim::KernelCircuit> circuit;
    if (cp.cacheable) {
        if (rt_faults.poolCheckoutFails(cp.ordinal, cp.attempt)) {
            injPoolFaults_.fetch_add(1);
            throw TransientFault(
                TransientFaultKind::PoolCheckout,
                strFormat("injected template-pool checkout fault for "
                          "kernel '%s'",
                          ck.kernel->name().c_str()));
        }
        circuit = cp.program->takeCachedCircuit(ck.plan.get(),
                                                instances, plat);
    }
    sim::Simulator::RunResult run;
    try {
        if (circuit != nullptr) {
            circuit->relaunch(launch);
        } else {
            circuit = std::make_unique<sim::KernelCircuit>(
                *ck.plan, launch, device_.globalMemory(), instances,
                plat);
        }
        circuit->setStopFlag(cancel);
        run = circuit->run(run_cap);
        circuit->setStopFlag(nullptr);
    } catch (const sim::SimInternalError &e) {
        throw OpenClError(ClStatus::OutOfResources, e.what(),
                          e.report());
    } catch (const memsys::MemoryFault &e) {
        throw memoryFaultError(ck, e);
    }
    if (crosscheck) {
        for (std::jthread &t : checkers)
            t.join();
        if (ref_error)
            std::rethrow_exception(ref_error);
        if (comp_error)
            std::rethrow_exception(comp_error);
        ModeRun evt_side;
        evt_side.run = run;
        evt_side.sched = circuit->simulator().schedulerStats();
        evt_side.retired = circuit->retired();
        evt_side.mem = &device_.globalMemory();
        crossCheckCompare(ck.kernel->name(), "event-driven", ref_side,
                          evt_side);
        crossCheckCompare(ck.kernel->name(), "compiled", ref_side,
                          comp_side);
        // The compiled plan must not just produce the same results but
        // do the same amount of work: it sweeps exactly the
        // event-driven wake set, only in bucket order.
        if (evt_side.run.completed &&
            evt_side.sched.componentSteps !=
                comp_side.sched.componentSteps) {
            throw RuntimeError(strFormat(
                "scheduler cross-check mismatch for kernel '%s': "
                "componentSteps: event-driven=%llu compiled=%llu",
                ck.kernel->name().c_str(),
                static_cast<unsigned long long>(
                    evt_side.sched.componentSteps),
                static_cast<unsigned long long>(
                    comp_side.sched.componentSteps)));
        }
    }
    // Export trace/stats before the deadlock/timeout throw — stuck
    // runs are exactly when a cycle-level trace is most useful.
    if (!plat.tracePath.empty())
        circuit->writeTrace(plat.tracePath);
    if (!plat.statsPath.empty() && run.stats != nullptr)
        sim::writeStatsJson(*run.stats, plat.statsPath);
    if (run.deadlock) {
        std::string msg = strFormat(
            "kernel '%s' deadlocked after %llu cycles",
            ck.kernel->name().c_str(),
            static_cast<unsigned long long>(run.cycles));
        if (run.report != nullptr)
            msg += "\n" + run.report->render();
        throw OpenClError(ClStatus::OutOfResources, msg, run.report);
    }
    if (!run.completed) {
        // Cancellation wins over a coinciding injected abort; an
        // injected abort wins over the cycle budget (its cap is
        // strictly smaller).
        if (run.stopped) {
            throw OpenClError(
                ClStatus::SoffCommandCancelled,
                strFormat("kernel '%s' cancelled after %llu cycles",
                          ck.kernel->name().c_str(),
                          static_cast<unsigned long long>(run.cycles)));
        }
        if (abort_armed) {
            injLaunchAborts_.fetch_add(1);
            throw TransientFault(
                TransientFaultKind::LaunchAbort,
                strFormat("injected launch abort for kernel '%s' at "
                          "cycle %llu",
                          ck.kernel->name().c_str(),
                          static_cast<unsigned long long>(abort_at)));
        }
        std::string msg = strFormat(
            "kernel '%s' %s after %llu cycles",
            ck.kernel->name().c_str(),
            watchdog ? "hit the launch watchdog (cycle budget)"
                     : "timed out",
            static_cast<unsigned long long>(run.cycles));
        if (run.report != nullptr)
            msg += "\n" + run.report->render();
        throw OpenClError(watchdog ? ClStatus::SoffLaunchTimeout
                                   : ClStatus::OutOfResources,
                          msg, run.report);
    }
    result.cycles = run.cycles;
    result.instances = instances;
    result.sched = circuit->simulator().schedulerStats();
    result.statsReport = run.stats;
    // Park the circuit for the next matching launch.
    if (cp.cacheable)
        cp.program->storeCachedCircuit(ck.plan.get(), instances, plat,
                                       std::move(circuit));
    datapath::Resources used =
        ck.resourcesPerInstance.scaled(instances);
    result.fmaxMhz = datapath::estimateFmaxMhz(device_.fpga(), used);
    result.timeMs = static_cast<double>(run.cycles) /
                    (result.fmaxMhz * 1e3);
    // The command's occupancy on the profiling timeline: the simulated
    // cycle count converted through the fmax estimate.
    *duration_ns = static_cast<uint64_t>(std::ceil(
        static_cast<double>(run.cycles) * 1000.0 / result.fmaxMhz));
    return result;
}

LaunchResult
Context::enqueueNDRange(KernelHandle &kernel, const sim::NDRange &ndrange,
                        ExecutionMode mode,
                        const sim::PlatformConfig &platform,
                        int instance_override, Event *event)
{
    detail::CorePlan plan =
        resolveLaunch(kernel, ndrange, mode, platform, instance_override);
    uint64_t duration_ns = 0;
    LaunchResult result = runLaunchCore(plan, &duration_ns);
    if (mode == ExecutionMode::Reference)
        return result;

    // Advance the in-order device timeline and stamp the profiling
    // event: the launch occupies [START, END) where END - START is the
    // simulated cycle count converted through the fmax estimate, and
    // QUEUED -> SUBMIT models a fixed host-to-board doorbell cost.
    uint64_t queued_ns = clockNs_;
    uint64_t submit_ns = queued_ns + detail::kSubmitOverheadNs;
    clockNs_ = submit_ns + duration_ns;
    if (event != nullptr) {
        auto state = std::make_shared<detail::EventState>();
        state->status = CommandStatus::Complete;
        state->profiled = true;
        state->queuedNs = queued_ns;
        state->submitNs = submit_ns;
        state->startNs = submit_ns;
        state->endNs = clockNs_;
        state->stats = result.statsReport;
        *event = Event(std::move(state));
    }
    return result;
}

} // namespace soff::rt
