/**
 * @file
 * Long-haul reliability soak of the fault-tolerant launch engine: a
 * seeded generator of randomized launch sequences (six kernels, full
 * write->launch->read chains over rotating buffer slots, user-event
 * gates, chains spanning queues, occasional cancellations) crossed
 * with fault modes (off / launch-visible / launch-visible + timing),
 * retry policies, queue shapes, watchdog budgets, and launch-worker
 * counts.
 *
 * Three hard gates, checked per configuration and summarized as
 * `verifiedAll` in BENCH_soak.json:
 *
 *  1. Oracle: every chain either produces bytes identical to the
 *     reference-interpreter oracle, or fails with a *whitelisted,
 *     explained* status (surfaced transient fault, cancellation, or a
 *     dependency-containment skip behind one of those). Anything else
 *     — wrong bytes, an unexplained status, a watchdog trip with the
 *     generous budget — fails the soak.
 *  2. Accounting: every injected fault is accounted for — the
 *     context's ground-truth injection counters must equal
 *     faultsRetriedAway + faultsSurfaced summed over the queues
 *     (injected == observed ∪ retried-away; nothing vanishes).
 *  3. Determinism: for a fixed fault seed, the injection counters must
 *     be identical across worker counts (fault keys are enqueue
 *     ordinals, so the campaign a host observes cannot depend on how
 *     many workers happened to run it).
 *
 * Time-boxed: `launch_soak [chains_per_config] [budget_seconds]`.
 * Configurations are grouped by everything-but-workers; a group is
 * always completed (the determinism gate needs all its rows), and no
 * new group starts once the budget is spent. CI runs a ~90 s box with
 * fixed defaults; locally the full grid takes minutes, and larger
 * chain counts turn it into an hours-long burn-in.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

using namespace soff;
using namespace soff::rt;

namespace
{

const char *kKernels = R"CL(
__kernel void vadd(__global float* A, __global float* B,
                   __global float* C) {
  int g = get_global_id(0);
  C[g] = A[g] + B[g];
}
__kernel void saxpy(__global float* X, __global float* Y, float a) {
  int g = get_global_id(0);
  Y[g] = a * X[g] + Y[g];
}
__kernel void smooth(__global float* A, __global float* B, int iters) {
  __local float tile[16];
  int l = get_local_id(0);
  int g = get_global_id(0);
  tile[l] = A[g];
  for (int t = 0; t < iters; t++) {
    barrier(CLK_LOCAL_MEM_FENCE);
    float left = tile[l == 0 ? 0 : l - 1];
    float right = tile[l == 15 ? 15 : l + 1];
    barrier(CLK_LOCAL_MEM_FENCE);
    tile[l] = 0.5f * tile[l] + 0.25f * (left + right);
  }
  B[g] = tile[l];
}
__kernel void histo(__global int* A, __global int* H) {
  int g = get_global_id(0);
  atomic_add(&H[A[g] & 15], 1);
}
__kernel void stencil(__global float* A, __global float* C, int n) {
  int g = get_global_id(0);
  float left = g == 0 ? A[0] : A[g - 1];
  float right = g == n - 1 ? A[n - 1] : A[g + 1];
  C[g] = 0.25f * left + 0.5f * A[g] + 0.25f * right;
}
__kernel void reduce(__global float* A, __global float* R, int lsz) {
  __local float sc[32];
  int l = get_local_id(0);
  sc[l] = A[get_global_id(0)];
  barrier(CLK_LOCAL_MEM_FENCE);
  if (l == 0) {
    float s = 0.0f;
    for (int i = 0; i < lsz; i++) s += sc[i];
    R[get_group_id(0)] = s;
  }
}
)CL";

constexpr int kNumApps = 6;
const char *kAppNames[kNumApps] = {"vadd",  "saxpy",   "smooth",
                                   "histo", "stencil", "reduce"};
constexpr uint64_t kSlotBytes = 64 * 4;
constexpr size_t kSlots = 16;

/** One kernel variant; inputs are a pure function of the id. */
struct Variant
{
    int app = 0;
    uint32_t n = 0;
    uint32_t local = 0;
    int32_t scalar = 0;
    int id = 0;

    uint64_t
    outBytes() const
    {
        if (app == 3)
            return 16 * 4;
        if (app == 5)
            return n / local * 4;
        return n * 4;
    }
};

float
inputA(int variant, uint32_t i)
{
    return static_cast<float>(
               (static_cast<uint32_t>(variant) * 7 + i) % 13) *
           0.5f;
}

float
inputB(int variant, uint32_t i)
{
    return static_cast<float>(
               (static_cast<uint32_t>(variant) * 3 + i) % 9) *
           0.25f;
}

std::vector<Variant>
makeVariants()
{
    std::vector<Variant> variants;
    const uint32_t sizes[3] = {16, 32, 64};
    int id = 0;
    for (int app = 0; app < kNumApps; ++app) {
        for (uint32_t n : sizes) {
            Variant v;
            v.app = app;
            v.n = n;
            switch (app) {
              case 2:
                v.local = 16;
                v.scalar = 2;
                break;
              case 5:
                v.local = n >= 32 ? 32 : 16;
                v.scalar = static_cast<int32_t>(v.local);
                break;
              default:
                v.local = n >= 32 ? 16 : 8;
                v.scalar = 3;
                break;
            }
            v.id = id++;
            variants.push_back(v);
        }
    }
    return variants;
}

/** Seeded chain schedule (LCG; the soak's only randomness source). */
std::vector<int>
makeSchedule(uint64_t seed, size_t chains, size_t num_variants)
{
    std::vector<int> schedule;
    schedule.reserve(chains);
    uint64_t s = seed * 0x9e3779b97f4a7c15ull + 1;
    for (size_t i = 0; i < chains; ++i) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        schedule.push_back(static_cast<int>((s >> 33) % num_variants));
    }
    return schedule;
}

struct VariantInputs
{
    std::vector<float> a;
    std::vector<float> b;
    std::vector<int32_t> ints;
    std::vector<int32_t> zeros;
};

std::vector<VariantInputs>
makeInputs(const std::vector<Variant> &variants)
{
    std::vector<VariantInputs> inputs(variants.size());
    for (const Variant &v : variants) {
        VariantInputs &in = inputs[static_cast<size_t>(v.id)];
        in.a.resize(v.n);
        in.b.resize(v.n);
        for (uint32_t i = 0; i < v.n; ++i) {
            in.a[i] = inputA(v.id, i);
            in.b[i] = inputB(v.id, i);
        }
        if (v.app == 3) {
            in.ints.resize(v.n);
            for (uint32_t i = 0; i < v.n; ++i)
                in.ints[i] = static_cast<int32_t>(
                    (static_cast<uint32_t>(v.id) * 7 + i) % 13);
            in.zeros.assign(16, 0);
        }
    }
    return inputs;
}

sim::NDRange
bindVariant(const Variant &v, KernelHandle &kernel, const Buffer &in0,
            const Buffer &in1, const Buffer &out)
{
    switch (v.app) {
      case 0:
        kernel.setArg(0, in0);
        kernel.setArg(1, in1);
        kernel.setArg(2, out);
        break;
      case 1:
        kernel.setArg(0, in0);
        kernel.setArg(1, out);
        kernel.setArg(2, static_cast<float>(v.scalar));
        break;
      case 3:
        kernel.setArg(0, in0);
        kernel.setArg(1, out);
        break;
      case 4:
        kernel.setArg(0, in0);
        kernel.setArg(1, out);
        kernel.setArg(2, static_cast<int32_t>(v.n));
        break;
      default: // smooth / reduce
        kernel.setArg(0, in0);
        kernel.setArg(1, out);
        kernel.setArg(2, v.scalar);
        break;
    }
    sim::NDRange nd;
    nd.globalSize[0] = v.n;
    nd.localSize[0] = v.local;
    return nd;
}

std::vector<Event>
enqueueInputs(CommandQueue &queue, const Variant &v,
              const VariantInputs &in, const Buffer &in0,
              const Buffer &in1, const Buffer &out)
{
    std::vector<Event> done;
    Event w;
    switch (v.app) {
      case 0:
        queue.enqueueWrite(in0, in.a.data(), v.n * 4, {}, &w);
        done.push_back(w);
        queue.enqueueWrite(in1, in.b.data(), v.n * 4, {}, &w);
        done.push_back(w);
        break;
      case 1:
        queue.enqueueWrite(in0, in.a.data(), v.n * 4, {}, &w);
        done.push_back(w);
        queue.enqueueWrite(out, in.b.data(), v.n * 4, {}, &w);
        done.push_back(w);
        break;
      case 3:
        queue.enqueueWrite(in0, in.ints.data(), v.n * 4, {}, &w);
        done.push_back(w);
        queue.enqueueWrite(out, in.zeros.data(), 16 * 4, {}, &w);
        done.push_back(w);
        break;
      default:
        queue.enqueueWrite(in0, in.a.data(), v.n * 4, {}, &w);
        done.push_back(w);
        break;
    }
    return done;
}

/** Reference-interpreter oracle per variant (side context). */
std::vector<std::vector<uint8_t>>
makeOracles(const std::vector<Variant> &variants,
            const std::vector<VariantInputs> &inputs)
{
    Context ctx;
    Program program = ctx.buildProgram(kKernels);
    std::vector<KernelHandle> kernels;
    for (const char *name : kAppNames)
        kernels.push_back(program.createKernel(name));
    Buffer in0 = ctx.createBuffer(kSlotBytes);
    Buffer in1 = ctx.createBuffer(kSlotBytes);
    Buffer out = ctx.createBuffer(kSlotBytes);
    std::vector<std::vector<uint8_t>> oracles(variants.size());
    for (const Variant &v : variants) {
        const VariantInputs &in = inputs[static_cast<size_t>(v.id)];
        switch (v.app) {
          case 0:
            ctx.writeBuffer(in0, in.a.data(), v.n * 4);
            ctx.writeBuffer(in1, in.b.data(), v.n * 4);
            break;
          case 1:
            ctx.writeBuffer(in0, in.a.data(), v.n * 4);
            ctx.writeBuffer(out, in.b.data(), v.n * 4);
            break;
          case 3:
            ctx.writeBuffer(in0, in.ints.data(), v.n * 4);
            ctx.writeBuffer(out, in.zeros.data(), 16 * 4);
            break;
          default:
            ctx.writeBuffer(in0, in.a.data(), v.n * 4);
            break;
        }
        KernelHandle &kernel = kernels[static_cast<size_t>(v.app)];
        sim::NDRange nd = bindVariant(v, kernel, in0, in1, out);
        ctx.enqueueNDRange(kernel, nd, ExecutionMode::Reference);
        std::vector<uint8_t> bytes(v.outBytes());
        ctx.readBuffer(out, bytes.data(), bytes.size());
        oracles[static_cast<size_t>(v.id)] = std::move(bytes);
    }
    return oracles;
}

enum class FaultMode
{
    Off,    ///< No injection; with occasional cancellations instead.
    Launch, ///< Launch-visible classes only (pool stays usable).
    Mixed,  ///< Launch-visible + delay-only timing faults.
};

const char *
faultModeName(FaultMode m)
{
    switch (m) {
      case FaultMode::Off: return "off";
      case FaultMode::Launch: return "launch";
      case FaultMode::Mixed: return "mixed";
    }
    return "?";
}

sim::FaultConfig
faultConfigFor(FaultMode mode, uint64_t seed)
{
    sim::FaultConfig fc;
    if (mode == FaultMode::Off)
        return fc; // seed 0: disabled.
    fc.seed = seed;
    if (mode == FaultMode::Launch) {
        // Zero the timing classes: launches stay pool-cacheable and
        // the pool-checkout fault class is reachable.
        fc.stallProb = 0.0;
        fc.memStallProb = 0.0;
        fc.dramSpikeEvery = 0;
        fc.dramJitterMax = 0;
        fc.fifoSlackCut = 0;
    }
    // Sparse launch-visible rates: most commands run clean, a steady
    // trickle hits the error/retry paths.
    fc.abortEvery = 37;
    fc.dmaFailEvery = 41;
    fc.poolFailEvery = 43;
    return fc;
}

struct SoakConfig
{
    int workers = 1;
    bool outOfOrder = false;
    int retry = 0;
    FaultMode faults = FaultMode::Off;
    uint64_t timeoutCycles = 0;
    bool cancels = false;
    uint64_t seed = 1;

    /** Everything but the worker count: rows sharing a group must
     *  observe identical fault campaigns (the determinism gate). */
    std::string
    groupKey() const
    {
        char buf[128];
        std::snprintf(buf, sizeof buf, "%s/retry%d/%s/wd%llu/%s/s%llu",
                      outOfOrder ? "ooo" : "inorder", retry,
                      faultModeName(faults),
                      static_cast<unsigned long long>(timeoutCycles),
                      cancels ? "cancel" : "nocancel",
                      static_cast<unsigned long long>(seed));
        return buf;
    }
};

struct SoakResult
{
    double wallMs = 0.0;
    uint64_t chains = 0;
    uint64_t verifiedChains = 0;  ///< Bytes identical to the oracle.
    uint64_t explainedChains = 0; ///< Whitelisted failure status.
    uint64_t mismatches = 0;      ///< Success status, wrong bytes.
    uint64_t unexplained = 0;     ///< Any other failure status.
    uint64_t watchdogTrips = 0;   ///< Must be 0 (generous budgets).
    ReliabilityStats stats;       ///< Summed over both queues.
    InjectedFaultCounters injected;
    bool accounted = false; ///< injected == retriedAway + surfaced.
};

/** One chain's host-side record. */
struct Chain
{
    int variant = 0;
    Event launch;
    Event read;
    bool cancelled = false;
    std::vector<uint8_t> bytes;
};

SoakResult
runSoak(const SoakConfig &cfg, const std::vector<Variant> &variants,
        const std::vector<VariantInputs> &inputs,
        const std::vector<std::vector<uint8_t>> &oracles,
        const std::vector<int> &schedule)
{
    Context ctx;
    Program program = ctx.buildProgram(kKernels);
    std::vector<KernelHandle> kernels;
    for (const char *name : kAppNames)
        kernels.push_back(program.createKernel(name));
    struct Slot
    {
        Buffer in0, in1, out;
        Event lastRead;
    };
    std::vector<Slot> slots(kSlots);
    for (Slot &slot : slots) {
        slot.in0 = ctx.createBuffer(kSlotBytes);
        slot.in1 = ctx.createBuffer(kSlotBytes);
        slot.out = ctx.createBuffer(kSlotBytes);
    }
    QueueOptions options;
    options.outOfOrder = cfg.outOfOrder;
    options.workers = cfg.workers;
    options.maxInFlight = 128;
    options.retry.attempts = cfg.retry;
    options.launchTimeoutCycles = cfg.timeoutCycles;
    options.faults = faultConfigFor(cfg.faults, cfg.seed);
    CommandQueue queue_a(ctx, options);
    CommandQueue queue_b(ctx, options);

    std::vector<Chain> chains(schedule.size());
    Event gate;
    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < schedule.size(); ++i) {
        const Variant &v = variants[static_cast<size_t>(schedule[i])];
        const VariantInputs &in = inputs[static_cast<size_t>(v.id)];
        Slot &slot = slots[i % kSlots];
        CommandQueue &queue = i % 2 == 0 ? queue_a : queue_b;
        // The slot's previous chain may have *failed*; its read event
        // completing (with any status) still means the slot's commands
        // are over. Wait host-side and drop the event rather than
        // passing a possibly-failed event on (which would, by the
        // containment rules, fail the new chain too).
        if (slot.lastRead.attached()) {
            try {
                slot.lastRead.wait();
            } catch (...) {
                // Failure was already delivered through the event.
            }
        }
        // A fresh user-event gate every 11 chains; the previous one is
        // opened so gated chains never outlive the next slot cycle.
        if (i % 11 == 7) {
            if (gate.attached())
                gate.setComplete();
            gate = ctx.createUserEvent();
        }
        std::vector<Event> waits = enqueueInputs(
            queue, v, in, slot.in0, slot.in1, slot.out);
        if (i % 11 == 7)
            waits.push_back(gate);
        KernelHandle &kernel = kernels[static_cast<size_t>(v.app)];
        sim::NDRange nd =
            bindVariant(v, kernel, slot.in0, slot.in1, slot.out);
        Chain &chain = chains[i];
        chain.variant = v.id;
        queue.enqueueNDRange(kernel, nd, waits, &chain.launch);
        chain.bytes.resize(v.outBytes());
        // Every fifth read lands on the *other* queue: dependency
        // chains spanning queues.
        CommandQueue &read_queue =
            i % 5 == 0 ? (i % 2 == 0 ? queue_b : queue_a) : queue;
        read_queue.enqueueRead(slot.out, chain.bytes.data(),
                               chain.bytes.size(), {chain.launch},
                               &slot.lastRead);
        chain.read = slot.lastRead;
        if (cfg.cancels && i % 13 == 5) {
            chain.launch.cancel();
            chain.cancelled = true;
        }
    }
    if (gate.attached())
        gate.setComplete();
    for (CommandQueue *q : {&queue_a, &queue_b}) {
        try {
            q->finish();
        } catch (const OpenClError &) {
            // Per-command failures were delivered through the events
            // and are classified below.
        }
    }
    auto stop = std::chrono::steady_clock::now();

    SoakResult r;
    r.wallMs =
        std::chrono::duration<double, std::milli>(stop - start).count();
    r.chains = chains.size();
    const bool faults_on = cfg.faults != FaultMode::Off;
    for (const Chain &chain : chains) {
        int st = chain.read.executionStatus();
        if (st == 0) {
            const std::vector<uint8_t> &expect =
                oracles[static_cast<size_t>(chain.variant)];
            if (chain.bytes == expect)
                ++r.verifiedChains;
            else
                ++r.mismatches;
            continue;
        }
        // Failed chain: the status must be whitelisted *and* explained
        // by this config's hazards. SOFF_LAUNCH_TIMEOUT is never
        // acceptable — the budgets used here are generous.
        bool explained = false;
        switch (static_cast<ClStatus>(st)) {
          case ClStatus::SoffTransientFault:
            explained = faults_on; // Surfaced after retry exhaustion.
            break;
          case ClStatus::SoffCommandCancelled:
            explained = cfg.cancels;
            break;
          case ClStatus::ExecStatusErrorForEventsInWaitList:
            // Containment behind a surfaced fault or a cancellation
            // (including in-order queues poisoning their tail).
            explained = faults_on || cfg.cancels;
            break;
          default:
            break;
        }
        if (explained)
            ++r.explainedChains;
        else
            ++r.unexplained;
    }
    for (CommandQueue *q : {&queue_a, &queue_b}) {
        ReliabilityStats s = q->reliabilityStats();
        r.stats.retired += s.retired;
        r.stats.failed += s.failed;
        r.stats.depSkipped += s.depSkipped;
        r.stats.cancelled += s.cancelled;
        r.stats.watchdogTrips += s.watchdogTrips;
        r.stats.retries += s.retries;
        r.stats.faultsInjected += s.faultsInjected;
        r.stats.faultsRetriedAway += s.faultsRetriedAway;
        r.stats.faultsSurfaced += s.faultsSurfaced;
        r.stats.callbackExceptions += s.callbackExceptions;
    }
    r.watchdogTrips = r.stats.watchdogTrips;
    r.injected = ctx.injectedFaults();
    r.accounted = r.injected.total() ==
                  r.stats.faultsRetriedAway + r.stats.faultsSurfaced;
    return r;
}

std::vector<int>
workerCounts()
{
    std::vector<int> counts = {
        1, 2,
        std::max(1, static_cast<int>(
                        std::thread::hardware_concurrency()))};
    std::sort(counts.begin(), counts.end());
    counts.erase(std::unique(counts.begin(), counts.end()),
                 counts.end());
    return counts;
}

/** The grid, grouped by everything-but-workers. */
std::vector<SoakConfig>
makeGroups()
{
    std::vector<SoakConfig> groups;
    int alternate = 0;
    for (bool ooo : {false, true}) {
        for (FaultMode mode :
             {FaultMode::Off, FaultMode::Launch, FaultMode::Mixed}) {
            for (int retry : {0, 2}) {
                SoakConfig cfg;
                cfg.outOfOrder = ooo;
                cfg.faults = mode;
                cfg.retry = retry;
                // A generous watchdog on half the grid: it must never
                // trip for these kernels (false-positive gate).
                cfg.timeoutCycles = alternate++ % 2 == 0 ? 0 : 150000;
                cfg.cancels = mode == FaultMode::Off;
                cfg.seed = 0x50FFull + static_cast<uint64_t>(alternate);
                groups.push_back(cfg);
            }
        }
    }
    return groups;
}

} // namespace

int
main(int argc, char **argv)
{
    size_t chains = 60;
    double budget_s = 600.0;
    if (argc > 1)
        chains = static_cast<size_t>(std::atoll(argv[1]));
    if (argc > 2)
        budget_s = std::atof(argv[2]);

    const std::vector<Variant> variants = makeVariants();
    const std::vector<VariantInputs> inputs = makeInputs(variants);
    std::printf("Building reference-interpreter oracles for %zu kernel "
                "variants...\n",
                variants.size());
    const std::vector<std::vector<uint8_t>> oracles =
        makeOracles(variants, inputs);
    const std::vector<int> workers = workerCounts();
    const std::vector<SoakConfig> groups = makeGroups();

    std::printf("Reliability soak: %zu chains/config, %zu config "
                "groups x %zu worker counts, budget %.0f s\n",
                chains, groups.size(), workers.size(), budget_s);
    std::printf("%-34s %3s %8s %6s %6s %5s %5s %5s %5s %5s %9s\n",
                "config", "wk", "wall ms", "ok", "expl", "mism",
                "unex", "inj", "away", "surf", "accounted");

    struct Row
    {
        SoakConfig cfg;
        SoakResult result;
    };
    std::vector<Row> rows;
    bool all_verified = true;
    bool deterministic = true;
    size_t groups_run = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (const SoakConfig &group : groups) {
        double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        if (groups_run > 0 && elapsed > budget_s) {
            std::printf("time budget spent: %zu of %zu groups run\n",
                        groups_run, groups.size());
            break;
        }
        const std::vector<int> schedule =
            makeSchedule(group.seed, chains, variants.size());
        InjectedFaultCounters first_inj;
        bool first = true;
        for (int wk : workers) {
            SoakConfig cfg = group;
            cfg.workers = wk;
            SoakResult r =
                runSoak(cfg, variants, inputs, oracles, schedule);
            bool ok = r.mismatches == 0 && r.unexplained == 0 &&
                      r.watchdogTrips == 0 && r.accounted;
            all_verified = all_verified && ok;
            // Determinism gate: identical fault campaigns across
            // worker counts (cancel timing is inherently racy, so
            // cancel configs inject nothing by construction).
            if (first) {
                first_inj = r.injected;
                first = false;
            } else if (r.injected.launchAborts !=
                           first_inj.launchAborts ||
                       r.injected.dmaTransfers !=
                           first_inj.dmaTransfers ||
                       r.injected.poolCheckouts !=
                           first_inj.poolCheckouts) {
                deterministic = false;
                std::printf("DETERMINISM VIOLATION in %s at %d "
                            "workers\n",
                            group.groupKey().c_str(), wk);
            }
            std::printf(
                "%-34s %3d %8.1f %6llu %6llu %5llu %5llu %5llu %5llu "
                "%5llu %9s\n",
                group.groupKey().c_str(), wk, r.wallMs,
                static_cast<unsigned long long>(r.verifiedChains),
                static_cast<unsigned long long>(r.explainedChains),
                static_cast<unsigned long long>(r.mismatches),
                static_cast<unsigned long long>(r.unexplained),
                static_cast<unsigned long long>(r.injected.total()),
                static_cast<unsigned long long>(
                    r.stats.faultsRetriedAway),
                static_cast<unsigned long long>(r.stats.faultsSurfaced),
                r.accounted ? "yes" : "NO");
            rows.push_back({cfg, r});
        }
        ++groups_run;
    }
    all_verified = all_verified && deterministic;

    support::JsonWriter w;
    w.beginObject();
    w.field("benchmark", "launch_soak");
    w.field("hardwareConcurrency",
            std::thread::hardware_concurrency());
    w.field("chainsPerConfig", static_cast<uint64_t>(chains));
    w.field("groupsRun", static_cast<uint64_t>(groups_run));
    w.field("groupsTotal", static_cast<uint64_t>(groups.size()));
    w.field("verifiedAll", all_verified);
    w.field("deterministicAcrossWorkers", deterministic);
    w.key("rows").beginArray();
    for (const Row &row : rows) {
        const SoakResult &r = row.result;
        w.beginObject();
        w.field("group", row.cfg.groupKey());
        w.field("workers", row.cfg.workers);
        w.field("outOfOrder", row.cfg.outOfOrder);
        w.field("retry", row.cfg.retry);
        w.field("faultMode", faultModeName(row.cfg.faults));
        w.field("timeoutCycles", row.cfg.timeoutCycles);
        w.field("cancels", row.cfg.cancels);
        w.field("wallMs", r.wallMs);
        w.field("chains", r.chains);
        w.field("verifiedChains", r.verifiedChains);
        w.field("explainedChains", r.explainedChains);
        w.field("mismatches", r.mismatches);
        w.field("unexplained", r.unexplained);
        w.field("watchdogTrips", r.watchdogTrips);
        w.field("accounted", r.accounted);
        w.key("injected").beginObject();
        w.field("launchAborts", r.injected.launchAborts);
        w.field("dmaTransfers", r.injected.dmaTransfers);
        w.field("poolCheckouts", r.injected.poolCheckouts);
        w.endObject();
        w.key("queueStats").beginObject();
        w.field("retired", r.stats.retired);
        w.field("failed", r.stats.failed);
        w.field("depSkipped", r.stats.depSkipped);
        w.field("cancelled", r.stats.cancelled);
        w.field("retries", r.stats.retries);
        w.field("faultsInjected", r.stats.faultsInjected);
        w.field("faultsRetriedAway", r.stats.faultsRetriedAway);
        w.field("faultsSurfaced", r.stats.faultsSurfaced);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    w.writeFile("BENCH_soak.json");

    std::printf("\n%s: %zu groups, every chain oracle-checked, every "
                "injected fault accounted\n",
                all_verified ? "SOAK PASSED" : "SOAK FAILED",
                groups_run);
    return all_verified ? 0 : 1;
}
