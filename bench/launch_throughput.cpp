/**
 * @file
 * Launch throughput of the multi-tenant engine: 10k+ mixed launches
 * (six small kernels, varying NDRanges, full write->launch->read
 * command chains over a bounded set of rotating buffer slots) pushed
 * through out-of-order CommandQueues at several launch-worker counts.
 * Every launch's output is verified against a reference-interpreter
 * oracle computed once per kernel variant in a side context.
 *
 * The headline metric is launches/second scaling with workers; the
 * circuit-template pool counters (hits/misses/steals) show how the
 * concurrent runs share prebuilt circuits.
 *
 * Writes BENCH_launch.json next to the binary (consumed by CI: the
 * release-perf gate asserts multi-worker speedup when the host has
 * cores to scale onto, and skips with a note on 1-core runners).
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "launch_chains.hpp"
#include "support/json.hpp"

using namespace soff;
using namespace soff::rt;
using namespace launch_chains;

namespace
{

/** 54 variants: every kernel at three sizes and three scalars. */
std::vector<Variant>
makeVariants()
{
    std::vector<Variant> variants;
    const uint32_t sizes[3] = {16, 32, 64};
    int id = 0;
    for (int app = 0; app < kNumApps; ++app) {
        for (uint32_t n : sizes) {
            for (int32_t s = 1; s <= 3; ++s) {
                Variant v;
                v.app = app;
                v.n = n;
                switch (app) {
                  case 2:
                    v.local = 16;
                    v.scalar = s;
                    break;
                  case 5:
                    v.local = n >= 32 ? 32 : 16;
                    v.scalar = static_cast<int32_t>(v.local);
                    break;
                  default:
                    v.local = n >= 32 ? 16 : 8;
                    v.scalar = s;
                    break;
                }
                v.id = id++;
                variants.push_back(v);
            }
        }
    }
    return variants;
}

/** The mixed workload: a deterministic LCG sequence over variants. */
std::vector<int>
makeSchedule(size_t launches, size_t num_variants)
{
    std::vector<int> schedule;
    schedule.reserve(launches);
    uint64_t s = 0x2545f4914f6cdd1dull;
    for (size_t i = 0; i < launches; ++i) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        schedule.push_back(static_cast<int>((s >> 33) % num_variants));
    }
    return schedule;
}

struct RunResult
{
    double wallMs = 0.0;
    uint64_t launches = 0;
    uint64_t mismatches = 0;
    TemplatePoolStats pool;
};

/**
 * The measured run: `launches` write->launch->read chains over
 * `kSlots` rotating buffer slots, alternating between two out-of-order
 * queues. Chains within a slot are ordered through events; different
 * slots are independent, so up to kSlots launches overlap.
 */
RunResult
runWorkload(const std::vector<Variant> &variants,
            const std::vector<VariantInputs> &inputs,
            const std::vector<std::vector<uint8_t>> &oracles,
            const std::vector<int> &schedule, int workers)
{
    constexpr size_t kSlots = 64;
    Context ctx;
    Program program = ctx.buildProgram(kKernels);
    std::vector<KernelHandle> kernels;
    for (const char *name : kAppNames)
        kernels.push_back(program.createKernel(name));
    struct Slot
    {
        Buffer in0, in1, out;
        Event lastRead; ///< Slot is free once this completes.
    };
    std::vector<Slot> slots(kSlots);
    for (Slot &slot : slots) {
        slot.in0 = ctx.createBuffer(kSlotBytes);
        slot.in1 = ctx.createBuffer(kSlotBytes);
        slot.out = ctx.createBuffer(kSlotBytes);
    }
    QueueOptions options;
    options.outOfOrder = true;
    options.workers = workers;
    options.maxInFlight = 4 * static_cast<int>(kSlots);
    CommandQueue queue_a(ctx, options);
    CommandQueue queue_b(ctx, options);

    std::vector<std::vector<uint8_t>> results(schedule.size());
    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < schedule.size(); ++i) {
        const Variant &v =
            variants[static_cast<size_t>(schedule[i])];
        const VariantInputs &in = inputs[static_cast<size_t>(v.id)];
        Slot &slot = slots[i % kSlots];
        CommandQueue &queue = i % 2 == 0 ? queue_a : queue_b;
        std::vector<Event> slot_free;
        if (slot.lastRead.attached())
            slot_free.push_back(slot.lastRead);
        std::vector<Event> inputs_done = enqueueInputs(
            queue, v, in, slot.in0, slot.in1, slot.out, slot_free);
        KernelHandle &kernel = kernels[static_cast<size_t>(v.app)];
        sim::NDRange nd =
            bindVariant(v, kernel, slot.in0, slot.in1, slot.out);
        Event launched;
        queue.enqueueNDRange(kernel, nd, inputs_done, &launched);
        results[i].resize(v.outBytes());
        queue.enqueueRead(slot.out, results[i].data(),
                          results[i].size(), {launched},
                          &slot.lastRead);
    }
    queue_a.finish();
    queue_b.finish();
    auto stop = std::chrono::steady_clock::now();

    RunResult r;
    r.wallMs =
        std::chrono::duration<double, std::milli>(stop - start).count();
    r.launches = schedule.size();
    for (size_t i = 0; i < schedule.size(); ++i) {
        const std::vector<uint8_t> &expect =
            oracles[static_cast<size_t>(schedule[i])];
        if (results[i] != expect)
            ++r.mismatches;
    }
    r.pool = program.templatePoolStats();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    // 10k launches by default; an optional argv[1] scales the soak
    // down for smoke runs (CI uses the default).
    size_t launches = 10000;
    if (argc > 1)
        launches = static_cast<size_t>(std::atoll(argv[1]));

    const std::vector<Variant> variants = makeVariants();
    const std::vector<VariantInputs> inputs = makeInputs(variants);
    const std::vector<int> schedule =
        makeSchedule(launches, variants.size());
    std::printf("Building reference-interpreter oracles for %zu kernel "
                "variants...\n", variants.size());
    const std::vector<std::vector<uint8_t>> oracles =
        makeOracles(variants, inputs);

    std::printf("Launch throughput: %zu mixed launches (x3 commands "
                "per launch) over 2 out-of-order queues\n", launches);
    std::printf("%-8s %12s %14s %9s %9s %8s %10s %9s\n", "workers",
                "wall (ms)", "launches/s", "poolHit", "poolMiss",
                "steals", "verified", "speedup");

    struct Row
    {
        int workers;
        RunResult result;
    };
    std::vector<Row> rows;
    double base_ms = 0.0;
    bool all_verified = true;
    for (int workers : workerCounts()) {
        RunResult r =
            runWorkload(variants, inputs, oracles, schedule, workers);
        if (rows.empty())
            base_ms = r.wallMs;
        double speedup = r.wallMs > 0.0 ? base_ms / r.wallMs : 0.0;
        bool verified = r.mismatches == 0;
        all_verified = all_verified && verified;
        std::printf("%-8d %12.1f %14.1f %9llu %9llu %8llu %10s "
                    "%8.2fx\n",
                    workers, r.wallMs,
                    r.wallMs > 0.0 ? 1e3 * static_cast<double>(
                                               r.launches) / r.wallMs
                                   : 0.0,
                    static_cast<unsigned long long>(r.pool.hits),
                    static_cast<unsigned long long>(r.pool.misses),
                    static_cast<unsigned long long>(r.pool.steals),
                    verified ? "yes" : "NO", speedup);
        rows.push_back({workers, r});
    }

    support::JsonWriter w;
    w.beginObject();
    w.field("benchmark", "launch_throughput");
    w.field("hardwareConcurrency",
            std::thread::hardware_concurrency());
    w.field("launches", static_cast<uint64_t>(launches));
    w.field("variants", static_cast<uint64_t>(variants.size()));
    w.field("verifiedAll", all_verified);
    w.key("rows").beginArray();
    for (const Row &row : rows) {
        const RunResult &r = row.result;
        w.beginObject();
        w.field("workers", row.workers);
        w.field("wallMs", r.wallMs);
        w.field("launchesPerSec",
                r.wallMs > 0.0
                    ? 1e3 * static_cast<double>(r.launches) / r.wallMs
                    : 0.0);
        w.field("speedupVs1Worker",
                r.wallMs > 0.0 ? base_ms / r.wallMs : 0.0);
        w.field("verified", r.mismatches == 0);
        w.field("mismatches", r.mismatches);
        w.key("templatePool").beginObject();
        w.field("hits", r.pool.hits);
        w.field("misses", r.pool.misses);
        w.field("steals", r.pool.steals);
        w.field("returns", r.pool.returns);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    w.writeFile("BENCH_launch.json");

    std::printf("\n%zu launches/config, results %s against the "
                "reference-interpreter oracle\n",
                launches,
                all_verified ? "verified" : "MISMATCHED");
    return all_verified ? 0 : 1;
}
