/**
 * @file
 * The benchmark's workloads and the helpers they share. WORKLOADS.md
 * next to this directory records why each workload exists and which
 * end-to-end metric each layer metric should move.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "benchsuite/suite.hpp"
#include "core/compiler.hpp"
#include "trace.hpp"

namespace perfbench
{

/** Timestamps and verdicts of the ops one segment ran. */
struct OpLog
{
    struct Op
    {
        int64_t startNs;
        int64_t endNs;
        size_t kind; ///< Which op of the cycle this is (see cycleOps()).
        double ms() const { return static_cast<double>(endNs - startNs) / 1e6; }
    };
    std::vector<Op> ops;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t simCycles = 0;

    void
    record(int64_t start_ns, int64_t end_ns, bool ok, size_t kind = 0)
    {
        ops.push_back({start_ns, end_ns, kind});
        ++attempted;
        if (!ok)
            ++failed;
    }
    /** Appends another segment's ops. */
    void merge(const OpLog &other);
};

/** End-to-end figures of a segment (see summarize()). */
struct Summary
{
    double opsPerS = 0.0;
    double p50Ms = 0.0;
    double p90Ms = 0.0;
};

/**
 * For concurrent ops: splits them, in completion order, into windows of
 * `window_ops` (one cycle of the workload's mix, so every window holds
 * the same work; the last partial window is dropped unless it is the
 * only one). A window lasts from the previous window's last completion
 * to its own. Each window gets a throughput, a p50 and a p90 latency;
 * the summary is the best decile of windows: the 90th percentile of
 * throughput and the 10th percentile of p50 and of p90 (best-of-N, as
 * for any wall-clock figure on a shared host, whose speed here flips
 * between two levels about 35% apart for stretches of up to tens of
 * seconds).
 */
Summary summarize(const OpLog &log, uint64_t window_ops);

/**
 * For a single client, whose ops run one at a time: takes each kind's
 * nearest-rank `q` quantile of latency over the run (q = 0: its
 * minimum), then reports the cycle those latencies make up: its
 * throughput and the p50 and p90 over its ops. Each kind runs once per
 * cycle. Per-kind best-of-N needs only that every kind met the host's
 * fast state once, where best windows need whole fast cycles: a `suite`
 * cycle lasts seconds.
 */
Summary summarizeByKind(const OpLog &log, double q);

/** When a segment stops: at `deadlineNs` (and at least `minOps` ops),
 *  or after exactly `fixedOps` ops when that is non-zero. */
struct Budget
{
    int64_t deadlineNs = 0;
    uint64_t minOps = 0;
    uint64_t fixedOps = 0;

    bool
    more(uint64_t done) const
    {
        if (fixedOps > 0)
            return done < fixedOps;
        return done < minOps || nowNs() < deadlineNs;
    }
};

/**
 * One workload. The constructor only records parameters; setup() does
 * everything the timed region must not pay for (context open, program
 * builds, oracles, input generation) and is timed as setup_s.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual void setup(Tracer &tracer) = 0;
    virtual OpLog run(const Budget &budget, Tracer &tracer) = 0;
    /** Ops in one cycle of the workload's mix: the traced run's fixed
     *  segment, and the window summarize() takes figures over. */
    virtual uint64_t cycleOps() const = 0;
    /** End-to-end figures of a segment this workload ran. */
    virtual Summary summary(const OpLog &log) const = 0;
    /** Plants wrong expectations (golden cycles, oracle bytes, or a
     *  truncated source's verdict) so the next ops must count failures:
     *  the self-test's check that failures are detected. */
    virtual void plantFault() = 0;
};

std::unique_ptr<Workload> makeSuite(uint64_t seed);
std::unique_ptr<Workload> makeLaunchMix(uint64_t seed);
std::unique_ptr<Workload> makeCompile(uint64_t seed);

/** Traced-run layer pass: drives every layer once over a fixed input
 *  set, records spans and exact counters, writes per-app rows to
 *  `apps_path`. Returns the number of failed checks. */
uint64_t runLayerPass(uint64_t seed, bool include_launch_mix,
                      Tracer &tracer, const std::string &apps_path);

// ---------------------------------------------------------------------
// Shared helpers (workload_common.cpp)
// ---------------------------------------------------------------------

/** A seeded permutation of [0, n). */
std::vector<size_t> seededPermutation(uint64_t seed, size_t n);

/**
 * Pads the device allocator so the next buffer lands where the first one
 * would on a fresh context (address 64) modulo the 64 KiB index period of
 * the direct-mapped caches. Apps never release their buffers, and
 * simulated cycles depend on buffer addresses through the cache index:
 * without this, an app's cycles on a used context miss its Fig. 11
 * golden count by a few cycles, depending on what ran before it.
 */
void alignLikeFreshContext(soff::rt::Context &ctx);

/** Fig. 11 golden simulated cycles per app (BENCH_fig11.json rows). */
const std::map<std::string, uint64_t> &goldenCycles();

/** `source` cut at a seeded point inside its last kernel body, so the
 *  body's opening brace is never closed. */
std::string truncateLastKernel(const std::string &source, uint64_t seed);

/** The instance count the runtime launches a kernel with (its resource-
 *  model count), or 1 when it does not fit: the count the compile
 *  workload emits Verilog for. */
int plannedInstances(const soff::core::CompiledProgram &program,
                     size_t kernel_index);

/** Peak resident set of this process in MiB. */
double peakRssMb();

/** Instructions over every function of the module. */
uint64_t countInstructions(const soff::ir::Module &module);

/** The source of the launch_mix kernels. */
extern const char *const kLaunchKernels;

} // namespace perfbench
