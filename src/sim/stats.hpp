/**
 * @file
 * Architectural performance counters for the simulated circuit.
 *
 * Everything in this header measures the *circuit* — cycles a unit
 * spent moving tokens, tokens through a channel, cache line fills —
 * never the scheduler that happened to simulate it. That split is the
 * determinism contract: a StatsReport is bit-identical across
 * Reference, EventDriven, and Compiled runs of the same launch, and
 * the cross-check harness enforces it. Counters that depend on
 * scheduling strategy (components stepped, cycles the wake loop was
 * active) live in SchedulerStats instead.
 *
 * Counter taxonomy per component:
 *  - busy     — cycles the unit moved at least one token (or, for the
 *               cache flush walk, made observable progress)
 *  - stalled  — cycles the unit held work but could not move anything
 *  - idle     — everything else (derived: cycles − busy − stalled)
 *  - tokensIn/tokensOut — flits popped from / pushed to its channels
 * Channels count tokens delivered and their committed-occupancy
 * high-water mark. Work-item retirement per datapath yields achieved
 * initiation interval and throughput. All stored counters are exact
 * integers; rates and intervals are derived at export time only, so
 * equality of reports is plain memberwise integer equality.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace soff::sim
{

/** Raw per-component accumulator, embedded in every Component. */
struct PerfCounters
{
    uint64_t busyCycles = 0;
    uint64_t stalledCycles = 0;
    uint64_t tokensIn = 0;
    uint64_t tokensOut = 0;

    /// Bookkeeping for busy marking and open stall spans (not exported).
    uint64_t lastMoveCycle = ~uint64_t{0};
    uint64_t stallStart = 0;
    bool stallOpen = false;
};

/** Coarse component taxonomy for aggregation and trace labelling. */
enum class ComponentKind : uint8_t
{
    Source,
    Sink,
    Compute,
    Mem,
    Barrier,
    Router,
    Select,
    LoopGate,
    Dispatcher,
    Counter,
    Cache,
    Arbiter,
    LocalMemory,
    Other,
};

const char *componentKindName(ComponentKind kind);

/// Number of enumerators in ComponentKind (for per-kind aggregation).
inline constexpr size_t kNumComponentKinds =
    static_cast<size_t>(ComponentKind::Other) + 1;

struct ComponentStats
{
    std::string name;
    ComponentKind kind = ComponentKind::Other;
    uint64_t busy = 0;
    uint64_t stalled = 0;
    uint64_t tokensIn = 0;
    uint64_t tokensOut = 0;
};

struct ChannelStatsEntry
{
    uint32_t id = 0;
    uint32_t capacity = 0;
    uint64_t tokens = 0;
    uint64_t maxOccupancy = 0;
};

/**
 * Work-item retirement seen at one datapath terminal. Achieved
 * initiation interval is (lastRetire − firstRetire) / (retired − 1),
 * derived as a double only when exporting.
 */
struct DatapathStats
{
    uint64_t retired = 0;
    uint64_t firstRetire = 0;
    uint64_t lastRetire = 0;
};

struct CacheReport
{
    std::string name;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t writebacks = 0;
    uint64_t atomics = 0;
};

/**
 * The full architectural counter set for one completed (or deadlocked)
 * launch. Attached to Simulator::RunResult and surfaced through the
 * runtime as LaunchResult::statsReport / soffGetKernelStats.
 */
struct StatsReport
{
    uint64_t cycles = 0;
    uint32_t instances = 0;

    // Aggregates.
    uint64_t busyCycles = 0;
    uint64_t stalledCycles = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    uint64_t cacheEvictions = 0;
    uint64_t cacheWritebacks = 0;
    uint64_t cacheAtomics = 0;
    uint64_t dramTransfers = 0;
    uint64_t dramBytes = 0;
    uint64_t localAccesses = 0;
    uint64_t localBankConflicts = 0;

    std::vector<ComponentStats> components;
    std::vector<ChannelStatsEntry> channels;
    std::vector<DatapathStats> datapaths;
    std::vector<CacheReport> caches;
};

/**
 * Compares two reports memberwise. Returns the empty string when they
 * are bit-identical, otherwise a one-line description of the first
 * mismatch ("component 'ld0.mem' busy: 812 vs 815").
 */
std::string diffStatsReports(const StatsReport &a, const StatsReport &b);

/**
 * Serializes `report` as the "soff-stats-v1" JSON schema to `path`
 * (scalars, per-kind aggregates, datapath II table, per-cache block,
 * channel aggregates plus the highest-water channels).
 */
void writeStatsJson(const StatsReport &report, const std::string &path);

} // namespace soff::sim
