/**
 * @file
 * Instantiates a KernelPlan as a simulated circuit: the reconfigurable
 * region of paper Fig. 2 (work-item dispatcher, N datapath instances,
 * memory subsystem, work-item counter, completion register).
 */
#pragma once

#include <atomic>
#include <map>

#include "datapath/plan.hpp"
#include "memsys/arbiter.hpp"
#include "memsys/cache.hpp"
#include "memsys/dram.hpp"
#include "memsys/global_memory.hpp"
#include "memsys/local_block.hpp"
#include "memsys/locks.hpp"
#include "sim/dispatch.hpp"
#include "sim/fault.hpp"
#include "sim/glue.hpp"
#include "sim/trace.hpp"
#include "sim/units.hpp"

namespace soff::sim
{

/** Timing parameters of the platform outside the datapath. */
struct PlatformConfig
{
    int dramLatency = 40;       ///< Cycles from request to line data.
    int dramCyclesPerLine = 4;  ///< Bandwidth: one 64B line / 4 cycles.
    /** Simulation kernel. Results are identical across modes; the
     *  runtime resolves CrossCheck by running one circuit per mode.
     *  The default Compiled mode is the event-driven scheduler plus
     *  the compiled step plan (sim/specialize.hpp), built for every
     *  circuit with a channel-only component. */
    SchedulerMode scheduler = SchedulerMode::Compiled;
    /** Delay-only fault injection (sim/fault.hpp); off by default. */
    FaultConfig faults;
    /** Test-only: force every load/store response window to this many
     *  tokens instead of the §V-A nearMaxLatency+2 sizing. Values
     *  below L_F+1 deliberately break the deadlock-freedom guarantee
     *  (the undersized-FIFO forensics test). 0 = sized per §V-A. */
    int memRespWindowOverride = 0;
    /** Test-only: cap the balancing slack of every DFG-edge FIFO
     *  (base capacity of 2 always kept). -1 = use the plan's sizing. */
    int balanceFifoCap = -1;
    /** Chrome trace-event output path (SOFF_TRACE); empty = off. */
    std::string tracePath;
    /** Trace cycle window [traceStart, traceEnd). */
    uint64_t traceStart = 0;
    uint64_t traceEnd = ~uint64_t{0};
    /** Structured StatsReport JSON path (SOFF_STATS); empty = off. */
    std::string statsPath;
};

/** A fully wired simulated kernel circuit. */
class KernelCircuit
{
  public:
    KernelCircuit(const datapath::KernelPlan &plan,
                  const LaunchContext &launch,
                  memsys::GlobalMemory &memory, int num_instances,
                  const PlatformConfig &platform = {});

    /** Runs to completion (or deadlock/timeout). */
    Simulator::RunResult run(Cycle max_cycles,
                             Cycle deadlock_window = 100000);

    /**
     * Rearms the circuit for a fresh launch without rebuilding it
     * (runtime circuit-template memoization). The structure is
     * immutable; only dynamic state (channel occupancy, unit pipelines,
     * caches, DRAM timeline, scheduler lists, stats) is cleared, so a
     * relaunch is bit-identical to a cold build with the same launch.
     * The new NDRange may differ; argument values may differ.
     */
    void relaunch(const LaunchContext &launch);

    /**
     * Forwards a cooperative stop flag to the simulator (watchdog /
     * cancellation); pass nullptr to clear. Cleared automatically on
     * relaunch() so a parked template cannot observe a stale flag.
     */
    void setStopFlag(const std::atomic<bool> *stop)
    {
        sim_.setStopFlag(stop);
    }

    bool completed() const { return counter_->completed(); }
    /** Work-items retired so far (work-item counter value, §III-B). */
    uint64_t retired() const { return counter_->retired(); }
    Simulator &simulator() { return sim_; }

    /**
     * Assembles the full architectural StatsReport (also attached to
     * every RunResult by run()). Call after run() — finalizePerfSpans
     * must have closed the open stall spans.
     */
    std::shared_ptr<StatsReport> buildStatsReport() const;
    /** Writes the Chrome trace (no-op when tracing is off). */
    void writeTrace(const std::string &path) const;

  private:
    void buildInstance(int instance);
    void buildNode(const datapath::NodePlan &node,
                   Channel<WiToken> *in,
                   const std::vector<Channel<WiToken> *> &outs,
                   const std::string &prefix, int instance);
    void buildLeaf(const datapath::NodePlan &node, Channel<WiToken> *in,
                   const std::vector<Channel<WiToken> *> &outs,
                   const std::string &prefix, int instance);
    void buildBarrier(const datapath::NodePlan &node,
                      Channel<WiToken> *in,
                      const std::vector<Channel<WiToken> *> &outs,
                      const std::string &prefix, int instance);
    void buildRegion(const datapath::NodePlan &node,
                     Channel<WiToken> *in,
                     const std::vector<Channel<WiToken> *> &outs,
                     const std::string &prefix, int instance);
    void buildMemorySubsystem();

    const datapath::KernelPlan &plan_;
    /** By value: every component holds `&launch_`, which must remain
     *  valid (and stable) across relaunches of a memoized circuit. */
    LaunchContext launch_;
    memsys::GlobalMemory &memory_;
    int numInstances_;
    PlatformConfig platform_;
    FaultPlan faultPlan_; ///< Must outlive sim_ and dram_ (declared first).

    Simulator sim_;
    memsys::DramTiming dram_;
    std::unique_ptr<TraceSink> traceSink_;
    std::unique_ptr<CompletionBoard> board_;
    WorkItemCounter *counter_ = nullptr;

    std::vector<Channel<WiToken> *> rootInputs_;
    std::vector<Channel<WiToken> *> terminals_;
    int currentInstance_ = 0;

    struct MemClient
    {
        MemUnit *unit;
        const ir::Instruction *inst;
        int instance;
    };
    std::map<int, std::vector<MemClient>> globalClients_; ///< by cache id
    std::map<int, std::vector<MemClient>> localClients_;  ///< by block id
    std::vector<memsys::Cache *> caches_;
    std::vector<memsys::LocalMemoryBlock *> localBlocks_;
    std::vector<std::unique_ptr<memsys::LockTable>> lockTables_;
    std::vector<BarrierUnit *> barriers_;
    std::vector<MemUnit *> memUnits_;
    std::vector<SelectUnit *> selects_;
    std::map<const datapath::NodePlan *, Router *> leafRouters_;
    int regionCounter_ = 0;
};

} // namespace soff::sim
