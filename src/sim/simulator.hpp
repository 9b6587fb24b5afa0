/**
 * @file
 * The cycle-level simulation kernel.
 *
 * Three schedulers produce bit- and cycle-identical results:
 *
 *  - Reference (synchronous): all components are stepped once per
 *    clock cycle in creation order, then all channels commit their
 *    staged transfers. Communication is exclusively through channels,
 *    so intra-cycle ordering between components is unobservable and
 *    the simulation is deterministic.
 *
 *  - EventDriven (quiescence-aware): a component is stepped only when
 *    it is on the current cycle's wake list. It gets there via channel
 *    activity (a committed push/pop wakes both endpoints for the next
 *    cycle), a self-scheduled timer (`wakeAt`, for DRAM latency and
 *    similar purely internal timed state), or a cross-component wake
 *    (`wakeOther`, for non-channel couplings such as lock tables and
 *    loop gates). Only channels touched this cycle commit (dirty
 *    list), and idle gaps are skipped by jumping the clock to the next
 *    wake. Because the reference steps every component every cycle, a
 *    spurious wake can never diverge from it — equivalence only
 *    requires that no *needed* wake is missed, and that per-step state
 *    in components is either guarded by channel/timer conditions or
 *    derived from the cycle number.
 *
 *  - Compiled: the event-driven kernel plus a per-circuit step plan
 *    (sim/specialize.hpp) that steps the same wake set's channel-only
 *    members in per-type buckets, one batched call per bucket.
 *
 * All three run on the calling thread. The event-driven modes share
 * one current/next wake-list pair and one timer heap, and one
 * dirty-channel list serves every mode (Reference fills and clears it
 * but commits every channel).
 *
 * Data-oriented core. The per-cycle path never goes through a vtable:
 * `add<T>` records one monomorphic batched step thunk per component
 * (`stepMany_`, a stepManyBody<T>), which every sweep calls — the
 * generic ones with a batch of one, the compiled plan with a whole
 * bucket — so a component's step and its stall-span accounting exist
 * once; channel commits are non-virtual (see channel.hpp).
 * Per-component scheduler bookkeeping (pending timer, wake-list flags)
 * lives in SoA arrays indexed by component index, and watcher wake-up
 * walks a flat index-span table instead of per-channel pointer
 * vectors. Components and channels themselves — including every token
 * ring — are placement-constructed into a per-circuit slab arena in
 * build order, so one datapath instance occupies one contiguous region
 * (replica batching: N instances share the structure and their state
 * is N adjacent spans).
 * The `Component` virtual interface survives for construction-time
 * wiring, forensics (describeBlockage), and stats (kind()) — none of
 * which are on the per-cycle path.
 *
 * In the event-driven schedulers the deadlock watchdog is exact: an
 * empty wake queue with the completion flag unset *is* a deadlock
 * (nothing can ever happen again), replacing the reference scheduler's
 * idle-window heuristic.
 */
#pragma once

#include <atomic>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "sim/arena.hpp"
#include "sim/channel.hpp"
#include "sim/specialize.hpp"
#include "sim/stats.hpp"
#include "sim/token.hpp"

namespace soff::sim
{

class Simulator;
class BlockageProbe;
struct DeadlockReport;
class FaultPlan;
class TraceSink;
struct CompiledPlan;

/** Why a run failed to complete (forensics report classification). */
enum class HangKind
{
    Deadlock,           ///< No component can ever make progress again.
    Timeout,            ///< Cycle budget elapsed with work in flight.
    InvariantViolation, ///< An internal checker flagged a bug.
};

/** Which simulation kernel drives the circuit. */
enum class SchedulerMode
{
    Reference,   ///< Synchronous: step everything, commit everything.
    EventDriven, ///< Wake lists + dirty-channel commits + clock jumps.
    Compiled,    ///< Event-driven + per-circuit compiled step plan.
    CrossCheck,  ///< Run all modes, assert identical (runtime level).
};

const char *schedulerModeName(SchedulerMode mode);
/** Parses a mode name (e.g. the SOFF_SCHEDULER environment knob). */
bool schedulerModeFromName(const std::string &name, SchedulerMode *out);

/** Counters for the scheduler itself (bench/sim_throughput). */
struct SchedulerStats
{
    uint64_t componentSteps = 0; ///< step() invocations performed.
    uint64_t cyclesActive = 0;   ///< Cycles actually processed.
    uint64_t channelCommits = 0; ///< Channel commits applied.
};

/** A clocked circuit component. */
class Component
{
  public:
    explicit Component(std::string name) : name_(std::move(name)) {}
    Component(const Component &) = delete;
    Component &operator=(const Component &) = delete;
    virtual ~Component() = default;

    /**
     * One clock cycle of behavior. Virtual only for hand-driven unit
     * tests and forensics; the schedulers call the concrete override
     * directly through the thunk `Simulator::add<T>` records.
     */
    virtual void step(Cycle now) = 0;

    /**
     * Hang forensics: declare the channel/lock conditions step() is
     * currently gated on (BlockageProbe::waitPop/waitPush/waitLock).
     * Called only after a run has deadlocked or timed out; the default
     * reports nothing.
     */
    virtual void describeBlockage(BlockageProbe &probe) const
    {
        (void)probe;
    }

    /** Coarse taxonomy for stats aggregation and trace labels. */
    virtual ComponentKind kind() const { return ComponentKind::Other; }

    /**
     * Stall classification, evaluated right after each step(): does
     * this component still hold work it could not finish this cycle?
     * A cycle where the component held work but moved no token counts
     * as stalled; held-work cycles with movement are busy.
     *
     * Determinism contract: the answer may depend only on *committed*
     * channel state (occupancy()) and the component's own internal
     * state. In particular it must never call canPop()/canPush() —
     * their fault gates arm retry wakes, which would change scheduling
     * — and it must not read another component's members. Under those
     * rules every transition of (holdsWork && !moved) coincides with a
     * cycle the event-driven scheduler steps the component anyway, so
     * span-based stall accounting is bit-identical across modes.
     */
    virtual bool holdsWork() const { return false; }

    /**
     * Restores post-construction dynamic state for a fresh launch of
     * the same circuit (KernelCircuit::relaunch). Structural wiring —
     * channel pointers, latencies, projections — is immutable and must
     * be left alone; everything a cold-built twin would start without
     * (queues, counters, cached progress) must be cleared so a relaunch
     * is bit-identical to a cold build. The default is for stateless
     * components.
     */
    virtual void reset() {}

    const std::string &name() const { return name_; }
    /** Global creation index (dispatch-table/plan position). */
    uint32_t index() const { return index_; }

  protected:
    /** Registers this component as an endpoint of `ch`. */
    void
    watch(ChannelBase *ch)
    {
        if (ch != nullptr)
            ch->addWatcher(this);
    }

    /** Schedules a timer wake for this component at `cycle`. */
    void wakeAt(Cycle cycle);
    /** Requests a wake for this component as soon as legal. */
    void requestWake();
    /** Wakes another component (non-channel coupling). */
    void wakeOther(Component *c);
    /** Reference-mode watchdog hint: busy despite quiet channels. */
    void noteActivity();

    /**
     * Marks this cycle busy without a channel movement — for progress
     * that is purely internal (the cache flush walk). Only legal when
     * the component is deterministically stepped on that cycle in
     * every scheduler mode (e.g. it armed wakeAt for it).
     */
    void perfBusy(Cycle now);

  private:
    friend class Simulator;
    friend class ChannelBase;

    std::string name_;
    Simulator *sim_ = nullptr;
    uint32_t index_ = 0;
    PerfCounters perf_; ///< Architectural counters (sim/stats.hpp).
};

/** Owns components and channels; advances the global clock. */
class Simulator
{
  public:
    /** Out-of-line (like the destructor) so the header can hold a
     *  unique_ptr to the incomplete CompiledPlan. */
    explicit Simulator(SchedulerMode mode = SchedulerMode::Reference);
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;
    ~Simulator();

    /**
     * Creates and owns a component: placement-constructed in the
     * circuit arena, with its monomorphic batched step thunk recorded
     * in the flat dispatch table. The qualified `T::step` call
     * compiles to a direct (inlinable) call — no vtable load in the
     * sweep.
     */
    template <typename T, typename... Args>
    T *
    add(Args &&...args)
    {
        void *mem = arena_.allocate(sizeof(T), alignof(T));
        T *raw = new (mem) T(std::forward<Args>(args)...);
        raw->sim_ = this;
        raw->index_ = static_cast<uint32_t>(components_.size());
        components_.push_back(raw);
        pendingWake_.push_back(kNoWake);
        schedFlags_.push_back(0);
        memberPos_.push_back(CompiledPlan::kNoPos);
        stepMany_.push_back(&Simulator::stepManyBody<T>);
        return raw;
    }

    /**
     * Creates and owns a channel. Object and token ring both live in
     * the arena (adjacent to the components built around them);
     * destruction is a per-type thunk recorded here.
     */
    template <typename T>
    Channel<T> *
    channel(size_t capacity)
    {
        void *mem =
            arena_.allocate(sizeof(Channel<T>), alignof(Channel<T>));
        T *storage = arena_.allocateArray<T>(capacity);
        for (size_t i = 0; i < capacity; ++i)
            new (storage + i) T();
        auto *raw = new (mem) Channel<T>(capacity, storage);
        raw->index_ = static_cast<uint32_t>(channels_.size());
        raw->sim_ = this;
        raw->faults_ = faultPlan_;
        raw->faulty_ = faultPlan_ != nullptr;
        raw->dirtyList_ = &dirtyChannels_;
        channels_.push_back(raw);
        channelDtors_.push_back([](ChannelBase *ch) {
            static_cast<Channel<T> *>(ch)->~Channel<T>();
        });
        return raw;
    }

    /**
     * Installs the fault plan consulted by channels created *after*
     * this call (the circuit builder installs it before wiring) and by
     * the scheduler itself. Pass nullptr (or never call) for a clean
     * run; injection costs nothing when off.
     */
    void setFaultPlan(const FaultPlan *plan) { faultPlan_ = plan; }

    /**
     * Installs a cooperative stop flag, polled at cycle boundaries
     * alongside the completion register: a true load makes run()
     * return early with stopped=true (no forensics — the run was
     * abandoned, not hung). Pass nullptr to clear; the runtime clears
     * it before a circuit is parked in the template pool.
     */
    void setStopFlag(const std::atomic<bool> *stop) { stopFlag_ = stop; }

    /**
     * Components with purely internal timed state (DRAM in flight,
     * cache flush walks) call this so quiet-but-busy cycles do not
     * count toward the reference scheduler's deadlock window. (The
     * event-driven scheduler ignores it; such components arm explicit
     * `wakeAt` timers instead.)
     */
    void noteActivity() { activity_ = true; }

    struct RunResult
    {
        bool completed = false;
        bool deadlock = false;
        /** Run ended early because the stop flag was raised. */
        bool stopped = false;
        Cycle cycles = 0;
        /** Forensics attached when the run deadlocked or timed out. */
        std::shared_ptr<DeadlockReport> report;
        /** Architectural counters (KernelCircuit::run attaches it). */
        std::shared_ptr<StatsReport> stats;
    };

    /**
     * Runs until `*done` becomes true (checked at cycle boundaries —
     * completion is a circuit-level register, not a per-cycle
     * callback), deadlock is detected, or `max_cycles` elapse.
     * `deadlock_window` applies to the reference scheduler's idle
     * heuristic only; the event-driven schedulers detect the exact
     * quiescence cycle.
     */
    RunResult run(const bool *done, Cycle max_cycles,
                  Cycle deadlock_window = 100000);

    /**
     * Rewinds the simulator to its pre-first-run state for a fresh
     * launch of the same circuit: clock, scheduler/perf counters, SoA
     * scheduling state, wake lists and timer heap. Component/channel
     * *structure* (and the compiled plan, once built) is retained, and
     * component and channel dynamic state is reset here too
     * (KernelCircuit::relaunch calls this).
     */
    void resetForRerun();

    SchedulerMode mode() const { return mode_; }
    Cycle now() const { return now_; }
    size_t numComponents() const { return components_.size(); }
    const Component &component(size_t i) const { return *components_[i]; }
    size_t numChannels() const { return channels_.size(); }
    SchedulerStats schedulerStats() const { return stats_; }
    /** Bytes the circuit arena has handed out (diagnostics). */
    size_t arenaBytes() const { return arena_.bytesAllocated(); }

    /** Installs (or clears) the trace sink; not owned. */
    void setTraceSink(TraceSink *sink) { traceSink_ = sink; }
    TraceSink *traceSink() const { return traceSink_; }

    /**
     * The step plan SchedulerMode::Compiled built for this circuit at
     * its first run, or null — before the first run, under every other
     * mode, or when the circuit has no member-kind component. Fault
     * plans and trace sinks do not matter. Exposed for tests and
     * benchmarks; the plan is owned by the simulator and its structure
     * is immutable between runs.
     */
    const CompiledPlan *compiledPlan() const { return plan_.get(); }

    /**
     * Closes still-open stall spans at the final cycle. Call once
     * after run() before reading counters; for completed runs the
     * close cycle is the completion cycle in every mode.
     */
    void finalizePerfSpans();
    /** Appends per-component/per-channel counters and busy/stall
     *  totals to `report` (the circuit layer adds its own sections). */
    void appendPerfStats(StatsReport &report) const;

    /**
     * Builds the structured hang report: every component describes its
     * blockage, the wait-for graph is assembled from channel watcher
     * lists, and one wait cycle is extracted (sim/forensics.cpp).
     */
    std::shared_ptr<DeadlockReport> diagnose(HangKind kind) const;

    /** Schedules `c` at `cycle` (>= the current cycle). */
    void scheduleAt(Component *c, Cycle cycle);
    /**
     * Called by a channel whose fault gate blocked a query: arms a
     * timer wake at the window's clear cycle for the querier, the
     * component being stepped right now (ChannelBase::tlsStepping) in
     * either sweep. A no-op outside a scheduling phase: the reference
     * scheduler steps everything anyway.
     */
    void faultRetryAt(Cycle clear);
    /**
     * Wakes `c` with same-cycle visibility semantics: if the current
     * cycle's in-order sweep has not yet passed `c`, it is stepped
     * this cycle (as the synchronous reference would), otherwise next
     * cycle.
     */
    void wakeComponent(Component *c);

  private:
    struct HeapEntry
    {
        Cycle cycle;
        uint32_t index;
        bool operator>(const HeapEntry &o) const
        {
            return cycle > o.cycle ||
                   (cycle == o.cycle && index > o.index);
        }
    };

    static constexpr Cycle kNoWake = ~Cycle{0};

    /** SoA wake-list membership flags (schedFlags_). */
    static constexpr uint8_t kInWakeList = 1; ///< Current cycle.
    static constexpr uint8_t kInNextList = 2; ///< Next cycle.

    /** Index-based core of scheduleAt (hot: commit wake sweeps). */
    void scheduleIndexAt(uint32_t index, Cycle cycle);

    /**
     * The one step thunk of a component of concrete type T: steps every
     * component in `batch` through the directly inlinable qualified
     * call, with the stepping component and its perf counters published
     * per replica (two TLS stores, for the channel hooks, trace
     * attribution and fault retries), then does its stall-span
     * accounting. The compiled sweep passes all awake replicas of one
     * bucket; the loop body is branch-light and monomorphic, so the
     * compiler sees T::step and T::holdsWork at their single call sites
     * and can vectorize or software-pipeline across replicas. The
     * generic sweeps pass a batch of one.
     *
     * Span-based stall accounting: both transitions of the predicate
     * (holdsWork && !moved) coincide with cycles the event-driven
     * schedulers step the component — holdsWork reads only committed
     * channel state and the component's own members, both of which
     * change only at commits that wake it or at its own steps — so the
     * accumulated spans are bit-identical to stepping every cycle.
     */
    template <typename T>
    static void
    stepManyBody(Component *const *batch, uint32_t n, Cycle now)
    {
        ChannelBase::tlsNow = now;
        for (uint32_t i = 0; i < n; ++i) {
            T *c = static_cast<T *>(batch[i]);
            ChannelBase::tlsStepping = c;
            ChannelBase::tlsStepPerf = &c->perf_;
            c->T::step(now);
            PerfCounters &p = c->perf_;
            const bool moved = p.lastMoveCycle == now;
            if (!moved && c->T::holdsWork()) {
                if (!p.stallOpen) {
                    p.stallOpen = true;
                    p.stallStart = now;
                }
            } else if (p.stallOpen) {
                p.stallOpen = false;
                p.stalledCycles += now - p.stallStart;
            }
        }
    }

    RunResult runReference(const bool *done, Cycle max_cycles,
                           Cycle deadlock_window);
    RunResult runEventDriven(const bool *done, Cycle max_cycles);
    void finalize();
    void seedWakes();
    void gatherWakes();
    void stepWakeList();
    void commitDirtyChannels();

    // Compiled-mode step plan (sim/specialize.cpp). The plan is built
    // once at finalize(); gatherWakes and commitDirtyChannels route
    // member wakes into it, and the member sweep runs before the
    // generic one.
    void buildCompiledPlan();
    void sweepPlan();
    void resetCompiledState();

    SchedulerMode mode_;

    /** Slab storage behind every component, channel, and token ring. */
    Arena arena_;
    std::vector<Component *> components_;   ///< Arena-owned.
    std::vector<ChannelBase *> channels_;   ///< Arena-owned.
    /** Typed destructor thunk per channel (parallel to channels_). */
    std::vector<void (*)(ChannelBase *)> channelDtors_;
    /** Flat dispatch table, parallel to components_: each component's
     *  step thunk (every component of one type shares one
     *  stepManyBody<T>). */
    std::vector<StepManyFn> stepMany_;

    // SoA scheduler state, indexed by component index. Lives here (not
    // in Component) so sweeps and wake delivery touch dense arrays.
    std::vector<Cycle> pendingWake_;   ///< Earliest heap-scheduled wake.
    std::vector<uint8_t> schedFlags_;  ///< kInWakeList | kInNextList.
    /** Compiled-plan position (CompiledPlan::kNoPos: the generic wake
     *  list steps it, as it steps every component without a plan). */
    std::vector<uint32_t> memberPos_;

    /** Flat channel-watcher index spans (see ChannelBase::watchOff_). */
    std::vector<uint32_t> watcherIndices_;
    /** memberPos_ of each watcherIndices_ entry (commit-time wakes). */
    std::vector<uint32_t> watcherPos_;

    Cycle now_ = 0;
    bool activity_ = false;
    SchedulerStats stats_;
    const FaultPlan *faultPlan_ = nullptr;
    const std::atomic<bool> *stopFlag_ = nullptr;
    TraceSink *traceSink_ = nullptr;

    /** Compiled step plan (Compiled mode only; null = generic). */
    std::unique_ptr<CompiledPlan> plan_;

    /** Channels staged on this cycle, in first-touch order; every
     *  simulator channel binds here at creation. */
    std::vector<ChannelBase *> dirtyChannels_;

    // Event-driven machinery (EventDriven and Compiled).
    std::vector<uint32_t> currentList_; ///< This cycle's wake list.
    std::vector<uint32_t> nextList_;    ///< Next cycle's wake list.
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<HeapEntry>>
        timerHeap_;
    size_t sweepPos_ = 0;     ///< Cursor of the in-order step sweep.
    bool sweeping_ = false;   ///< Inside stepWakeList().
    /** Inside a cycle's gather/step/commit: wake requests are only
     *  recorded then (Reference steps everything; construction-time
     *  and reset-time requests are dropped). */
    bool scheduling_ = false;
    bool finalized_ = false;
};

} // namespace soff::sim
