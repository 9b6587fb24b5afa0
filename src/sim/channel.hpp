/**
 * @file
 * Elastic handshake channels (paper §II-A3, §IV-B/C).
 *
 * A channel models a registered valid/stall link between two circuit
 * components (the synchronous handshake protocol of Cortadella et al.
 * that SOFF uses). Pushes become visible to the consumer one cycle
 * later; a pop does not free space until the next cycle — exactly the
 * "at least one cycle delay between the stall of a functional unit and
 * that of its predecessors" plus the "additional register to maintain
 * its output" of §IV-C. The default capacity of 2 (main + skid
 * register) sustains one token per cycle.
 *
 * Storage is a fixed-capacity ring buffer sized at construction:
 * capacities are small compile-plan constants (typically 2), so there
 * is never an allocation or pointer chase in the hot path. Committed
 * tokens occupy [head, head+committed); staged pushes follow them.
 *
 * Data-oriented layout: ChannelBase is NOT polymorphic. Every state
 * transition the schedulers perform per cycle — commit(), occupancy
 * queries, dirty tracking — only touches the head/committed/staged/
 * popped bookkeeping, never a token value, so the whole commit path
 * lives in the base class as direct calls with no vtable anywhere on a
 * channel. Only push/pop/peek are typed, and those are called by the
 * unit that statically knows its Channel<T>. Simulator-owned channels
 * place both the channel object and its token ring in the circuit
 * arena (build order == index order), so a commit sweep walks
 * contiguous memory; destruction goes through a per-type thunk the
 * creating template records.
 *
 * For the event-driven schedulers a channel additionally
 *  - registers itself on the simulator's dirty list at the first
 *    staged push or pop of a cycle, so commit cost scales with the
 *    cycle's traffic rather than with circuit size, and
 *  - records its endpoint components (watchers) so a commit can wake
 *    exactly the producer and consumer for the next cycle. The wake
 *    sweep itself uses a flat index-span view (watchOff/watchCount
 *    into one simulator-wide index array) built by
 *    Simulator::finalize(); the pointer list survives for forensics.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/fault.hpp"
#include "sim/stats.hpp"
#include "support/error.hpp"

namespace soff::sim
{

class Component;
class Simulator;

/**
 * Type-erased, vtable-free base; owns all per-cycle channel state.
 *
 * One-line layout: every field a push, pop, canPop/canPush, or commit
 * reads or writes sits in the first 64 bytes, and the class is
 * 64-byte aligned, so the per-token handshake touches exactly one
 * cache line of channel state (plus the token slot). Forensics,
 * fault-injection, and trace fields follow the hot line.
 */
class alignas(64) ChannelBase
{
  public:
    /**
     * Applies this cycle's staged pops/pushes; true if state changed.
     * Non-virtual: commit only moves bookkeeping counters, never token
     * values, so one monomorphic function serves every Channel<T>. The
     * token and occupancy counters are folded in here; only a trace
     * sample leaves the line.
     */
    bool
    commit()
    {
        const uint32_t pushes = staged_;
        const bool changed = popped_ || pushes != 0;
        if (popped_) {
            head_ = head_ + 1 == cap_ ? 0 : head_ + 1;
            --committed_;
            popped_ = false;
        }
        committed_ += pushes;
        staged_ = 0;
        dirty_ = false;
        if (changed) {
            tokens_ += pushes;
            if (committed_ > maxOcc_)
                maxOcc_ = committed_;
            if (tlsTraceOn)
                traceCommit(); // rare: trace window sampling
        }
        return changed;
    }

    /** Registers an endpoint component woken by every commit (once,
     *  however many of its ports use this channel). */
    void
    addWatcher(Component *c)
    {
        for (Component *w : watchers_) {
            if (w == c)
                return;
        }
        watchers_.push_back(c);
    }
    const std::vector<Component *> &watchers() const { return watchers_; }

    /** Global creation index (stable across schedulers; fault keys). */
    uint32_t id() const { return index_; }

    /** Tags the stall-probability class (memory ports stall harder). */
    void setFaultClass(FaultClass cls) { faultClass_ = cls; }

    /** Committed tokens currently held (forensics snapshot). */
    size_t occupancy() const { return committed_; }
    /** Total token capacity (forensics snapshot). */
    size_t capacityTokens() const { return cap_; }

    /** Tokens delivered (committed pushes) over the whole run. */
    uint64_t tokensDelivered() const { return tokens_; }
    /** Committed-occupancy high-water mark over the whole run. */
    uint64_t maxOccupancy() const { return maxOcc_; }

    /**
     * Returns the channel to its post-construction state for a fresh
     * launch of the same circuit (relaunch path). Token storage is
     * retained — slots beyond the committed span are never read before
     * being written, so stale values cannot be observed.
     */
    void
    reset()
    {
        tokens_ = 0;
        maxOcc_ = 0;
        head_ = 0;
        committed_ = 0;
        staged_ = 0;
        popped_ = false;
        dirty_ = false;
    }

  protected:
    ChannelBase(size_t capacity, void *storage)
        : buf_(storage), cap_(static_cast<uint32_t>(capacity))
    {
        SOFF_ASSERT(capacity >= 1 && capacity <= UINT32_MAX,
                    "channel capacity must be in [1, 2^32)");
    }
    ~ChannelBase() = default; // non-virtual; destroyed via typed thunk

    /**
     * Perf hooks. The push/pop hooks credit the component currently
     * being stepped with a token movement this cycle; outside a
     * scheduler sweep (unit tests driving components by hand) they are
     * no-ops. Inline on purpose — they sit inside every push/pop on
     * the hot path — and they read the stepping component's counters
     * and the sweep's cycle through thread-locals every sweep's
     * stepManyBody sets per replica, so they touch no channel
     * field at all; thread-local because CrossCheck runs several
     * simulators on concurrent threads. The trace sample is the only
     * part that needs the Component/Simulator definitions, so it stays
     * out-of-line behind the tlsTraceOn flag the run loops set. None
     * of these feed back into scheduling.
     */
    static void
    notePerfMove(bool out)
    {
        PerfCounters *p = tlsStepPerf;
        if (p == nullptr)
            return;
        if (out)
            ++p->tokensOut;
        else
            ++p->tokensIn;
        if (p->lastMoveCycle != tlsNow) {
            p->lastMoveCycle = tlsNow;
            ++p->busyCycles;
            if (tlsTraceOn)
                notePerfTrace(); // rare: trace window sampling
        }
    }

    /**
     * Fault-injection hook for canPop()/canPush(): true while an
     * injected stall window covers this channel. Occupancy conditions
     * must be checked *before* this gate so an occupancy-blocked query
     * keeps relying on the normal commit wakes; when the gate itself
     * blocks, it arms a timer wake for the querying component at the
     * deterministic clear cycle — otherwise an event-driven scheduler
     * could sleep through the only cycle that unblocks it. A channel
     * built without a fault plan never leaves the hot line here.
     */
    bool faultGate() const { return faulty_ && faultBlocked(); }

    void
    markDirty()
    {
        if (!dirty_ && dirtyList_ != nullptr) {
            dirty_ = true;
            dirtyList_->push_back(this);
        }
    }

    // ---- Hot line (bytes 0-63): push, pop, canPop/canPush, commit ----
    void *buf_;                                    ///< Token ring.
    std::vector<ChannelBase *> *dirtyList_ = nullptr;
    uint64_t tokens_ = 0;  ///< Committed pushes over the run.
    uint32_t cap_;
    uint32_t head_ = 0;
    uint32_t committed_ = 0;
    uint32_t staged_ = 0;
    uint32_t maxOcc_ = 0;  ///< Committed-occupancy high-water mark.
    uint32_t index_ = 0;   ///< Global creation index.
    /** Flat watcher span in Simulator::watcherIndices_ (wake sweep). */
    uint32_t watchOff_ = 0;
    uint32_t watchCount_ = 0;
    bool popped_ = false;
    bool dirty_ = false;
    bool faulty_ = false;  ///< A fault plan is installed (faults_).
    FaultClass faultClass_ = FaultClass::Data;
    // ---- End of the hot line ----

  private:
    friend class Simulator;
    /** Test-only view of the layout (sim_unit_test). */
    friend struct ChannelLayoutProbe;

    /** Out-of-line slow path of faultGate (needs the Simulator
     *  definition to arm the querier's retry wake). */
    bool faultBlocked() const;

    /** Out-of-line slow path of notePerfMove (needs the Component and
     *  Simulator definitions): emits a componentActive trace sample
     *  for the stepping component when its window is open. Reached
     *  only when a trace sink is installed; tlsStepping is set here,
     *  since it is set beside tlsStepPerf. */
    static void notePerfTrace();

    /** Out-of-line slow path of commit: the occupancy trace sample. */
    void traceCommit() const;

    // The hook thread-locals are constinit here and at their
    // definitions in simulator.cpp. Without it, every other translation
    // unit reaches them through GCC's weak TLS-init wrapper on each
    // access, a check UBSan reports as a null-pointer load.

    /** The component the scheduler is stepping on this thread right
     *  now (trace attribution, fault-retry wakes); set per replica by
     *  stepManyBody in every sweep, null outside a sweep. */
    static constinit thread_local Component *tlsStepping;

    /** The stepping component's perf counters (push/pop attribution);
     *  null outside a sweep. Kept as a separate lane from tlsStepping
     *  so the hot hook costs one TLS load and no Component deref. */
    static constinit thread_local PerfCounters *tlsStepPerf;

    /** The cycle the current sweep steps (valid while tlsStepPerf is
     *  set). */
    static constinit thread_local uint64_t tlsNow;

    /** True while the owning simulator has a trace sink installed
     *  (set by the run loops; read by notePerfMove and commit). */
    static constinit thread_local bool tlsTraceOn;

    std::vector<Component *> watchers_;
    Simulator *sim_ = nullptr;          ///< Owning simulator (faults, trace).
    const FaultPlan *faults_ = nullptr; ///< Null when injection is off.
};

/** A single-producer single-consumer staged FIFO channel. */
template <typename T>
class Channel : public ChannelBase
{
  public:
    /** Standalone channel (unit tests, hand-built circuits). */
    explicit Channel(size_t capacity)
        : Channel(capacity, std::make_unique<T[]>(capacity))
    {}

    /**
     * Arena-backed channel (Simulator::channel): `storage` points at
     * `capacity` default-constructed slots in the circuit slab. The
     * channel destroys the elements; the arena reclaims the bytes.
     */
    Channel(size_t capacity, T *storage) : ChannelBase(capacity, storage)
    {}

    ~Channel()
    {
        if (owned_ == nullptr) {
            for (uint32_t i = 0; i < cap_; ++i)
                ring()[i].~T();
        }
    }

    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    /** Consumer side: a committed token is available. */
    bool canPop() const
    {
        return committed_ > 0 && !popped_ && !faultGate();
    }
    const T &peek() const { return ring()[head_]; }

    /**
     * Takes the head token. The slot itself is returned as an rvalue:
     * canPop() blocks a second pop until the commit advances head_,
     * and commit never reads token values, so the slot stays intact
     * until a later push overwrites it. A caller moves from it (or
     * forwards it straight into another channel's push) without a
     * temporary in between.
     */
    T &&
    pop()
    {
        takeHead();
        return std::move(ring()[head_]);
    }

    /** Pops the head token without reading it (the caller already
     *  consumed it through peek()). */
    void drop() { takeHead(); }

    /** Producer side: space based on the committed occupancy. */
    bool canPush() const
    {
        return committed_ + staged_ < cap_ && !faultGate();
    }
    void push(const T &v) { stageSlot() = v; }
    void push(T &&v) { stageSlot() = std::move(v); }

    size_t size() const { return committed_; }
    size_t capacity() const { return cap_; }
    bool empty() const { return committed_ == 0; }

  private:
    Channel(size_t capacity, std::unique_ptr<T[]> ring)
        : ChannelBase(capacity, ring.get()), owned_(std::move(ring))
    {}

    T *ring() const { return static_cast<T *>(buf_); }

    void
    takeHead()
    {
        // Occupancy-only assert: canPop() would re-run the fault gate,
        // which is deterministic within a cycle (the guard the caller
        // just passed already armed any retry), so re-checking it here
        // only costs hot-path work. The bounds condition stays on.
        SOFF_ASSERT(committed_ > 0 && !popped_, "pop on empty channel");
        popped_ = true;
        markDirty();
        notePerfMove(/*out=*/false);
    }

    /** Stages one push and returns its slot for the caller to fill. */
    T &
    stageSlot()
    {
        // Occupancy-only, like takeHead(): skip the redundant
        // fault-gate re-evaluation; keep the always-on bounds check.
        SOFF_ASSERT(committed_ + staged_ < cap_, "push on full channel");
        // head_ < cap_ and committed_ + staged_ < cap_: one compare
        // wraps the ring, no division.
        uint32_t pos = head_ + committed_ + staged_;
        if (pos >= cap_)
            pos -= cap_;
        T &slot = ring()[pos];
        ++staged_;
        markDirty();
        notePerfMove(/*out=*/true);
        return slot;
    }

    std::unique_ptr<T[]> owned_; ///< Null when arena-backed.
};

} // namespace soff::sim
