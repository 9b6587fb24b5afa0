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
#include <vector>

#include "sim/fault.hpp"
#include "sim/stats.hpp"
#include "support/error.hpp"

namespace soff::sim
{

class Component;
class Simulator;

/**
 * Which side of the handshake a watcher sits on. Declared by the
 * watch() call site (the component statically knows whether it pushes
 * or pops); consumed by the circuit-specialization pass to orient
 * producer->consumer edges when levelizing a pipeline segment. Unknown
 * is always safe: the edge is simply not used for ordering.
 */
enum class PortDir : uint8_t
{
    Unknown,
    Pop,  ///< The watcher consumes from this channel.
    Push, ///< The watcher produces into this channel.
};

/** Type-erased, vtable-free base; owns all per-cycle channel state. */
class ChannelBase
{
  public:
    /**
     * Applies this cycle's staged pops/pushes; true if state changed.
     * Non-virtual: commit only moves bookkeeping counters, never token
     * values, so one monomorphic function serves every Channel<T>.
     */
    bool
    commit()
    {
        bool changed = popped_ || staged_ > 0;
        uint32_t pushes = staged_;
        if (popped_) {
            head_ = (head_ + 1) % cap_;
            --committed_;
            popped_ = false;
        }
        committed_ += staged_;
        staged_ = 0;
        dirty_ = false;
        if (changed)
            noteCommit(pushes);
        return changed;
    }

    /** Registers an endpoint component woken by every commit. */
    void
    addWatcher(Component *c, PortDir dir = PortDir::Unknown)
    {
        for (size_t i = 0; i < watchers_.size(); ++i) {
            if (watchers_[i] != c)
                continue;
            // Re-registration with a conflicting direction (a component
            // that both pushes and pops the same channel) degrades the
            // edge to Unknown rather than picking a side.
            if (watcherDirs_[i] != dir)
                watcherDirs_[i] = PortDir::Unknown;
            return;
        }
        watchers_.push_back(c);
        watcherDirs_.push_back(dir);
    }
    const std::vector<Component *> &watchers() const { return watchers_; }
    /** Declared handshake side per watcher (parallel to watchers()). */
    const std::vector<PortDir> &watcherDirs() const { return watcherDirs_; }

    /** Binds the simulator's dirty list (event-driven commits). */
    void bindDirtyList(std::vector<ChannelBase *> *list)
    {
        dirtyList_ = list;
    }

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
    explicit ChannelBase(size_t capacity)
        : cap_(static_cast<uint32_t>(capacity))
    {
        SOFF_ASSERT(capacity >= 1, "channel capacity must be >= 1");
    }
    ~ChannelBase() = default; // non-virtual; destroyed via typed thunk

    /**
     * Perf hooks. The push/pop hooks credit the component currently
     * being stepped with a token movement this cycle; outside a
     * scheduler sweep (unit tests driving components by hand) they are
     * no-ops. Inline on purpose — they sit inside every push/pop on
     * the hot path — and they read the stepping component's counters
     * through one thread-local pointer the sweeps redirect per step
     * (per replica in the batched compiled sweep); thread-local
     * because CrossCheck runs several simulators on concurrent
     * threads. The trace sample is the only part that needs the
     * Component/Simulator definitions, so it stays out-of-line behind
     * the tlsTraceOn flag the run loops set; noteCommit() folds the
     * commit into the channel's own token/occupancy counters plus the
     * trace sink. None of these feed back into scheduling.
     */
    void
    notePerfMove(bool out)
    {
        PerfCounters *p = tlsStepPerf;
        if (p == nullptr || nowPtr_ == nullptr)
            return;
        if (out)
            ++p->tokensOut;
        else
            ++p->tokensIn;
        if (p->lastMoveCycle != *nowPtr_) {
            p->lastMoveCycle = *nowPtr_;
            ++p->busyCycles;
            if (tlsTraceOn)
                notePerfTrace(); // rare: trace window sampling
        }
    }
    void notePerfPush() { notePerfMove(/*out=*/true); }
    void notePerfPop() { notePerfMove(/*out=*/false); }
    void noteCommit(size_t pushes);

    /**
     * Fault-injection hook for canPop()/canPush(): true while an
     * injected stall window covers this channel. Occupancy conditions
     * must be checked *before* this gate so an occupancy-blocked query
     * keeps relying on the normal commit wakes; when the gate itself
     * blocks, it arms a timer wake for the querying component at the
     * deterministic clear cycle — otherwise an event-driven scheduler
     * could sleep through the only cycle that unblocks it.
     */
    bool
    faultGate() const
    {
        if (faults_ == nullptr)
            return false;
        uint64_t clear = 0;
        if (!faults_->channelBlocked(index_, faultClass_, *nowPtr_,
                                     &clear))
            return false;
        faultRetry(clear);
        return true;
    }

    void
    markDirty()
    {
        if (!dirty_ && dirtyList_ != nullptr) {
            dirty_ = true;
            dirtyList_->push_back(this);
        }
    }

    /** Ring bookkeeping; shared by every Channel<T> instantiation. */
    uint32_t cap_;
    uint32_t head_ = 0;
    uint32_t committed_ = 0;
    uint32_t staged_ = 0;
    bool popped_ = false;

  private:
    friend class Simulator;

    /** Out-of-line (needs the Simulator definition): arms the retry
     *  wake for the component currently being stepped. */
    void faultRetry(uint64_t clear) const;

    /** Out-of-line slow path of notePerfMove (needs the Component and
     *  Simulator definitions): emits a componentActive trace sample
     *  for the stepping component when its window is open. Reached
     *  only when a trace sink is installed — which forces the generic
     *  sweeps, so tlsStepping is always set here. */
    void notePerfTrace();

    // The hook thread-locals are constinit here and at their
    // definitions in simulator.cpp. Without it, every other translation
    // unit reaches them through GCC's weak TLS-init wrapper on each
    // access, a check UBSan reports as a null-pointer load.

    /** The component the scheduler is stepping on this thread right
     *  now (trace attribution, forensics); null outside a sweep. */
    static constinit thread_local Component *tlsStepping;

    /** The stepping component's perf counters (push/pop attribution);
     *  null outside a sweep. Kept as a separate lane from tlsStepping
     *  so the hot hook costs one TLS load and no Component deref. */
    static constinit thread_local PerfCounters *tlsStepPerf;

    /** True while the owning simulator has a trace sink installed
     *  (set by the run loops; read by notePerfMove). */
    static constinit thread_local bool tlsTraceOn;

    uint64_t tokens_ = 0; ///< Committed pushes over the run.
    uint64_t maxOcc_ = 0; ///< Committed-occupancy high-water mark.

    std::vector<Component *> watchers_;
    std::vector<PortDir> watcherDirs_; ///< Parallel to watchers_.
    /** Flat watcher span in Simulator::watcherIndices_ (wake sweep). */
    uint32_t watchOff_ = 0;
    uint32_t watchCount_ = 0;
    std::vector<ChannelBase *> *dirtyList_ = nullptr;
    bool dirty_ = false;
    uint32_t index_ = 0; ///< Global creation index (commit ordering).
    Simulator *sim_ = nullptr;          ///< Owning simulator (faults).
    const uint64_t *nowPtr_ = nullptr;  ///< The simulator's clock.
    const FaultPlan *faults_ = nullptr; ///< Null when injection is off.
    FaultClass faultClass_ = FaultClass::Data;
};

/** A single-producer single-consumer staged FIFO channel. */
template <typename T>
class Channel : public ChannelBase
{
  public:
    /** Standalone channel (unit tests, hand-built circuits). */
    explicit Channel(size_t capacity)
        : ChannelBase(capacity), owned_(new T[capacity]()),
          buf_(owned_.get())
    {}

    /**
     * Arena-backed channel (Simulator::channel): `storage` points at
     * `capacity` default-constructed slots in the circuit slab. The
     * channel destroys the elements; the arena reclaims the bytes.
     */
    Channel(size_t capacity, T *storage)
        : ChannelBase(capacity), buf_(storage)
    {}

    ~Channel()
    {
        if (owned_ == nullptr) {
            for (uint32_t i = 0; i < cap_; ++i)
                buf_[i].~T();
        }
    }

    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    /** Consumer side: a committed token is available. */
    bool canPop() const
    {
        return committed_ > 0 && !popped_ && !faultGate();
    }
    const T &peek() const { return buf_[head_]; }
    T
    pop()
    {
        // Occupancy-only assert: canPop() would re-run the fault gate,
        // which is deterministic within a cycle (the guard the caller
        // just passed already armed any retry), so re-checking it here
        // only costs hot-path work. The bounds condition stays on.
        SOFF_ASSERT(committed_ > 0 && !popped_, "pop on empty channel");
        popped_ = true;
        markDirty();
        notePerfPop();
        // Move out of the slot: canPop() blocks a second pop until the
        // commit advances head_, and commit never reads token values,
        // so the moved-from slot is dead until the next push overwrites
        // it. Saves a deep copy for heap-carrying payloads.
        return std::move(buf_[head_]);
    }

    /** Producer side: space based on the committed occupancy. */
    bool canPush() const
    {
        return committed_ + staged_ < cap_ && !faultGate();
    }
    void
    push(T v)
    {
        // Occupancy-only, like pop(): skip the redundant fault-gate
        // re-evaluation; keep the always-on bounds check.
        SOFF_ASSERT(committed_ + staged_ < cap_, "push on full channel");
        buf_[(head_ + committed_ + staged_) % cap_] = std::move(v);
        ++staged_;
        markDirty();
        notePerfPush();
    }

    size_t size() const { return committed_; }
    size_t capacity() const { return cap_; }
    bool empty() const { return committed_ == 0; }

  private:
    std::unique_ptr<T[]> owned_; ///< Null when arena-backed.
    T *buf_;
};

} // namespace soff::sim
