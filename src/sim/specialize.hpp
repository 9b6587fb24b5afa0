/**
 * @file
 * Circuit specialization for SchedulerMode::Compiled.
 *
 * At the first run of a compiled-mode simulator (finalize()), the
 * component/channel graph is analyzed once and lowered into a
 * CompiledPlan the per-cycle loop executes directly. Three
 * specializations, each with a per-element fallback to the generic
 * event-driven machinery when its precondition fails:
 *
 *  1. Levelized member sweeps. A *member* is any component whose kind
 *     communicates only through channels and timers (Source, Sink,
 *     Compute, Router, Select, Barrier, Arbiter, LocalMemory); the
 *     kinds party to same-cycle wakeOther
 *     couplings (memory units, caches, dispatcher, counter, loop
 *     gates) stay generic, because their delivery semantics compare
 *     indices against the generic sweep cursor. Wakes addressed to
 *     members become per-member activation flags laid out in a global
 *     topological order of the fused channel graph (longest-path
 *     levels; producers before consumers), and the sweep walks that
 *     order directly — no generic wake-list flags, no next-list
 *     churn, no per-cycle wake-list sort. The set of components
 *     stepped each cycle is *exactly* the event-driven wake set; only
 *     the (unobservable) intra-cycle order changes, because staged
 *     channel state is invisible until commit.
 *
 *  2. Fused commit+activate for internal channels. A channel whose
 *     watchers are all members is *fused*: instead of the two-phase
 *     per-watcher wake bookkeeping (dirty list -> commit ->
 *     scheduleIndexAt per watcher -> next-list flag -> sort), its
 *     commit and the scheduling of its watchers collapse into one
 *     pass at the end of the same cycle that sets the watchers'
 *     activation flags for the next cycle. Commit timing is unchanged
 *     — staged pushes/pops still land at the end of the cycle they
 *     were staged in — so channel stats (tokensDelivered,
 *     maxOccupancy) and every consumer-visible occupancy are
 *     bit-identical to the generic two-phase commit.
 *
 *  3. Replica-batched (SIMD-style) stepping. Members are ordered by
 *     (level, step thunk, index); within a level there are no edges,
 *     so sub-ordering a level by step thunk is still a topological
 *     order — and it makes every (level, thunk) class a contiguous
 *     position range, a *bucket*. A wake is one O(1) store into its
 *     bucket's slot range; the sweep visits the touched buckets in
 *     id order (sorting bucket ids, typically a handful, never the
 *     wakes themselves) and steps all of a bucket's wakes with one
 *     call of its batched step thunk. No generic wake-list flags, no
 *     next-list churn, and no per-cycle O(n log n) wake sort at all.
 *
 * Global fallback: the plan is not built at all (Compiled degrades to
 * plain EventDriven) when fault injection is active — fault-retry
 * wakes address "the component the sweep is on", which a segment sweep
 * has no generic cursor for — or when a trace sink is installed, since
 * fusing commits would reorder intra-cycle channel samples.
 */
#pragma once

#include <cstdint>
#include <vector>

namespace soff::sim
{

class ChannelBase;
class Component;

/** Batched step thunk: steps a whole (level, thunk) bucket's awake
 *  replicas in one call (see sweepActiveSegments). */
using StepManyFn = void (*)(Component *const *, uint32_t, uint64_t);

/** The per-circuit execution plan driving SchedulerMode::Compiled. */
struct CompiledPlan
{
    /** "Not compiled" marker for the index maps. */
    static constexpr uint32_t kNoSegment = ~uint32_t{0};

    /** Members in sweep order: (level, thunk, index)-sorted component
     *  indices. Every (level, thunk) class is therefore a contiguous
     *  position range — a bucket. */
    std::vector<uint32_t> stepOrder;

    /** Component index -> 0 for members, kNoSegment for generic. */
    std::vector<uint32_t> compSegment;
    /** Component index -> position in stepOrder (kNoSegment =
     *  generic). Inverse of stepOrder, restricted to members. */
    std::vector<uint32_t> compOrderPos;
    /** Position -> owning (level, thunk) bucket id. */
    std::vector<uint32_t> bucketOf;
    /** Bucket id -> first position of its range (size #buckets + 1;
     *  the bucket's capacity is bucketStart[b+1] - bucketStart[b]). */
    std::vector<uint32_t> bucketStart;
    /** Channel index -> 0 if fused, kNoSegment for boundary channels
     *  (generic dirty list + per-watcher wakes). */
    std::vector<uint32_t> chanSegment;

    // ------------------------------------------------------------------
    // SoA dispatch lanes (satellite of the batched step path): the
    // sweep's inner loop reads exactly one 8-byte lane per replica and
    // one step thunk per bucket.
    // ------------------------------------------------------------------

    /** Position -> component pointer (the only per-replica lane the
     *  batched sweep touches). */
    std::vector<Component *> laneComp;
    /** Bucket id -> batched step thunk (whole bucket in one call). */
    std::vector<StepManyFn> bucketStepMany;
    /** Preallocated gather buffer for sparse batched sweeps (size =
     *  member count; zero steady-state allocations). */
    std::vector<Component *> batchScratch;

    /** CSR spans over fused-channel watchers: channel index i's member
     *  watcher *positions* are fusedWatchPos[fusedWatchStart[i] ..
     *  fusedWatchStart[i+1]). Replaces the watchers_ pointer-chase +
     *  compOrderPos lookup in commitSegmentChannels. Boundary channels
     *  have empty spans. */
    std::vector<uint32_t> fusedWatchStart;
    std::vector<uint32_t> fusedWatchPos;

    // ------------------------------------------------------------------
    // Per-cycle runtime state (preallocated at build; the steady-state
    // loop performs zero heap allocations).
    // ------------------------------------------------------------------

    /** This cycle's woken positions, grouped by bucket: bucket b's
     *  wakes occupy slots[bucketStart[b] .. bucketStart[b] +
     *  bucketLen[b]). A bucket's slot range can never overflow — its
     *  capacity is its member count and memberActive deduplicates. */
    std::vector<uint32_t> slots;
    /** Bucket id -> number of wakes staged this cycle. */
    std::vector<uint32_t> bucketLen;
    /** Bucket ids with bucketLen > 0 this cycle (unsorted until the
     *  sweep). Nonempty iff any member wake is pending. */
    std::vector<uint32_t> touched;
    /** Per-member wake flags, indexed like stepOrder: the dedup set
     *  behind the slot ranges, cleared as the sweep consumes them. */
    std::vector<uint8_t> memberActive;
    /** Fused channels staged on this cycle (their shared dirty list). */
    std::vector<ChannelBase *> segDirty;

    // ------------------------------------------------------------------
    // Build-time census (tests, benchmarks, DESIGN.md numbers).
    // ------------------------------------------------------------------
    uint32_t fusedChannels = 0;    ///< Channels on the fused path.
    uint32_t boundaryChannels = 0; ///< Channels on the generic path.
    /** Internal channels demoted to the boundary path because a cycle
     *  in the segment graph (loop back-edges) made them unorderable. */
    uint32_t demotedChannels = 0;

    /** Record a member wake: one O(1) store into the member's
     *  (level, thunk) bucket. The memberActive flag is the dedup set
     *  — a component still steps at most once per cycle, like the
     *  generic wake-list flag this replaces. A bucket's slot range
     *  cannot overflow: its capacity is its member count and the flag
     *  dedups. */
    void
    wake(uint32_t pos)
    {
        if (memberActive[pos])
            return;
        memberActive[pos] = 1;
        const uint32_t b = bucketOf[pos];
        uint32_t &len = bucketLen[b];
        if (len == 0)
            touched.push_back(b);
        slots[bucketStart[b] + len++] = pos;
    }
};

} // namespace soff::sim
