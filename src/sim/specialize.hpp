/**
 * @file
 * The compiled step plan of SchedulerMode::Compiled.
 *
 * At the first run of a compiled-mode simulator (finalize()), the
 * components are grouped once into a CompiledPlan the per-cycle loop
 * executes directly. A *member* is any component whose kind
 * communicates only through channels and timers (Source, Sink,
 * Compute, Router, Select, Barrier, Arbiter, LocalMemory); the kinds
 * party to same-cycle wakeOther couplings (memory units, caches,
 * dispatcher, counter, loop gates) stay on the generic wake list,
 * because their delivery semantics compare indices against the generic
 * sweep cursor.
 *
 * Members are grouped into *buckets*, one per stepManyBody<T> thunk,
 * each a contiguous position range. Wakes addressed to members — from
 * the next list, due timers, and channel commits — are one O(1) store
 * into the member's bucket, and the sweep steps each touched bucket's
 * wakes with one call of its thunk, buckets in the order they were
 * first touched. The set of components stepped each cycle is *exactly*
 * the event-driven wake set; only the intra-cycle order changes, and
 * that order is unobservable: members couple only through two-phase
 * channels and timers, and a channel query reads only committed state
 * plus the querier's own staged transfer (DESIGN.md "Compiled step
 * plan").
 */
#pragma once

#include <cstdint>
#include <vector>

namespace soff::sim
{

class Component;

/** Batched step thunk: steps a whole bucket's awake replicas in one
 *  call (see Simulator::sweepPlan). */
using StepManyFn = void (*)(Component *const *, uint32_t, uint64_t);

/** The per-circuit execution plan driving SchedulerMode::Compiled. */
struct CompiledPlan
{
    /** "Not a member" marker of the simulator's position maps. */
    static constexpr uint32_t kNoPos = ~uint32_t{0};

    /** Position -> member component. Members are ordered by (thunk,
     *  index), so each bucket is a contiguous position range in
     *  component-index order. */
    std::vector<Component *> laneComp;
    /** Position -> owning bucket id. */
    std::vector<uint32_t> bucketOf;
    /** Bucket id -> first position of its range (size #buckets + 1;
     *  the bucket's capacity is bucketStart[b+1] - bucketStart[b]). */
    std::vector<uint32_t> bucketStart;
    /** Bucket id -> its members' shared step thunk. */
    std::vector<StepManyFn> bucketStepMany;
    /** Preallocated gather buffer for partly awake buckets (size =
     *  member count; zero steady-state allocations). */
    std::vector<Component *> batchScratch;

    // ------------------------------------------------------------------
    // Per-cycle runtime state (preallocated at build; the steady-state
    // loop performs zero heap allocations).
    // ------------------------------------------------------------------

    /** This cycle's woken positions, grouped by bucket: bucket b's
     *  wakes occupy slots[bucketStart[b] .. bucketStart[b] +
     *  bucketLen[b]). */
    std::vector<uint32_t> slots;
    /** Bucket id -> number of wakes staged this cycle. */
    std::vector<uint32_t> bucketLen;
    /** Bucket ids with bucketLen > 0 this cycle, in first-wake order.
     *  Nonempty iff any member wake is pending. */
    std::vector<uint32_t> touched;
    /** Per-member wake flags, indexed by position: the dedup set
     *  behind the slot ranges, cleared as the sweep consumes them. */
    std::vector<uint8_t> memberActive;

    /** Record a member wake: one O(1) store into the member's bucket.
     *  The memberActive flag is the dedup set — a component still
     *  steps at most once per cycle, like the generic wake-list flag
     *  this replaces — so a bucket's slot range, whose capacity is its
     *  member count, cannot overflow. */
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
