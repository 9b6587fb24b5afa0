/**
 * @file
 * Build- and run-time halves of the compiled step plan
 * (SchedulerMode::Compiled). See specialize.hpp for the scheme and
 * DESIGN.md "Compiled step plan" for the bit-identity argument.
 */
#include <algorithm>
#include <cstring>
#include <map>

#include "sim/simulator.hpp"
#include "sim/specialize.hpp"

namespace soff::sim
{

namespace
{

/**
 * Membership eligibility. Because the compiled sweep reproduces the
 * generic wake set *exactly* (wakes are rerouted, never widened), the
 * only components that must stay on the generic machinery are the
 * ones whose wake delivery depends on the generic sweep itself:
 *
 *  - parties to same-cycle wakeOther couplings, whose delivery
 *    semantics compare the target index against the in-order sweep
 *    cursor (wakeComponent's mid-sweep insert): memory units (lock
 *    handoff), caches and the completion counter (flush protocol),
 *    the dispatcher (slot retire), and loop gates (SWGR admission);
 *  - unknown (Other) kinds, which make no behavioral promises.
 *
 * Channel-only and timer-only kinds are safe: channel wakes are
 * rerouted at commit, timer wakes at gather, both to the exact
 * generic set.
 */
bool
eligibleKind(ComponentKind kind)
{
    switch (kind) {
      case ComponentKind::Source:
      case ComponentKind::Sink:
      case ComponentKind::Compute:
      case ComponentKind::Router:
      case ComponentKind::Select:
      case ComponentKind::Barrier:
      case ComponentKind::Arbiter:
      case ComponentKind::LocalMemory:
        return true;
      default:
        return false;
    }
}

} // namespace

void
Simulator::buildCompiledPlan()
{
    // Members, ordered by (step thunk, index): every thunk class is a
    // contiguous position range — a bucket — and the index makes the
    // order deterministic. Thunk ids follow first appearance in index
    // order, so the layout does not depend on code addresses.
    //
    // The class key is the stepMany thunk, the only one the sweep
    // calls. Identical-code folding can merge two types' thunks only
    // when their bodies are byte-identical, so members that share a
    // bucket through a folded thunk still step exactly as their own
    // thunks would.
    std::map<StepManyFn, uint32_t> fn_ids;
    std::vector<std::pair<uint32_t, uint32_t>> members; // (thunk, index)
    for (uint32_t i = 0; i < components_.size(); ++i) {
        if (!eligibleKind(components_[i]->kind()))
            continue;
        auto it = fn_ids.try_emplace(stepMany_[i],
                                     static_cast<uint32_t>(fn_ids.size()))
                      .first;
        members.emplace_back(it->second, i);
    }
    if (members.empty())
        return; // nothing to compile: stay on the generic sweep
    std::sort(members.begin(), members.end());

    auto plan = std::make_unique<CompiledPlan>();
    const uint32_t count = static_cast<uint32_t>(members.size());
    plan->laneComp.resize(count);
    plan->bucketOf.resize(count);
    for (uint32_t pos = 0; pos < count; ++pos) {
        const auto [thunk, index] = members[pos];
        if (pos == 0 || thunk != members[pos - 1].first) {
            plan->bucketStart.push_back(pos);
            plan->bucketStepMany.push_back(stepMany_[index]);
        }
        plan->bucketOf[pos] =
            static_cast<uint32_t>(plan->bucketStart.size() - 1);
        plan->laneComp[pos] = components_[index];
        memberPos_[index] = pos;
    }
    const uint32_t n_buckets =
        static_cast<uint32_t>(plan->bucketStart.size());
    plan->bucketStart.push_back(count);
    plan->batchScratch.resize(count);
    plan->slots.resize(count);
    plan->bucketLen.assign(n_buckets, 0);
    plan->touched.reserve(n_buckets);
    plan->memberActive.assign(count, 0);
    plan_ = std::move(plan);
}

void
Simulator::sweepPlan()
{
    // One stepManyBody<T> call per touched bucket steps every awake
    // replica, buckets in first-wake order. No order is ever sorted
    // for: members couple only through two-phase channels and timers,
    // so no member can observe another's step within the cycle.
    //
    // A full bucket is stepped straight off the laneComp span (no
    // gather, and its wake flags clear in one contiguous wipe); a
    // partial bucket gathers its awake lanes into the preallocated
    // scratch first.
    CompiledPlan &p = *plan_;
    const uint32_t *slots = p.slots.data();
    Component *const *lane = p.laneComp.data();
    uint64_t stepped = 0;
    for (uint32_t b : p.touched) {
        const uint32_t base = p.bucketStart[b];
        const uint32_t len = p.bucketLen[b];
        StepManyFn fn = p.bucketStepMany[b];
        if (len == p.bucketStart[b + 1] - base) {
            std::memset(&p.memberActive[base], 0, len);
            fn(lane + base, len, now_);
        } else {
            Component **batch = p.batchScratch.data();
            for (uint32_t i = 0; i < len; ++i) {
                const uint32_t pos = slots[base + i];
                p.memberActive[pos] = 0;
                batch[i] = lane[pos];
            }
            fn(batch, len, now_);
        }
        p.bucketLen[b] = 0;
        stepped += len;
    }
    p.touched.clear();
    stats_.componentSteps += stepped;
    ChannelBase::tlsStepping = nullptr;
    ChannelBase::tlsStepPerf = nullptr;
}

void
Simulator::resetCompiledState()
{
    if (plan_ == nullptr)
        return;
    CompiledPlan &p = *plan_;
    p.touched.clear();
    std::fill(p.bucketLen.begin(), p.bucketLen.end(), 0u);
    std::fill(p.memberActive.begin(), p.memberActive.end(), uint8_t{0});
}

} // namespace soff::sim
