/**
 * @file
 * Build- and run-time halves of the compiled-circuit specialization
 * (SchedulerMode::Compiled). See specialize.hpp for the scheme and
 * DESIGN.md "Specialized step loop" for the bit-identity argument.
 */
#include <algorithm>
#include <cstring>
#include <map>
#include <queue>

#include "sim/channel.hpp"
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
 *  - always-awake components, which re-arm themselves from inside
 *    the generic stepWakeList loop;
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
    const uint32_t n_comp = static_cast<uint32_t>(components_.size());
    const uint32_t n_chan = static_cast<uint32_t>(channels_.size());
    auto plan = std::make_unique<CompiledPlan>();
    constexpr uint32_t kNone = CompiledPlan::kNoSegment;
    plan->compSegment.assign(n_comp, kNone);
    plan->chanSegment.assign(n_chan, kNone);

    // --- 1. Membership: every eligible-kind, non-always-awake
    // component joins the compiled sweep, regardless of index layout
    // (the wake rerouting is exact, so adjacency buys nothing).
    std::vector<uint32_t> members;
    for (uint32_t i = 0; i < n_comp; ++i) {
        if (eligibleKind(components_[i]->kind()) &&
            !components_[i]->alwaysAwake_) {
            plan->compSegment[i] = 0;
            members.push_back(i);
        }
    }
    if (members.empty())
        return; // nothing to specialize: stay on the generic sweep

    // --- 2. Channel classification. A channel is fused iff it has
    // watchers and all of them are members; then its commits can set
    // the watchers' activation flags directly instead of scheduling
    // individual wakes through the generic flag/next-list machinery.
    // Anything watched by a generic component stays on the generic
    // dirty-list/watcher-wake path.
    for (ChannelBase *ch : channels_) {
        bool internal = !ch->watchers_.empty();
        for (Component *w : ch->watchers_) {
            if (plan->compSegment[w->index_] == kNone) {
                internal = false;
                break;
            }
        }
        if (internal)
            plan->chanSegment[ch->index_] = 0;
    }

    // --- 3. Global levelization: longest-path levels over the fused
    // channels' producer->consumer edges (PortDir tags), computed with
    // Kahn's algorithm. Within a level there are no edges, so any
    // order inside a level is a valid topological order — the sweep
    // exploits that below by sub-ordering levels by step thunk. Loop
    // back-edges can close cycles among members; Kahn then stalls, and
    // we demote the offending channels to the boundary path (their
    // commits go back to generic watcher wakes) rather than giving up.
    struct Edge
    {
        uint32_t u, v; // local member ids, u -> v
        uint32_t chan; // channel the edge came from
    };
    std::vector<uint32_t> local(n_comp, kNone);
    for (uint32_t m = 0; m < members.size(); ++m)
        local[members[m]] = m;
    std::vector<Edge> edges;
    for (ChannelBase *ch : channels_) {
        if (plan->chanSegment[ch->index_] == kNone)
            continue;
        for (size_t a = 0; a < ch->watchers_.size(); ++a) {
            if (ch->watcherDirs_[a] != PortDir::Push)
                continue;
            for (size_t b = 0; b < ch->watchers_.size(); ++b) {
                if (ch->watcherDirs_[b] != PortDir::Pop)
                    continue;
                uint32_t u = local[ch->watchers_[a]->index_];
                uint32_t v = local[ch->watchers_[b]->index_];
                if (u != v)
                    edges.push_back({u, v, ch->index_});
            }
        }
    }
    const uint32_t count = static_cast<uint32_t>(members.size());
    // CSR adjacency over the out-edges so each Kahn pass is O(V + E)
    // (a per-pop scan of the full edge list would be O(V * E), which
    // shows up as real milliseconds on circuits with thousands of
    // members — and the build runs inside the app's timed region).
    std::vector<uint32_t> adj_start(count + 1, 0);
    std::vector<uint32_t> adj_edge(edges.size());
    for (const Edge &e : edges)
        ++adj_start[e.u + 1];
    for (uint32_t v = 0; v < count; ++v)
        adj_start[v + 1] += adj_start[v];
    {
        std::vector<uint32_t> cursor(adj_start.begin(),
                                     adj_start.end() - 1);
        for (uint32_t i = 0; i < edges.size(); ++i)
            adj_edge[cursor[edges[i].u]++] = i;
    }
    std::vector<char> chanDemoted(n_chan, 0);
    std::vector<uint32_t> level(count);
    std::vector<uint32_t> indeg(count);
    std::vector<char> emitted(count);
    for (;;) {
        std::fill(level.begin(), level.end(), 0u);
        std::fill(indeg.begin(), indeg.end(), 0u);
        std::fill(emitted.begin(), emitted.end(), char{0});
        for (const Edge &e : edges) {
            if (!chanDemoted[e.chan])
                ++indeg[e.v];
        }
        std::priority_queue<uint32_t, std::vector<uint32_t>,
                            std::greater<uint32_t>>
            ready;
        for (uint32_t v = 0; v < count; ++v) {
            if (indeg[v] == 0)
                ready.push(v);
        }
        uint32_t done = 0;
        while (!ready.empty()) {
            uint32_t v = ready.top();
            ready.pop();
            emitted[v] = 1;
            ++done;
            for (uint32_t a = adj_start[v]; a < adj_start[v + 1]; ++a) {
                const Edge &e = edges[adj_edge[a]];
                if (chanDemoted[e.chan])
                    continue;
                level[e.v] = std::max(level[e.v], level[v] + 1);
                if (--indeg[e.v] == 0)
                    ready.push(e.v);
            }
        }
        if (done == count)
            break;
        // Cycle: break it at the min-id stuck node by demoting every
        // live in-edge's channel, then re-run Kahn. Each restart
        // demotes at least one channel, so this terminates.
        uint32_t stuck = 0;
        while (emitted[stuck])
            ++stuck;
        for (const Edge &e : edges) {
            if (e.v == stuck && !chanDemoted[e.chan] && !emitted[e.u]) {
                chanDemoted[e.chan] = 1;
                plan->chanSegment[e.chan] = kNone;
                ++plan->demotedChannels;
            }
        }
    }

    // --- 4. Step order and buckets. Members are ordered by (level,
    // step thunk, index): levels give the topological order, the
    // thunk sub-order makes every (level, thunk) class a contiguous
    // position range — a bucket — and the index makes the order
    // deterministic. A wake is then one store into its bucket's slot
    // range; no per-cycle sort of the wakes is ever needed.
    //
    // The class key is the stepMany thunk, the only one the sweep
    // calls. Identical-code folding can merge two types' thunks only
    // when their bodies are byte-identical, so members that share a
    // bucket through a folded thunk still step exactly as their own
    // thunks would.
    std::map<StepManyFn, uint32_t> fn_ids;
    std::vector<uint32_t> member_fn(count);
    for (uint32_t m = 0; m < count; ++m) {
        auto [it, inserted] = fn_ids.try_emplace(
            stepMany_[members[m]], static_cast<uint32_t>(fn_ids.size()));
        member_fn[m] = it->second;
    }
    std::vector<uint32_t> by_key(count);
    for (uint32_t m = 0; m < count; ++m)
        by_key[m] = m;
    std::sort(by_key.begin(), by_key.end(),
              [&](uint32_t a, uint32_t b) {
                  if (level[a] != level[b])
                      return level[a] < level[b];
                  if (member_fn[a] != member_fn[b])
                      return member_fn[a] < member_fn[b];
                  return members[a] < members[b];
              });
    plan->stepOrder.reserve(count);
    plan->compOrderPos.assign(n_comp, kNone);
    plan->bucketOf.resize(count);
    for (uint32_t pos = 0; pos < count; ++pos) {
        uint32_t m = by_key[pos];
        if (pos == 0 || level[m] != level[by_key[pos - 1]] ||
            member_fn[m] != member_fn[by_key[pos - 1]])
            plan->bucketStart.push_back(pos);
        plan->bucketOf[pos] =
            static_cast<uint32_t>(plan->bucketStart.size() - 1);
        plan->stepOrder.push_back(members[m]);
        plan->compOrderPos[members[m]] = pos;
    }
    const uint32_t n_buckets =
        static_cast<uint32_t>(plan->bucketStart.size());
    plan->bucketStart.push_back(count);
    plan->memberActive.assign(count, 0);
    plan->slots.resize(count);
    plan->bucketLen.assign(n_buckets, 0);
    plan->touched.reserve(n_buckets);

    // SoA dispatch lanes: the sweep's inner loop reads one component
    // pointer per replica (laneComp) and the batched thunk is hoisted
    // into a bucket-indexed lane, so no StepEntry row is ever reloaded
    // on the hot path. Every member of a bucket shares the thunk (the
    // bucket key above), so the representative at bucketStart[b]
    // speaks for the whole range.
    plan->laneComp.resize(count);
    for (uint32_t pos = 0; pos < count; ++pos)
        plan->laneComp[pos] = components_[plan->stepOrder[pos]];
    plan->bucketStepMany.resize(n_buckets);
    for (uint32_t b = 0; b < n_buckets; ++b)
        plan->bucketStepMany[b] =
            stepMany_[plan->stepOrder[plan->bucketStart[b]]];
    plan->batchScratch.resize(count);

    // --- 5. Rebind fused channels onto the plan's shared dirty list
    // (commitSegmentChannels drains it), flatten their watcher lists
    // into CSR position spans (commit-time wakes then walk a dense
    // index array instead of chasing watcher pointers through
    // compOrderPos), and preallocate the per-cycle runtime state so
    // the steady-state loop never allocates.
    plan->fusedWatchStart.assign(n_chan + 1, 0);
    for (ChannelBase *ch : channels_) {
        if (plan->chanSegment[ch->index_] != kNone) {
            ch->dirtyList_ = &plan->segDirty;
            ++plan->fusedChannels;
            plan->fusedWatchStart[ch->index_ + 1] =
                static_cast<uint32_t>(ch->watchers_.size());
        } else {
            ++plan->boundaryChannels;
        }
    }
    for (uint32_t i = 0; i < n_chan; ++i)
        plan->fusedWatchStart[i + 1] += plan->fusedWatchStart[i];
    plan->fusedWatchPos.resize(plan->fusedWatchStart[n_chan]);
    for (ChannelBase *ch : channels_) {
        if (plan->chanSegment[ch->index_] == kNone)
            continue;
        uint32_t cursor = plan->fusedWatchStart[ch->index_];
        for (Component *w : ch->watchers_)
            plan->fusedWatchPos[cursor++] = plan->compOrderPos[w->index_];
    }
    plan->segDirty.reserve(plan->fusedChannels);
    plan_ = std::move(plan);
}

void
Simulator::sweepActiveSegments()
{
    CompiledPlan &p = *plan_;
    if (p.touched.empty())
        return;
    // Buckets are swept in ascending id = (level, thunk) order, a
    // topological order of the fused graph; within a level there are
    // no edges, so any sub-order a bucket's replicas are stepped in is
    // valid (and unobservable — staged channel state is invisible
    // until commit). The wakes themselves are never sorted: sparse
    // cycles sort the touched bucket ids (a handful), dense cycles
    // just walk all buckets in id order.
    //
    // One stepManyBody<T> call per bucket steps every awake replica —
    // the monomorphic step/holdsWork calls and the stall accounting
    // are fused into one branch-light loop the compiler can pipeline
    // across replicas. A full bucket is stepped straight off the
    // laneComp span (no gather); a partial bucket gathers its awake
    // lanes into the preallocated scratch first.
    const uint32_t *slots = p.slots.data();
    Component *const *lane = p.laneComp.data();
    uint64_t stepped = 0;
    auto sweep_bucket = [&](uint32_t b) {
        const uint32_t base = p.bucketStart[b];
        const uint32_t len = p.bucketLen[b];
        StepManyFn fn = p.bucketStepMany[b];
        if (len == p.bucketStart[b + 1] - base) {
            // Dense bucket: every replica is awake. Position order
            // equals component-index order here, and the wake flags
            // clear in one contiguous wipe.
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
    };
    const uint32_t n_buckets =
        static_cast<uint32_t>(p.bucketLen.size());
    if (p.touched.size() * 2 >= n_buckets) {
        for (uint32_t b = 0; b < n_buckets; ++b) {
            if (p.bucketLen[b] != 0)
                sweep_bucket(b);
        }
    } else {
        std::sort(p.touched.begin(), p.touched.end());
        for (uint32_t b : p.touched)
            sweep_bucket(b);
    }
    p.touched.clear();
    stats_.componentSteps += stepped;
    ChannelBase::tlsStepPerf = nullptr;
}

void
Simulator::commitSegmentChannels()
{
    // Fused commit+activate: runs right after commitDirtyChannels,
    // still at the end of the same cycle the transfers were staged in,
    // so commit timing (and with it channel token/occupancy stats and
    // every consumer-visible occupancy) is identical to the generic
    // two-phase commit. One pass commits the channel and records its watchers'
    // wakes for next cycle — the exact set the generic path would have
    // pushed through scheduleIndexAt, minus the flag/next-list/sort
    // bookkeeping (the member flags dedup, like the next-list flag).
    CompiledPlan &p = *plan_;
    const uint32_t *wstart = p.fusedWatchStart.data();
    const uint32_t *wpos = p.fusedWatchPos.data();
    for (ChannelBase *ch : p.segDirty) {
        if (ch->commit())
            ++stats_.channelCommits;
        // Watcher wakes through the flat CSR position spans built at
        // plan time — no watcher-pointer chase, no compOrderPos
        // lookup, same wake set and order as the pointer walk.
        const uint32_t idx = ch->index_;
        for (uint32_t k = wstart[idx]; k < wstart[idx + 1]; ++k)
            p.wake(wpos[k]);
    }
    p.segDirty.clear();
}

void
Simulator::resetCompiledState()
{
    if (plan_ == nullptr)
        return;
    CompiledPlan &p = *plan_;
    p.segDirty.clear(); // channel reset() already cleared dirty flags
    p.touched.clear();
    std::fill(p.bucketLen.begin(), p.bucketLen.end(), 0u);
    std::fill(p.memberActive.begin(), p.memberActive.end(), uint8_t{0});
}

} // namespace soff::sim
