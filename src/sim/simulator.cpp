#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/fault.hpp"
#include "sim/forensics.hpp"
#include "sim/specialize.hpp"
#include "sim/trace.hpp"
#include "support/strings.hpp"

namespace soff::sim
{

void
ChannelBase::faultRetry(uint64_t clear) const
{
    sim_->faultRetryAt(clear);
}

thread_local std::vector<ChannelBase *> *ChannelBase::tlsCrossDirty =
    nullptr;
thread_local Component *ChannelBase::tlsStepping = nullptr;
thread_local PerfCounters *ChannelBase::tlsStepPerf = nullptr;
thread_local bool ChannelBase::tlsTraceOn = false;
thread_local Simulator::Shard *Simulator::tlsShard_ = nullptr;

void
ChannelBase::notePerfTrace()
{
    // Slow path of notePerfMove: only reached with a trace sink
    // installed, which forces the generic sweeps — they set
    // tlsStepping alongside tlsStepPerf, so the stepping component is
    // always identified here.
    Component *c = tlsStepping;
    if (c == nullptr || c->sim_ == nullptr)
        return;
    TraceSink *sink = c->sim_->traceSink();
    if (sink != nullptr && sink->inWindow(*nowPtr_))
        sink->componentActive(c->index_, *nowPtr_);
}

void
ChannelBase::noteCommit(size_t pushes)
{
    // Runs on the home shard's committing thread (phase 2), which is
    // the only writer of this channel's counters in a cycle.
    tokens_ += pushes;
    uint64_t occ = occupancy();
    if (occ > maxOcc_)
        maxOcc_ = occ;
    if (sim_ != nullptr) {
        TraceSink *sink = sim_->traceSink();
        if (sink != nullptr && sink->inWindow(*nowPtr_))
            sink->channelSample(index_, *nowPtr_, occ);
    }
}

void
Component::perfBusy(Cycle now)
{
    if (perf_.lastMoveCycle == now)
        return;
    perf_.lastMoveCycle = now;
    ++perf_.busyCycles;
    if (sim_ != nullptr) {
        TraceSink *sink = sim_->traceSink();
        if (sink != nullptr && sink->inWindow(now))
            sink->componentActive(index_, now);
    }
}

const char *
schedulerModeName(SchedulerMode mode)
{
    switch (mode) {
      case SchedulerMode::Reference: return "reference";
      case SchedulerMode::EventDriven: return "event-driven";
      case SchedulerMode::Parallel: return "parallel";
      case SchedulerMode::Compiled: return "compiled";
      case SchedulerMode::CrossCheck: return "cross-check";
    }
    return "?";
}

bool
schedulerModeFromName(const std::string &name, SchedulerMode *out)
{
    if (name == "reference")
        *out = SchedulerMode::Reference;
    else if (name == "event-driven" || name == "eventdriven" ||
             name == "event")
        *out = SchedulerMode::EventDriven;
    else if (name == "parallel")
        *out = SchedulerMode::Parallel;
    else if (name == "compiled")
        *out = SchedulerMode::Compiled;
    else if (name == "cross-check" || name == "crosscheck")
        *out = SchedulerMode::CrossCheck;
    else
        return false;
    return true;
}

void
Component::wakeAt(Cycle cycle)
{
    if (sim_ != nullptr)
        sim_->scheduleAt(this, cycle);
}

void
Component::requestWake()
{
    if (sim_ != nullptr)
        sim_->wakeComponent(this);
}

void
Component::noteActivity()
{
    if (sim_ != nullptr)
        sim_->noteActivity();
}

void
Component::wakeOther(Component *c)
{
    if (sim_ != nullptr && c != nullptr)
        sim_->wakeComponent(c);
}

Simulator::Simulator(SchedulerMode mode, int threads)
    : mode_(mode), threadsRequested_(threads)
{
    SOFF_ASSERT(mode != SchedulerMode::CrossCheck,
                "CrossCheck is resolved above the simulator");
}

Simulator::~Simulator()
{
    if (!workers_.empty()) {
        phaseKind_.store(kPhaseExit, std::memory_order_relaxed);
        phaseGo_.fetch_add(1, std::memory_order_release);
        for (std::thread &w : workers_)
            w.join();
    }
    // Arena-owned objects: run destructors in reverse build order
    // (channels first, matching the old member-order teardown), then
    // the arena releases the slabs.
    for (size_t i = channels_.size(); i-- > 0;)
        channelDtors_[i](channels_[i]);
    for (size_t i = components_.size(); i-- > 0;)
        components_[i]->~Component();
}

void
Simulator::scheduleAt(Component *c, Cycle cycle)
{
    scheduleIndexAt(c->index_, cycle);
}

void
Simulator::scheduleIndexAt(uint32_t index, Cycle cycle)
{
    Shard *sh = tlsShard_;
    if (sh == nullptr)
        return; // Reference mode, or outside a scheduling phase.
    if (cycle <= now_ + 1) {
        if (compShard_[index] != sh->id) {
            // Cross-shard wake: delivered at the cycle barrier, for
            // the next cycle. Deduplicated at drain (the target's
            // next-list flag belongs to the target's thread).
            sh->outbox[compShard_[index]].push_back(index);
            return;
        }
        uint8_t &flags = schedFlags_[index];
        if (flags & kInNextList)
            return;
        flags |= kInNextList;
        sh->nextList.push_back(index);
        return;
    }
    // Timer wake. Only the earliest pending timer is tracked: every
    // step re-arms its timers from current state, so a component woken
    // early simply re-registers any still-needed later deadline.
    // Timers are always self-armed (wakeAt from the component's own
    // step), so they never cross shards.
    SOFF_ASSERT(compShard_[index] == sh->id, "cross-shard timer wake");
    if (pendingWake_[index] <= cycle)
        return;
    pendingWake_[index] = cycle;
    sh->timerHeap.push({cycle, index});
}

void
Simulator::faultRetryAt(Cycle clear)
{
    Shard *sh = tlsShard_;
    if (sh == nullptr || !sh->sweeping)
        return; // Reference mode steps everything every cycle anyway.
    // The querier is the component the sweep is on right now; it lives
    // on this shard by definition, so the timer never crosses shards.
    scheduleIndexAt(sh->currentList[sh->sweepPos], clear);
}

void
Simulator::wakeComponent(Component *c)
{
    Shard *sh = tlsShard_;
    if (sh == nullptr)
        return; // Reference mode steps everything anyway.
    uint32_t index = c->index_;
    if (compShard_[index] == sh->id && sh->sweeping &&
        index > sh->currentList[sh->sweepPos]) {
        // The current cycle's in-order sweep of this shard has not
        // reached c yet, so the synchronous reference would have it
        // observe this wake's cause within the same cycle. Insert it
        // into the in-flight wake list (kept sorted; the insert point
        // is past the cursor). Same-cycle couplings never cross
        // shards: the circuit builder collapses to one shard when a
        // coupling would (see collapseShards()).
        uint8_t &flags = schedFlags_[index];
        if (flags & kInWakeList)
            return;
        flags |= kInWakeList;
        auto it = std::lower_bound(
            sh->currentList.begin() +
                static_cast<ptrdiff_t>(sh->sweepPos) + 1,
            sh->currentList.end(), index);
        sh->currentList.insert(it, index);
        return;
    }
    scheduleIndexAt(index, now_ + 1);
}

SchedulerStats
Simulator::schedulerStats() const
{
    SchedulerStats s = stats_;
    for (const auto &sh : shards_) {
        s.componentSteps += sh->componentSteps;
        s.channelCommits += sh->channelCommits;
    }
    return s;
}

void
Simulator::finishStep(const StepEntry &e)
{
    // Span-based stall accounting. Both transitions of the predicate
    // (holdsWork && !moved) coincide with cycles the event-driven
    // schedulers step the component — holdsWork reads only committed
    // channel state and the component's own members, both of which
    // change only at commits that wake it or at its own steps — so the
    // accumulated spans are bit-identical to stepping every cycle.
    PerfCounters &p = e.c->perf_;
    bool moved = p.lastMoveCycle == now_;
    if (!moved && e.holds(e.c)) {
        if (!p.stallOpen) {
            p.stallOpen = true;
            p.stallStart = now_;
        }
    } else if (p.stallOpen) {
        p.stallOpen = false;
        p.stalledCycles += now_ - p.stallStart;
    }
}

void
Simulator::finalizePerfSpans()
{
    for (Component *c : components_) {
        PerfCounters &p = c->perf_;
        if (p.stallOpen) {
            p.stallOpen = false;
            p.stalledCycles += now_ - p.stallStart;
        }
    }
    if (traceSink_ != nullptr)
        traceSink_->finalize();
}

void
Simulator::appendPerfStats(StatsReport &report) const
{
    report.components.reserve(components_.size());
    for (const Component *c : components_) {
        ComponentStats cs;
        cs.name = c->name_;
        cs.kind = c->kind();
        cs.busy = c->perf_.busyCycles;
        cs.stalled = c->perf_.stalledCycles;
        cs.tokensIn = c->perf_.tokensIn;
        cs.tokensOut = c->perf_.tokensOut;
        report.busyCycles += cs.busy;
        report.stalledCycles += cs.stalled;
        report.components.push_back(std::move(cs));
    }
    report.channels.reserve(channels_.size());
    for (const ChannelBase *ch : channels_) {
        ChannelStatsEntry e;
        e.id = ch->index_;
        e.capacity = static_cast<uint32_t>(ch->capacityTokens());
        e.tokens = ch->tokens_;
        e.maxOccupancy = ch->maxOcc_;
        report.channels.push_back(e);
    }
}

Simulator::RunResult
Simulator::run(const bool *done, Cycle max_cycles, Cycle deadlock_window)
{
    if (mode_ == SchedulerMode::Reference)
        return runReference(done, max_cycles, deadlock_window);
    return runSharded(done, max_cycles);
}

void
Simulator::resetForRerun()
{
    now_ = 0;
    activity_ = false;
    stats_ = SchedulerStats{};
    std::fill(pendingWake_.begin(), pendingWake_.end(), kNoWake);
    std::fill(schedFlags_.begin(), schedFlags_.end(), uint8_t{0});
    dirtyChannels_.clear();
    // Dynamic state only: component structure (ports, watchers, wiring)
    // is immutable after finalizeShards, so a rerun starts from the
    // same circuit a cold build would produce.
    for (ChannelBase *ch : channels_)
        ch->reset();
    for (Component *c : components_) {
        c->reset();
        c->perf_ = PerfCounters{};
    }
    if (!shardsReady_)
        return;
    for (auto &shp : shards_) {
        Shard &sh = *shp;
        sh.currentList.clear();
        sh.nextList.clear();
        sh.dirtyChannels.clear();
        sh.crossDirty.clear();
        sh.commitList.clear();
        while (!sh.timerHeap.empty())
            sh.timerHeap.pop();
        for (auto &box : sh.outbox)
            box.clear();
        sh.sweepPos = 0;
        sh.sweeping = false;
        sh.componentSteps = 0;
        sh.channelCommits = 0;
    }
    resetCompiledState();
    // Re-seed exactly as finalizeShards() does for the first run: every
    // component steps at cycle 0. The worker pool stays alive.
    for (uint32_t i = 0; i < components_.size(); ++i) {
        schedFlags_[i] |= kInNextList;
        shards_[compShard_[i]]->nextList.push_back(i);
    }
}

Simulator::RunResult
Simulator::runReference(const bool *done, Cycle max_cycles,
                        Cycle deadlock_window)
{
    RunResult result;
    Cycle idle = 0;
    ChannelBase::tlsTraceOn = traceSink_ != nullptr;
    while (now_ < max_cycles) {
        if (done != nullptr && *done) {
            result.completed = true;
            result.cycles = now_;
            return result;
        }
        if (stopFlag_ != nullptr &&
            stopFlag_->load(std::memory_order_relaxed)) {
            result.stopped = true;
            result.cycles = now_;
            return result;
        }
        activity_ = false;
        for (const StepEntry &e : steps_) {
            ChannelBase::tlsStepping = e.c;
            ChannelBase::tlsStepPerf = &e.c->perf_;
            e.step(e.c, now_);
            finishStep(e);
        }
        ChannelBase::tlsStepping = nullptr;
        ChannelBase::tlsStepPerf = nullptr;
        stats_.componentSteps += steps_.size();
        for (ChannelBase *ch : channels_) {
            if (ch->commit()) {
                activity_ = true;
                ++stats_.channelCommits;
            }
        }
        dirtyChannels_.clear();
        ++stats_.cyclesActive;
        ++now_;
        if (activity_) {
            idle = 0;
        } else if (++idle >= deadlock_window) {
            result.deadlock = true;
            result.cycles = now_;
            result.report = diagnose(HangKind::Deadlock);
            return result;
        }
    }
    result.cycles = now_;
    if (done != nullptr)
        result.report = diagnose(HangKind::Timeout);
    return result;
}

void
Simulator::finalizeShards()
{
    shardsReady_ = true;
    size_t n = 1;
    if (mode_ == SchedulerMode::Parallel && !collapsed_)
        n = static_cast<size_t>(maxShard_) + 1;
    if (n == 1) {
        std::fill(compShard_.begin(), compShard_.end(), 0u);
        for (ChannelBase *ch : channels_)
            ch->shard_ = 0;
    }
    shards_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        auto sh = std::make_unique<Shard>();
        sh->id = static_cast<uint32_t>(i);
        sh->outbox.resize(n);
        shards_.push_back(std::move(sh));
    }
    // Home each channel and decide which are cross-shard. A channel is
    // staged on only by its watchers (every endpoint registers itself
    // in its constructor), but we conservatively include the creation
    // shard too: a channel whose creation shard and watcher shards all
    // agree stays on the cheap non-atomic dirty path; anything else is
    // cross-shard and pays one atomic exchange per dirty mark.
    // The watcher wake sweep the commit phase runs uses a flat index-
    // span table built here (one simulator-wide index array, a
    // [watchOff, watchOff+watchCount) slice per channel), replacing the
    // per-channel pointer vectors in the hot path.
    watcherIndices_.clear();
    for (ChannelBase *ch : channels_) {
        uint32_t lo = ch->shard_;
        uint32_t hi = ch->shard_;
        ch->watchOff_ = static_cast<uint32_t>(watcherIndices_.size());
        ch->watchCount_ = static_cast<uint32_t>(ch->watchers_.size());
        for (Component *w : ch->watchers_) {
            lo = std::min(lo, compShard_[w->index_]);
            hi = std::max(hi, compShard_[w->index_]);
            watcherIndices_.push_back(w->index_);
        }
        ch->shard_ = lo; // home shard: commits run here
        ch->crossShard_ = lo != hi;
        ch->dirty_ = false;
        ch->crossDirty_.store(false, std::memory_order_relaxed);
        ch->dirtyList_ = ch->crossShard_
                             ? nullptr
                             : &shards_[ch->shard_]->dirtyChannels;
    }
    // Seed: every component steps at the first cycle, exactly as the
    // synchronous reference does; quiescence takes over from there.
    for (uint32_t i = 0; i < components_.size(); ++i) {
        schedFlags_[i] |= kInNextList;
        shards_[compShard_[i]]->nextList.push_back(i);
    }
    // Worker pool. The calling thread is worker 0 (the coordinator);
    // extra threads are spawned only when Parallel mode has both more
    // than one shard and a thread budget above one.
    numWorkers_ = 1;
    if (mode_ == SchedulerMode::Parallel && n > 1) {
        int t = threadsRequested_;
        if (t <= 0)
            t = static_cast<int>(std::thread::hardware_concurrency());
        t = std::max(t, 1);
        numWorkers_ = static_cast<int>(
            std::min<size_t>(static_cast<size_t>(t), n));
    }
    for (int i = 1; i < numWorkers_; ++i)
        workers_.emplace_back(&Simulator::workerMain, this);
    // Compiled mode: lower the circuit into a specialized step plan.
    // Fault injection needs the generic sweep cursor for retry wakes,
    // and tracing relies on generic per-channel commit ordering, so
    // either forces a full fallback to the plain event-driven loop
    // (plan_ stays null and Compiled == EventDriven).
    if (mode_ == SchedulerMode::Compiled && faultPlan_ == nullptr &&
        traceSink_ == nullptr)
        buildCompiledPlan();
}

Simulator::RunResult
Simulator::runSharded(const bool *done, Cycle max_cycles)
{
    if (!shardsReady_)
        finalizeShards();
    constexpr Cycle kNone = ~Cycle{0};
    ChannelBase::tlsTraceOn = traceSink_ != nullptr;
    RunResult result;
    while (now_ < max_cycles) {
        if (done != nullptr && *done) {
            result.completed = true;
            result.cycles = now_;
            return result;
        }
        if (stopFlag_ != nullptr &&
            stopFlag_->load(std::memory_order_relaxed)) {
            result.stopped = true;
            result.cycles = now_;
            return result;
        }
        if (faultPlan_ != nullptr && faultPlan_->tripCycle() != 0 &&
            mode_ == SchedulerMode::Parallel &&
            now_ >= faultPlan_->tripCycle()) {
            // Error-path testing knob (FaultConfig::tripCycle): fail
            // the Parallel run with an internal error so the runtime's
            // graceful-degradation retry path can be exercised.
            throw RuntimeError(strFormat(
                "injected parallel-scheduler fault at cycle %llu "
                "(SOFF_FAULTS trip=)",
                static_cast<unsigned long long>(now_)));
        }
        // Single-threaded window between phases: drop stale timer
        // entries (superseded by an earlier wake) and find the next
        // cycle with any work.
        bool any_next = false;
        Cycle min_timer = kNone;
        for (auto &shp : shards_) {
            Shard &sh = *shp;
            while (!sh.timerHeap.empty() &&
                   pendingWake_[sh.timerHeap.top().index] !=
                       sh.timerHeap.top().cycle) {
                sh.timerHeap.pop();
            }
            if (!sh.nextList.empty())
                any_next = true;
            else if (!sh.timerHeap.empty())
                min_timer = std::min(min_timer, sh.timerHeap.top().cycle);
        }
        if (plan_ != nullptr && !plan_->touched.empty())
            any_next = true;
        if (!any_next) {
            if (min_timer == kNone) {
                // Exact deadlock: nothing is scheduled on any shard
                // and channels are quiet, so no component can ever
                // act again.
                result.deadlock = true;
                result.cycles = now_;
                result.report = diagnose(HangKind::Deadlock);
                return result;
            }
            SOFF_ASSERT(min_timer >= now_, "timer wake in the past");
            if (min_timer >= max_cycles) {
                now_ = max_cycles;
                break;
            }
            now_ = min_timer; // jump the clock over the idle gap
        }
        if (plan_ != nullptr) {
            // Compiled mode (always single-shard): segment-member
            // wakes are swept in levelized order, everything else goes
            // through the generic wake machinery, and fused-channel
            // commits fold commit + watcher scheduling into one pass.
            Shard &sh = *shards_[0];
            tlsShard_ = &sh;
            ChannelBase::tlsCrossDirty = &sh.crossDirty;
            gatherCompiled(sh);
            sweepActiveSegments(sh);
            stepShard(sh);
            commitShard(sh);
            commitSegmentChannels(sh);
            tlsShard_ = nullptr;
            ChannelBase::tlsCrossDirty = nullptr;
        } else {
            // Phase 1: each shard sweeps its wake list in
            // component-index order. Components only stage channel
            // pushes/pops, so shards never observe each other's
            // intra-cycle state.
            runPhase(kPhaseStep);
            // Phase 2: each shard commits the dirty channels homed on
            // it in channel-index order; commits wake the endpoints
            // for the next cycle.
            runPhase(kPhaseCommit);
            // Single-threaded again: deliver cross-shard wakes.
            drainOutboxes();
        }
        ++stats_.cyclesActive;
        ++now_;
    }
    result.cycles = now_;
    if (done != nullptr)
        result.report = diagnose(HangKind::Timeout);
    return result;
}

void
Simulator::runPhase(PhaseKind kind)
{
    shardCursor_.store(0, std::memory_order_relaxed);
    if (numWorkers_ <= 1) {
        shardLoop(kind);
        return;
    }
    phaseArrived_.store(0, std::memory_order_relaxed);
    phaseKind_.store(kind, std::memory_order_relaxed);
    phaseGo_.fetch_add(1, std::memory_order_release);
    std::exception_ptr local_error;
    try {
        shardLoop(kind);
    } catch (...) {
        local_error = std::current_exception();
    }
    // Wait for every worker even on error: they touch simulator state.
    while (phaseArrived_.load(std::memory_order_acquire) <
           static_cast<uint32_t>(numWorkers_ - 1))
        std::this_thread::yield();
    if (local_error)
        std::rethrow_exception(local_error);
    if (workerFailed_.load(std::memory_order_acquire))
        std::rethrow_exception(workerError_);
}

void
Simulator::shardLoop(PhaseKind kind)
{
    for (;;) {
        uint32_t i = shardCursor_.fetch_add(1, std::memory_order_relaxed);
        if (i >= shards_.size())
            break;
        Shard &sh = *shards_[i];
        tlsShard_ = &sh;
        ChannelBase::tlsCrossDirty = &sh.crossDirty;
        if (kind == kPhaseStep) {
            gatherWakes(sh);
            stepShard(sh);
        } else {
            commitShard(sh);
        }
        tlsShard_ = nullptr;
        ChannelBase::tlsCrossDirty = nullptr;
    }
}

void
Simulator::workerMain()
{
    uint64_t gen = 0;
    ChannelBase::tlsTraceOn = traceSink_ != nullptr;
    for (;;) {
        uint64_t g;
        // Yield-based spin: civil when threads outnumber cores, and
        // the coordinator never leaves workers parked across cycles.
        while ((g = phaseGo_.load(std::memory_order_acquire)) == gen)
            std::this_thread::yield();
        gen = g;
        int kind = phaseKind_.load(std::memory_order_relaxed);
        if (kind == kPhaseExit)
            return;
        try {
            shardLoop(static_cast<PhaseKind>(kind));
        } catch (...) {
            // Published to the coordinator by the arrival below.
            if (!workerFailed_.exchange(true, std::memory_order_relaxed))
                workerError_ = std::current_exception();
        }
        phaseArrived_.fetch_add(1, std::memory_order_release);
    }
}

void
Simulator::gatherWakes(Shard &sh)
{
    sh.currentList.swap(sh.nextList);
    for (uint32_t index : sh.currentList) {
        uint8_t &flags = schedFlags_[index];
        flags = static_cast<uint8_t>((flags & ~kInNextList) |
                                     kInWakeList);
    }
    while (!sh.timerHeap.empty() && sh.timerHeap.top().cycle == now_) {
        HeapEntry e = sh.timerHeap.top();
        sh.timerHeap.pop();
        if (pendingWake_[e.index] != e.cycle)
            continue; // stale
        pendingWake_[e.index] = kNoWake;
        uint8_t &flags = schedFlags_[e.index];
        if (!(flags & kInWakeList)) {
            flags |= kInWakeList;
            sh.currentList.push_back(e.index);
        }
    }
    std::sort(sh.currentList.begin(), sh.currentList.end());
}

void
Simulator::stepShard(Shard &sh)
{
    // The hot loop: an index walk over the flat dispatch table. No
    // vtable loads — e.step/e.holds are the monomorphic thunks add<T>
    // recorded — and no allocation (list storage is retained across
    // cycles; component steps reuse member scratch buffers).
    sh.sweeping = true;
    for (sh.sweepPos = 0; sh.sweepPos < sh.currentList.size();
         ++sh.sweepPos) {
        uint32_t index = sh.currentList[sh.sweepPos];
        const StepEntry &e = steps_[index];
        schedFlags_[index] &= static_cast<uint8_t>(~kInWakeList);
        ++sh.componentSteps;
        ChannelBase::tlsStepping = e.c;
        ChannelBase::tlsStepPerf = &e.c->perf_;
        e.step(e.c, now_);
        ChannelBase::tlsStepping = nullptr;
        ChannelBase::tlsStepPerf = nullptr;
        finishStep(e);
        if (e.c->alwaysAwake_)
            scheduleIndexAt(index, now_ + 1);
    }
    sh.sweeping = false;
    sh.currentList.clear();
}

void
Simulator::commitShard(Shard &sh)
{
    // Channels homed here: the shard-local dirty list plus the
    // cross-shard channels claimed by any shard this cycle. Other
    // shards' crossDirty vectors are read-only during this phase
    // (they were filled in phase 1 and are cleared at the drain), so
    // scanning them is race-free. Each channel was claimed exactly
    // once (atomic exchange), so nothing commits or counts twice.
    sh.commitList.clear();
    sh.commitList.insert(sh.commitList.end(), sh.dirtyChannels.begin(),
                         sh.dirtyChannels.end());
    sh.dirtyChannels.clear();
    if (shards_.size() > 1) {
        for (const auto &other : shards_) {
            for (ChannelBase *ch : other->crossDirty) {
                if (ch->shard_ == sh.id)
                    sh.commitList.push_back(ch);
            }
        }
    }
    // Fixed global order so results never depend on thread timing.
    std::sort(sh.commitList.begin(), sh.commitList.end(),
              [](const ChannelBase *a, const ChannelBase *b) {
                  return a->index_ < b->index_;
              });
    const uint32_t *watchers = watcherIndices_.data();
    if (plan_ != nullptr) {
        // Compiled mode (single shard): boundary-channel commits are
        // the main wake source for segment members in memory-heavy
        // circuits. Route those wakes straight into the plan's buckets
        // instead of bouncing them through scheduleIndexAt, the next
        // list, and the gather-time reroute. Within-bucket order is
        // unobservable (same level, no edges), so arriving in commit
        // order instead of gather order cannot change results.
        CompiledPlan &p = *plan_;
        for (ChannelBase *ch : sh.commitList) {
            if (ch->commit())
                ++sh.channelCommits;
            const uint32_t *w = watchers + ch->watchOff_;
            for (uint32_t k = 0; k < ch->watchCount_; ++k) {
                uint32_t pos = p.compOrderPos[w[k]];
                if (pos != CompiledPlan::kNoSegment)
                    p.wake(pos);
                else
                    scheduleIndexAt(w[k], now_ + 1);
            }
        }
        sh.commitList.clear();
        return;
    }
    for (ChannelBase *ch : sh.commitList) {
        if (ch->commit())
            ++sh.channelCommits;
        const uint32_t *w = watchers + ch->watchOff_;
        for (uint32_t k = 0; k < ch->watchCount_; ++k)
            scheduleIndexAt(w[k], now_ + 1);
    }
    sh.commitList.clear();
}

void
Simulator::drainOutboxes()
{
    // Coordinator-only, between barriers. Deterministic: shards and
    // their boxes are visited in fixed order, and membership in the
    // next list is a set (next-list flag dedup), so insertion order
    // cannot change behavior.
    for (auto &src : shards_) {
        for (size_t t = 0; t < shards_.size(); ++t) {
            std::vector<uint32_t> &box = src->outbox[t];
            if (box.empty())
                continue;
            Shard &target = *shards_[t];
            for (uint32_t index : box) {
                uint8_t &flags = schedFlags_[index];
                if (!(flags & kInNextList)) {
                    flags |= kInNextList;
                    target.nextList.push_back(index);
                }
            }
            box.clear();
        }
        src->crossDirty.clear();
    }
}

} // namespace soff::sim
