#include "sim/simulator.hpp"

#include <algorithm>

#include "sim/fault.hpp"
#include "sim/forensics.hpp"
#include "sim/specialize.hpp"
#include "sim/trace.hpp"

namespace soff::sim
{

void
ChannelBase::faultRetry(uint64_t clear) const
{
    sim_->faultRetryAt(clear);
}

constinit thread_local Component *ChannelBase::tlsStepping = nullptr;
constinit thread_local PerfCounters *ChannelBase::tlsStepPerf = nullptr;
constinit thread_local bool ChannelBase::tlsTraceOn = false;

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

Simulator::Simulator(SchedulerMode mode) : mode_(mode)
{
    SOFF_ASSERT(mode != SchedulerMode::CrossCheck,
                "CrossCheck is resolved above the simulator");
}

Simulator::~Simulator()
{
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
    if (!scheduling_)
        return; // Reference mode, or outside a scheduling phase.
    if (cycle <= now_ + 1) {
        uint8_t &flags = schedFlags_[index];
        if (flags & kInNextList)
            return;
        flags |= kInNextList;
        nextList_.push_back(index);
        return;
    }
    // Timer wake. Only the earliest pending timer is tracked: every
    // step re-arms its timers from current state, so a component woken
    // early simply re-registers any still-needed later deadline.
    if (pendingWake_[index] <= cycle)
        return;
    pendingWake_[index] = cycle;
    timerHeap_.push({cycle, index});
}

void
Simulator::faultRetryAt(Cycle clear)
{
    if (!sweeping_)
        return; // Reference mode steps everything every cycle anyway.
    // The querier is the component the sweep is on right now.
    scheduleIndexAt(currentList_[sweepPos_], clear);
}

void
Simulator::wakeComponent(Component *c)
{
    if (!scheduling_)
        return; // Reference mode steps everything anyway.
    uint32_t index = c->index_;
    if (sweeping_ && index > currentList_[sweepPos_]) {
        // The current cycle's in-order sweep has not reached c yet, so
        // the synchronous reference would have it observe this wake's
        // cause within the same cycle. Insert it into the in-flight
        // wake list (kept sorted; the insert point is past the cursor).
        uint8_t &flags = schedFlags_[index];
        if (flags & kInWakeList)
            return;
        flags |= kInWakeList;
        auto it = std::lower_bound(
            currentList_.begin() + static_cast<ptrdiff_t>(sweepPos_) + 1,
            currentList_.end(), index);
        currentList_.insert(it, index);
        return;
    }
    scheduleIndexAt(index, now_ + 1);
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
    return runEventDriven(done, max_cycles);
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
    // is immutable after finalize(), so a rerun starts from the same
    // circuit a cold build would produce.
    for (ChannelBase *ch : channels_)
        ch->reset();
    for (Component *c : components_) {
        c->reset();
        c->perf_ = PerfCounters{};
    }
    currentList_.clear();
    nextList_.clear();
    while (!timerHeap_.empty())
        timerHeap_.pop();
    sweepPos_ = 0;
    sweeping_ = false;
    scheduling_ = false;
    if (!finalized_)
        return;
    resetCompiledState();
    seedWakes();
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
Simulator::seedWakes()
{
    // Every component steps at the first cycle, exactly as the
    // synchronous reference does; quiescence takes over from there.
    for (uint32_t i = 0; i < components_.size(); ++i) {
        schedFlags_[i] |= kInNextList;
        nextList_.push_back(i);
    }
}

void
Simulator::finalize()
{
    finalized_ = true;
    // The watcher wake sweep the commit phase runs uses a flat index-
    // span table built here (one simulator-wide index array, a
    // [watchOff, watchOff+watchCount) slice per channel), replacing the
    // per-channel pointer vectors in the hot path. The dirty list
    // starts empty: marks left by channels driven by hand before the
    // first run are not carried into it.
    watcherIndices_.clear();
    for (ChannelBase *ch : channels_) {
        ch->watchOff_ = static_cast<uint32_t>(watcherIndices_.size());
        ch->watchCount_ = static_cast<uint32_t>(ch->watchers_.size());
        for (Component *w : ch->watchers_)
            watcherIndices_.push_back(w->index_);
        ch->dirty_ = false;
    }
    dirtyChannels_.clear();
    seedWakes();
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
Simulator::runEventDriven(const bool *done, Cycle max_cycles)
{
    if (!finalized_)
        finalize();
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
        // Drop stale timer entries (superseded by an earlier wake) and
        // find the next cycle with any work.
        while (!timerHeap_.empty() &&
               pendingWake_[timerHeap_.top().index] !=
                   timerHeap_.top().cycle) {
            timerHeap_.pop();
        }
        bool any_next = !nextList_.empty() ||
                        (plan_ != nullptr && !plan_->touched.empty());
        if (!any_next) {
            if (timerHeap_.empty()) {
                // Exact deadlock: nothing is scheduled and channels are
                // quiet, so no component can ever act again.
                result.deadlock = true;
                result.cycles = now_;
                result.report = diagnose(HangKind::Deadlock);
                return result;
            }
            Cycle next = timerHeap_.top().cycle;
            SOFF_ASSERT(next >= now_, "timer wake in the past");
            if (next >= max_cycles) {
                now_ = max_cycles;
                break;
            }
            now_ = next; // jump the clock over the idle gap
        }
        // Compiled mode: segment-member wakes are swept in levelized
        // order, everything else goes through the generic wake
        // machinery, and fused-channel commits fold commit + watcher
        // scheduling into one pass.
        scheduling_ = true;
        gatherWakes();
        if (plan_ != nullptr)
            sweepActiveSegments();
        stepWakeList();
        commitDirtyChannels();
        if (plan_ != nullptr)
            commitSegmentChannels();
        scheduling_ = false;
        ++stats_.cyclesActive;
        ++now_;
    }
    result.cycles = now_;
    if (done != nullptr)
        result.report = diagnose(HangKind::Timeout);
    return result;
}

void
Simulator::gatherWakes()
{
    // Next-list entries and due timers become this cycle's wake list.
    // Under a compiled plan, wakes addressed to its members are
    // rerouted into the plan's buckets instead: the member sweep then
    // steps exactly the set the generic scheduler would have stepped,
    // just in levelized order, and a component still steps at most
    // once per cycle — the member flag is a set, like the wake-list
    // flag it replaces.
    CompiledPlan *plan = plan_.get();
    currentList_.swap(nextList_);
    size_t out = 0;
    for (uint32_t index : currentList_) {
        uint8_t &flags = schedFlags_[index];
        const uint32_t pos = memberPos(plan, index);
        if (pos != CompiledPlan::kNoSegment) {
            flags &= static_cast<uint8_t>(~kInNextList);
            plan->wake(pos);
            continue;
        }
        flags = static_cast<uint8_t>((flags & ~kInNextList) |
                                     kInWakeList);
        currentList_[out++] = index;
    }
    currentList_.resize(out);
    while (!timerHeap_.empty() && timerHeap_.top().cycle == now_) {
        HeapEntry e = timerHeap_.top();
        timerHeap_.pop();
        if (pendingWake_[e.index] != e.cycle)
            continue; // stale
        pendingWake_[e.index] = kNoWake;
        const uint32_t pos = memberPos(plan, e.index);
        if (pos != CompiledPlan::kNoSegment) {
            plan->wake(pos);
            continue;
        }
        uint8_t &flags = schedFlags_[e.index];
        if (!(flags & kInWakeList)) {
            flags |= kInWakeList;
            currentList_.push_back(e.index);
        }
    }
    std::sort(currentList_.begin(), currentList_.end());
}

void
Simulator::stepWakeList()
{
    // The hot loop: an index walk over the flat dispatch table. No
    // vtable loads — e.step/e.holds are the monomorphic thunks add<T>
    // recorded — and no allocation (list storage is retained across
    // cycles; component steps reuse member scratch buffers).
    sweeping_ = true;
    for (sweepPos_ = 0; sweepPos_ < currentList_.size(); ++sweepPos_) {
        uint32_t index = currentList_[sweepPos_];
        const StepEntry &e = steps_[index];
        schedFlags_[index] &= static_cast<uint8_t>(~kInWakeList);
        ++stats_.componentSteps;
        ChannelBase::tlsStepping = e.c;
        ChannelBase::tlsStepPerf = &e.c->perf_;
        e.step(e.c, now_);
        ChannelBase::tlsStepping = nullptr;
        ChannelBase::tlsStepPerf = nullptr;
        finishStep(e);
        if (e.c->alwaysAwake_)
            scheduleIndexAt(index, now_ + 1);
    }
    sweeping_ = false;
    currentList_.clear();
}

void
Simulator::commitDirtyChannels()
{
    // Fixed global order, so results never depend on which endpoint
    // staged first. A commit never stages, so the list cannot grow
    // while it is walked.
    std::sort(dirtyChannels_.begin(), dirtyChannels_.end(),
              [](const ChannelBase *a, const ChannelBase *b) {
                  return a->index_ < b->index_;
              });
    // Under a compiled plan, boundary-channel commits are the main
    // wake source for its members in memory-heavy circuits; those
    // wakes go straight into the plan's buckets instead of bouncing
    // through scheduleIndexAt, the next list, and the gather-time
    // reroute. Within-bucket order is unobservable (same level, no
    // edges), so arriving in commit order instead of gather order
    // cannot change results.
    CompiledPlan *plan = plan_.get();
    const uint32_t *watchers = watcherIndices_.data();
    for (ChannelBase *ch : dirtyChannels_) {
        if (ch->commit())
            ++stats_.channelCommits;
        const uint32_t *w = watchers + ch->watchOff_;
        for (uint32_t k = 0; k < ch->watchCount_; ++k) {
            const uint32_t pos = memberPos(plan, w[k]);
            if (pos != CompiledPlan::kNoSegment)
                plan->wake(pos);
            else
                scheduleIndexAt(w[k], now_ + 1);
        }
    }
    dirtyChannels_.clear();
}

} // namespace soff::sim
