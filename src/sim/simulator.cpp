#include "sim/simulator.hpp"

#include <algorithm>

#include "sim/fault.hpp"
#include "sim/forensics.hpp"
#include "sim/specialize.hpp"
#include "sim/trace.hpp"

namespace soff::sim
{

bool
ChannelBase::faultBlocked() const
{
    uint64_t clear = 0;
    if (!faults_->channelBlocked(index_, faultClass_, sim_->now(), &clear))
        return false;
    sim_->faultRetryAt(clear);
    return true;
}

constinit thread_local Component *ChannelBase::tlsStepping = nullptr;
constinit thread_local PerfCounters *ChannelBase::tlsStepPerf = nullptr;
constinit thread_local uint64_t ChannelBase::tlsNow = 0;
constinit thread_local bool ChannelBase::tlsTraceOn = false;

void
ChannelBase::notePerfTrace()
{
    // Slow path of notePerfMove: only reached with a trace sink
    // installed. Every sweep steps through stepManyBody, which sets
    // tlsStepping alongside tlsStepPerf, so the stepping component is
    // always identified here.
    Component *c = tlsStepping;
    if (c == nullptr || c->sim_ == nullptr)
        return;
    TraceSink *sink = c->sim_->traceSink();
    if (sink != nullptr && sink->inWindow(tlsNow))
        sink->componentActive(c->index_, tlsNow);
}

void
ChannelBase::traceCommit() const
{
    if (sim_ == nullptr)
        return;
    TraceSink *sink = sim_->traceSink();
    if (sink != nullptr && sink->inWindow(sim_->now()))
        sink->channelSample(index_, sim_->now(), committed_);
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
    // Reference mode steps everything every cycle anyway. Otherwise
    // the querier is the component either sweep is stepping right now.
    const Component *querier = ChannelBase::tlsStepping;
    if (scheduling_ && querier != nullptr)
        scheduleIndexAt(querier->index_, clear);
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
    // Dynamic state only: component structure (ports, roles, wiring)
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
        const size_t n = components_.size();
        for (size_t i = 0; i < n; ++i)
            stepMany_[i](&components_[i], 1, now_);
        ChannelBase::tlsStepping = nullptr;
        ChannelBase::tlsStepPerf = nullptr;
        stats_.componentSteps += n;
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

uint32_t
Simulator::wakeTargetOf(const Component *c) const
{
    if (c == nullptr)
        return ChannelBase::kNoEndpoint;
    const uint32_t pos = memberPos_[c->index_];
    if (pos != CompiledPlan::kNoPos)
        return pos;
    SOFF_ASSERT(c->index_ < ChannelBase::kGenericWake,
                "component index overflows a channel wake target");
    return ChannelBase::kGenericWake | c->index_;
}

void
Simulator::finalize()
{
    finalized_ = true;
    // The plan first: an endpoint's wake target is its plan position
    // when it has one. Each channel then carries both targets in its
    // hot line, so a commit wakes without leaving it. The dirty list
    // starts empty: marks left by channels driven by hand before the
    // first run are not carried into it.
    if (mode_ == SchedulerMode::Compiled)
        buildCompiledPlan();
    for (ChannelBase *ch : channels_) {
        ch->producerWake_ = wakeTargetOf(ch->producer_);
        ch->consumerWake_ = wakeTargetOf(ch->consumer_);
        ch->dirty_ = false;
    }
    dirtyChannels_.clear();
    seedWakes();
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
        // Compiled mode: plan members step in their buckets, everything
        // else goes through the generic wake list.
        scheduling_ = true;
        gatherWakes();
        if (plan_ != nullptr)
            sweepPlan();
        stepWakeList();
        commitDirtyChannels();
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
    // just in bucket order, and a component still steps at most once
    // per cycle — the member flag is a set, like the wake-list flag it
    // replaces.
    currentList_.swap(nextList_);
    size_t out = 0;
    for (uint32_t index : currentList_) {
        uint8_t &flags = schedFlags_[index];
        const uint32_t pos = memberPos_[index];
        if (pos != CompiledPlan::kNoPos) {
            flags &= static_cast<uint8_t>(~kInNextList);
            plan_->wake(pos);
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
        const uint32_t pos = memberPos_[e.index];
        if (pos != CompiledPlan::kNoPos) {
            plan_->wake(pos);
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
    // vtable loads — each component's monomorphic step thunk steps a
    // batch of one — and no allocation (list storage is retained across
    // cycles; component steps reuse member scratch buffers). The
    // wake-list entry is re-read each iteration: a same-cycle
    // wakeComponent may insert past the cursor.
    sweeping_ = true;
    for (sweepPos_ = 0; sweepPos_ < currentList_.size(); ++sweepPos_) {
        uint32_t index = currentList_[sweepPos_];
        schedFlags_[index] &= static_cast<uint8_t>(~kInWakeList);
        ++stats_.componentSteps;
        stepMany_[index](&components_[index], 1, now_);
    }
    ChannelBase::tlsStepping = nullptr;
    ChannelBase::tlsStepPerf = nullptr;
    sweeping_ = false;
    currentList_.clear();
}

void
Simulator::commitDirtyChannels()
{
    // First-touch order, unsorted: commit order is unobservable. A
    // commit touches only its own channel (a trace sink keeps one
    // sample vector per channel, and a channel commits at most once a
    // cycle), and the wakes it raises are sets — the next list is
    // sorted at gather, and no member can observe another's step
    // within a cycle, so the plan's bucket and slot order is free. A
    // commit never stages, so the list cannot grow while it is walked.
    //
    // Wakes are level-triggered (simulator.hpp), decided from the
    // staged state before commit() folds it: an endpoint that moved a
    // token wakes, and otherwise only a producer whose full channel
    // gained room or a consumer whose empty channel gained a token.
    // Both targets sit in the channel's hot line: a plan position
    // sends the wake straight into its bucket, a tagged index onto
    // the next list.
    for (ChannelBase *ch : dirtyChannels_) {
        const bool pushed = ch->staged_ != 0;
        const bool popped = ch->popped_;
        const bool wake_producer =
            pushed || (popped && ch->committed_ + ch->staged_ == ch->cap_);
        const bool wake_consumer =
            popped || (pushed && ch->committed_ == 0);
        if (ch->commit())
            ++stats_.channelCommits;
        if (wake_producer)
            wakeEndpoint(ch->producerWake_);
        if (wake_consumer)
            wakeEndpoint(ch->consumerWake_);
    }
    dirtyChannels_.clear();
}

} // namespace soff::sim
