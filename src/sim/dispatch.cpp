#include "sim/dispatch.hpp"

#include "sim/forensics.hpp"
#include "support/strings.hpp"

namespace soff::sim
{

Dispatcher::Dispatcher(const std::string &name,
                       const LaunchContext *launch,
                       std::vector<Channel<WiToken> *> datapath_inputs,
                       CompletionBoard *board,
                       int max_groups_per_datapath)
    : Component(name), launch_(launch), inputs_(std::move(datapath_inputs)),
      board_(board), maxGroups_(max_groups_per_datapath),
      totalGroups_(launch->ndrange.totalGroups()),
      streams_(inputs_.size())
{
    for (Channel<WiToken> *ch : inputs_)
        watchOut(ch);
}

void
Dispatcher::step(Cycle)
{
    const NDRange &nd = launch_->ndrange;
    for (size_t d = 0; d < inputs_.size(); ++d) {
        Stream &stream = streams_[d];
        if (!stream.active) {
            if (nextGroup_ >= totalGroups_ ||
                board_->inflight(static_cast<int>(d)) >= maxGroups_ ||
                !board_->slotFree(nextGroup_, static_cast<int>(d),
                                  static_cast<uint64_t>(maxGroups_))) {
                continue;
            }
            stream.active = true;
            stream.group = nextGroup_++;
            stream.nextLocal = 0;
            board_->assign(stream.group, static_cast<int>(d));
        }
        // One work-item per cycle unless the datapath entry stalls.
        if (inputs_[d]->canPush()) {
            WiToken token;
            token.wi = nd.gidOf(stream.group, stream.nextLocal);
            inputs_[d]->push(std::move(token));
            if (++stream.nextLocal >= nd.groupSize())
                stream.active = false;
        }
    }
}

void
Dispatcher::describeBlockage(BlockageProbe &probe) const
{
    for (size_t d = 0; d < inputs_.size(); ++d) {
        const Stream &stream = streams_[d];
        if (stream.active) {
            probe.waitPush(inputs_[d],
                           strFormat("dispatching work-group %llu",
                                     static_cast<unsigned long long>(
                                         stream.group)));
        } else if (nextGroup_ < totalGroups_) {
            probe.note(strFormat(
                "datapath %zu at its concurrent-group cap or slot "
                "conflict (%d in flight), %llu group(s) still "
                "undispatched",
                d, board_->inflight(static_cast<int>(d)),
                static_cast<unsigned long long>(totalGroups_ -
                                                nextGroup_)));
        }
    }
}

WorkItemCounter::WorkItemCounter(
    const std::string &name, const LaunchContext *launch,
    std::vector<Channel<WiToken> *> terminal_channels,
    CompletionBoard *board, std::vector<memsys::Cache *> caches)
    : Component(name), launch_(launch),
      terminals_(std::move(terminal_channels)), board_(board),
      caches_(std::move(caches)),
      total_(launch->ndrange.totalWorkItems()),
      datapathStats_(terminals_.size())
{
    for (Channel<WiToken> *ch : terminals_)
        watchIn(ch);
}

void
WorkItemCounter::step(Cycle now)
{
    for (size_t d = 0; d < terminals_.size(); ++d) {
        Channel<WiToken> *ch = terminals_[d];
        if (ch->canPop()) {
            const uint64_t wi = ch->peek().wi;
            ch->drop();
            // A completed work-group frees a dispatcher slot, which is
            // not channel traffic the dispatcher could observe.
            if (board_->retire(wi))
                wakeOther(dispatcher_);
            ++count_;
            DatapathStats &ds = datapathStats_[d];
            if (ds.retired == 0)
                ds.firstRetire = now;
            ds.lastRetire = now;
            ++ds.retired;
        }
    }
    if (count_ >= total_ && !flushSent_) {
        flushSent_ = true;
        for (memsys::Cache *cache : caches_) {
            cache->requestFlush(this);
            wakeOther(cache);
        }
    }
    if (flushSent_ && !completed_) {
        bool all_flushed = true;
        for (memsys::Cache *cache : caches_)
            all_flushed &= cache->flushDone();
        completed_ = all_flushed;
    }
}

void
WorkItemCounter::describeBlockage(BlockageProbe &probe) const
{
    std::string held = strFormat(
        "%llu/%llu work-item(s) retired",
        static_cast<unsigned long long>(count_),
        static_cast<unsigned long long>(total_));
    for (Channel<WiToken> *ch : terminals_)
        probe.waitPop(ch, held);
    if (flushSent_ && !completed_)
        probe.note("awaiting cache flush completion; " + held);
    else
        probe.note(held);
}

} // namespace soff::sim
