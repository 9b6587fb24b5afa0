#include "sim/glue.hpp"

#include "sim/forensics.hpp"
#include "sim/units.hpp"
#include "support/strings.hpp"

namespace soff::sim
{

void
Router::step(Cycle)
{
    if (!in_->canPop() || outs_.empty())
        return;
    const WiToken &token = in_->peek();
    size_t port = 0;
    if (outs_.size() > 1) {
        bool taken;
        if (condIndex_ >= 0) {
            taken = token.live.at(static_cast<size_t>(condIndex_)).i != 0;
        } else if (condValue_ != nullptr && condValue_->isConstant()) {
            taken = static_cast<const ir::Constant *>(condValue_)
                        ->intBits() != 0;
        } else if (condValue_ != nullptr && condValue_->isArgument()) {
            taken = launch_->argValue(static_cast<const ir::Argument *>(
                                          condValue_)).i != 0;
        } else {
            SOFF_ASSERT(false, "router without a condition: " + name());
            taken = false;
        }
        port = taken ? 0 : 1; // CondBr: succ(0) is the true target
    }
    Out &out = outs_[port];
    if (!out.ch->canPush())
        return;
    if (orderFifo_ != nullptr && !orderFifo_->canPush())
        return;
    if (orderFifo_ != nullptr)
        orderFifo_->push(launch_->ndrange.groupOf(token.wi));
    if (out.proj != nullptr) {
        out.ch->push(applyProjection(*out.proj, token, *launch_));
        in_->drop();
    } else {
        out.ch->push(in_->pop()); // one move, slot to slot
    }
}

void
Router::describeBlockage(BlockageProbe &probe) const
{
    probe.waitPop(in_);
    for (const Out &out : outs_)
        probe.waitPush(out.ch);
    if (orderFifo_ != nullptr)
        probe.waitPush(orderFifo_, "work-group order FIFO");
}

void
SelectUnit::step(Cycle)
{
    if (!out_->canPush() || ins_.empty())
        return;
    if (orderFifo_ != nullptr) {
        // Ordered mode: deliver only tokens of the group at the FIFO
        // front (§IV-F1: "the select glue only delivers work-items
        // whose work-group ID is the same as the first element").
        if (!orderFifo_->canPop())
            return;
        uint64_t group = orderFifo_->peek();
        for (In &in : ins_) {
            if (in.ch->canPop() &&
                launch_->ndrange.groupOf(in.ch->peek().wi) == group) {
                out_->push(in.ch->pop());
                orderFifo_->drop();
                return;
            }
        }
        return;
    }
    // Priority inputs (loop back edges) first.
    for (In &in : ins_) {
        if (in.priority && in.ch->canPop()) {
            out_->push(in.ch->pop());
            return;
        }
    }
    for (size_t k = 0; k < ins_.size(); ++k) {
        size_t i = (rr_ + k) % ins_.size();
        if (ins_[i].ch->canPop()) {
            out_->push(ins_[i].ch->pop());
            rr_ = (i + 1) % ins_.size();
            return;
        }
    }
}

void
SelectUnit::describeBlockage(BlockageProbe &probe) const
{
    probe.waitPush(out_);
    for (const In &in : ins_)
        probe.waitPop(in.ch);
    if (orderFifo_ == nullptr || orderFifo_->occupancy() == 0) {
        if (orderFifo_ != nullptr)
            probe.waitPop(orderFifo_, "work-group order FIFO");
        return;
    }
    uint64_t group = orderFifo_->peek();
    probe.note(strFormat("ordered select expects work-group %llu next",
                         static_cast<unsigned long long>(group)));
    // Sibling of the barrier's ad-hoc flag: if every input is full and
    // none holds the expected group at its head, the expected token
    // can never arrive (only this select drains these channels) — an
    // internal ordering bug, not a legitimate circuit deadlock.
    bool all_full = true;
    bool any_match = false;
    for (const In &in : ins_) {
        if (in.ch->occupancy() < in.ch->capacityTokens())
            all_full = false;
        if (in.ch->occupancy() > 0 &&
            launch_->ndrange.groupOf(in.ch->peek().wi) == group)
            any_match = true;
    }
    if (all_full && !any_match && !ins_.empty()) {
        probe.invariant(strFormat(
            "ordered select wedged: every input is full and none holds "
            "a token of the expected work-group %llu",
            static_cast<unsigned long long>(group)));
    }
}

void
LoopEntrance::step(Cycle)
{
    if (!in_->canPop() || !out_->canPush())
        return;
    if (state_->swgr) {
        uint64_t group = launch_->ndrange.groupOf(in_->peek().wi);
        if (state_->count == 0 && !state_->groupActive) {
            state_->groupActive = true;
            state_->currentGroup = group;
        } else if (!state_->groupActive ||
                   group != state_->currentGroup) {
            return; // §IV-F1: one work-group inside at a time
        }
    } else if (state_->nmax > 0 && state_->count >= state_->nmax) {
        return; // §IV-E: never admit the N_max-th + 1 work-item
    }
    ++state_->count;
    out_->push(in_->pop());
}

void
LoopEntrance::describeBlockage(BlockageProbe &probe) const
{
    probe.waitPop(in_);
    probe.waitPush(out_);
    if (state_->swgr && state_->groupActive) {
        probe.note(strFormat(
            "SWGR gate: work-group %llu active, %d work-item(s) inside",
            static_cast<unsigned long long>(state_->currentGroup),
            state_->count));
    } else if (state_->nmax > 0 && state_->count >= state_->nmax) {
        probe.note(strFormat("N_max gate: %d/%d work-item(s) inside",
                             state_->count, state_->nmax));
    }
}

void
LoopExit::step(Cycle)
{
    if (!in_->canPop() || !out_->canPush())
        return;
    out_->push(in_->pop());
    --state_->count;
    if (state_->count == 0 && state_->swgr)
        state_->groupActive = false;
    // The gate count / SWGR state is not channel traffic: wake the
    // entrance so it can re-evaluate its admission condition.
    wakeOther(state_->entrance);
}

void
LoopExit::describeBlockage(BlockageProbe &probe) const
{
    probe.waitPop(in_);
    probe.waitPush(out_);
}

} // namespace soff::sim
