#include "sim/units.hpp"

#include "sim/forensics.hpp"
#include "support/strings.hpp"

namespace soff::sim
{

namespace
{

/**
 * Shared core of ComputeUnit/MemUnit::refreshOperandPlan. The first
 * call (wiring is complete by the first step) classifies every
 * instruction operand once — pre-evaluating constants and recording
 * input-flit indices — so the per-issue loop is a branch-light read
 * of the slots. Every call re-fetches argument values from the launch
 * context into the cached slots (relaunches rebind them); slot
 * storage is retained, so only the very first build allocates.
 */
template <typename InVec>
void
refreshOperandPlanImpl(const ir::Instruction *inst, const InVec &ins,
                       const LaunchContext *launch,
                       const std::string &unit_name,
                       std::vector<OperandSlot> &plan, bool &built)
{
    if (!built) {
        plan.resize(inst->numOperands());
        size_t k = 0;
        for (const ir::Value *op : inst->operands()) {
            OperandSlot &s = plan[k++];
            if (op->isConstant()) {
                s.src = OperandSlot::Src::Value;
                s.value = ir::constantValue(
                    static_cast<const ir::Constant *>(op));
            } else if (op->isArgument()) {
                s.src = OperandSlot::Src::Value;
                s.arg = static_cast<const ir::Argument *>(op);
            } else {
                s.src = OperandSlot::Src::Input;
                bool found = false;
                for (size_t i = 0; i < ins.size(); ++i) {
                    if (ins[i].value == op) {
                        s.input = static_cast<uint32_t>(i);
                        found = true;
                        break;
                    }
                }
                SOFF_ASSERT(found,
                            "operand not wired to unit " + unit_name);
            }
        }
        built = true;
    }
    for (OperandSlot &s : plan) {
        if (s.arg != nullptr)
            s.value = launch->argValue(s.arg);
    }
}

} // namespace

// ----------------------------------------------------------------------
// SourceUnit
// ----------------------------------------------------------------------
void
SourceUnit::step(Cycle)
{
    if (!in_->canPop())
        return;
    for (const Out &out : outs_) {
        if (!out.ch->canPush())
            return;
    }
    // Fan the live values out straight from the input's head slot.
    const WiToken &token = in_->peek();
    for (const Out &out : outs_) {
        Flit flit;
        flit.wi = token.wi;
        if (out.liveIndex >= 0) {
            SOFF_ASSERT(static_cast<size_t>(out.liveIndex) <
                            token.live.size(),
                        "live-set layout mismatch at " + name());
            flit.val = token.live[static_cast<size_t>(out.liveIndex)];
        }
        out.ch->push(std::move(flit));
    }
    in_->drop();
}

void
SourceUnit::describeBlockage(BlockageProbe &probe) const
{
    probe.waitPop(in_);
    for (const Out &out : outs_)
        probe.waitPush(out.ch);
}

// ----------------------------------------------------------------------
// SinkUnit
// ----------------------------------------------------------------------
void
SinkUnit::step(Cycle)
{
    if (!out_->canPush())
        return;
    for (const In &in : ins_) {
        if (!in.ch->canPop())
            return;
    }
    WiToken token;
    token.live.resize(layoutSize_);
    bool first = true;
    for (const In &in : ins_) {
        Flit &&flit = in.ch->pop();
        if (first) {
            token.wi = flit.wi;
            first = false;
        } else {
            SOFF_ASSERT(token.wi == flit.wi,
                        "sink received misaligned work-items: " + name());
        }
        if (in.sinkIndex >= 0)
            token.live[static_cast<size_t>(in.sinkIndex)] =
                std::move(flit.val);
    }
    out_->push(std::move(token));
}

void
SinkUnit::describeBlockage(BlockageProbe &probe) const
{
    probe.waitPush(out_);
    for (const In &in : ins_)
        probe.waitPop(in.ch);
}

// ----------------------------------------------------------------------
// ComputeUnit
// ----------------------------------------------------------------------
ComputeUnit::ComputeUnit(const std::string &name,
                         const ir::Instruction *inst, int latency,
                         const LaunchContext *launch)
    : Component(name), inst_(inst), latency_(latency), launch_(launch),
      readsWorkItem_(inst->op() == ir::Opcode::WorkItemInfo),
      capacity_(static_cast<size_t>(latency) + 1)
{
    SOFF_ASSERT(inst->numOperands() <= kMaxOperands,
                "compute unit with more operands than an issue slot: " +
                    name);
}

void
ComputeUnit::addInput(Channel<Flit> *ch, const ir::Value *value)
{
    watch(ch);
    ins_.push_back({ch, value});
}

void
ComputeUnit::refreshOperandPlan()
{
    refreshOperandPlanImpl(inst_, ins_, launch_, name(), opPlan_,
                           opPlanBuilt_);
    opPlanFresh_ = true;
}

void
ComputeUnit::step(Cycle now)
{
    stepBody(now);
    // Every stall except "result not ready yet" is covered by a watched
    // channel (an input push, a consumer pop, or our own pushes/pops
    // committing); a pending result maturing is purely internal time,
    // so arm a timer for it.
    if (!pipe_.empty() && pipe_.front().ready > now)
        wakeAt(pipe_.front().ready);
}

void
ComputeUnit::stepBody(Cycle now)
{
    // Retire: the oldest result leaves when every consumer has room.
    if (!pipe_.empty() && pipe_.front().ready <= now) {
        bool all_ready = true;
        for (Channel<Flit> *out : outs_) {
            if (!out->canPush())
                all_ready = false;
        }
        if (all_ready) {
            // Copies to every consumer but the last, which takes it.
            Flit &result = pipe_.front().flit;
            for (size_t k = 1; k < outs_.size(); ++k)
                outs_[k - 1]->push(result);
            if (!outs_.empty())
                outs_.back()->push(std::move(result));
            pipe_.pop_front();
        }
    }
    // Issue: consume one input set per cycle while holding <= L_F.
    if (pipe_.size() >= capacity_)
        return;
    for (const In &in : ins_) {
        if (!in.ch->canPop())
            return;
    }
    if (!opPlanFresh_)
        refreshOperandPlan();
    // Operands come straight from the input heads (or the plan's
    // pre-evaluated values) into a fixed on-stack issue slot.
    ir::RtValue ops[kMaxOperands];
    const size_t n_ops = opPlan_.size();
    for (size_t k = 0; k < n_ops; ++k) {
        const OperandSlot &s = opPlan_[k];
        ops[k] = s.src == OperandSlot::Src::Input
                     ? ins_[s.input].ch->peek().val
                     : s.value;
    }
    const uint64_t wi = ins_.empty() ? 0 : ins_[0].ch->peek().wi;
    for (const In &in : ins_) {
        SOFF_ASSERT(in.ch->peek().wi == wi,
                    "unit received misaligned work-items: " + name());
        in.ch->drop();
    }
    if (readsWorkItem_)
        wiCtx_ = launch_->ndrange.ctxOf(wi);
    // The result lands in its pipeline stage in place.
    Stage &stage = pipe_.append();
    stage.ready = now + static_cast<Cycle>(latency_);
    stage.flit.wi = wi;
    if (!inst_->type()->isVoid())
        stage.flit.val = ir::evalPure(inst_, ops, n_ops, wiCtx_);
}

void
ComputeUnit::describeBlockage(BlockageProbe &probe) const
{
    std::string held = strFormat("%zu/%zu pipelined", pipe_.size(),
                                 capacity_);
    if (!pipe_.empty()) {
        for (Channel<Flit> *out : outs_)
            probe.waitPush(out, held);
    }
    if (pipe_.size() < capacity_) {
        for (const In &in : ins_)
            probe.waitPop(in.ch, held);
    }
}

// ----------------------------------------------------------------------
// MemUnit
// ----------------------------------------------------------------------
MemUnit::MemUnit(const std::string &name, const ir::Instruction *inst,
                 int near_max_latency, const LaunchContext *launch)
    : Component(name), inst_(inst), launch_(launch),
      capacity_(static_cast<size_t>(near_max_latency) + 1)
{}

void
MemUnit::addInput(Channel<Flit> *ch, const ir::Value *value)
{
    watch(ch);
    ins_.push_back({ch, value});
}

void
MemUnit::refreshOperandPlan()
{
    refreshOperandPlanImpl(inst_, ins_, launch_, name(), opPlan_,
                           opPlanBuilt_);
    opPlanFresh_ = true;
}

ir::RtValue
MemUnit::convertResponse(uint64_t bits) const
{
    const ir::Type *ty = inst_->type();
    if (ty->isVoid())
        return ir::RtValue();
    if (ty->isFloat()) {
        if (ty->bits() == 32) {
            float f;
            uint32_t b = static_cast<uint32_t>(bits);
            __builtin_memcpy(&f, &b, sizeof(f));
            return ir::RtValue::makeFloat(f);
        }
        double d;
        __builtin_memcpy(&d, &bits, sizeof(d));
        return ir::RtValue::makeFloat(d);
    }
    return ir::RtValue::makeInt(ir::normalizeInt(ty, bits));
}

void
MemUnit::step(Cycle)
{
    // Retire the oldest response.
    if (resp_->canPop() && !inflight_.empty()) {
        bool all_ready = true;
        for (Channel<Flit> *out : outs_) {
            if (!out->canPush())
                all_ready = false;
        }
        if (all_ready) {
            MemResp resp = resp_->pop();
            Pending pending = inflight_.front();
            inflight_.pop_front();
            if (pending.lockIndex >= 0) {
                locks_->release(pending.lockIndex, this);
                // A lock handoff is not channel traffic: wake the
                // units spinning on this lock so they can retry.
                // drainWaiters visits and clears in place (no vector
                // returned by value on the per-cycle path).
                locks_->drainWaiters(pending.lockIndex,
                                     [this](Component *w) {
                                         wakeOther(w);
                                     });
            }
            Flit flit;
            flit.wi = pending.wi;
            flit.val = convertResponse(resp.data);
            for (Channel<Flit> *out : outs_)
                out->push(flit);
        }
    }
    // Issue a new request.
    if (inflight_.size() >= capacity_ || !req_->canPush())
        return;
    for (const In &in : ins_) {
        if (!in.ch->canPop())
            return;
    }
    // Peek-compute the request straight from the input heads; atomics
    // must win their lock before anything is popped.
    if (!opPlanFresh_)
        refreshOperandPlan();
    auto operand = [this](size_t k) -> const ir::RtValue & {
        const OperandSlot &s = opPlan_[k];
        return s.src == OperandSlot::Src::Input
                   ? ins_[s.input].ch->peek().val
                   : s.value;
    };
    const uint64_t wi = ins_.empty() ? 0 : ins_[0].ch->peek().wi;

    MemReq req;
    req.addr = operand(0).i;
    int lock_index = -1;
    const ir::Type *elem = inst_->op() == ir::Opcode::Store
                               ? inst_->operand(1)->type()
                               : inst_->type();
    req.size = static_cast<uint32_t>(elem->sizeBytes());
    req.type = elem;
    req.slot = static_cast<uint32_t>(
        launch_->ndrange.groupOf(wi) %
        static_cast<uint64_t>(numSlots_));
    auto bitsOf = [](const ir::RtValue &v, const ir::Type *ty) {
        if (!v.isFloat())
            return v.i;
        if (ty->bits() == 32) {
            float f = static_cast<float>(v.f);
            uint32_t b;
            __builtin_memcpy(&b, &f, sizeof(b));
            return static_cast<uint64_t>(b);
        }
        uint64_t b;
        double d = v.f;
        __builtin_memcpy(&b, &d, sizeof(b));
        return b;
    };
    switch (inst_->op()) {
      case ir::Opcode::Load:
        req.op = MemReq::Op::Load;
        break;
      case ir::Opcode::Store:
        req.op = MemReq::Op::Store;
        req.data = bitsOf(operand(1), elem);
        break;
      case ir::Opcode::AtomicRMW:
        req.op = MemReq::Op::AtomicRMW;
        req.aop = inst_->atomicOp();
        req.data = bitsOf(operand(1), elem);
        break;
      case ir::Opcode::AtomicCmpXchg:
        req.op = MemReq::Op::AtomicCmpXchg;
        req.data = bitsOf(operand(1), elem);
        req.data2 = bitsOf(operand(2), elem);
        break;
      default:
        SOFF_ASSERT(false, "MemUnit with non-memory instruction");
    }
    if (inst_->isAtomic()) {
        lock_index = memsys::LockTable::lockIndex(req.addr);
        if (locks_ == nullptr ||
            !locks_->tryAcquire(lock_index, this)) {
            // Lock contention: stall this cycle (§IV-F2) and park on
            // the lock so its release can wake us.
            if (locks_ != nullptr)
                locks_->await(lock_index, this);
            blockedOnLock_ = lock_index;
            return;
        }
    }
    blockedOnLock_ = -1;
    // Commit the input pops.
    for (const In &in : ins_) {
        SOFF_ASSERT(in.ch->peek().wi == wi,
                    "unit received misaligned work-items: " + name());
        in.ch->drop();
    }
    req_->push(req);
    inflight_.push_back({wi, lock_index});
    if (checkInvariants_ && violation_.empty() &&
        inflight_.size() > resp_->capacityTokens()) {
        // §V-A: the response window must absorb every request the unit
        // can have in flight, or it can stall while holding more than
        // L_F requests — the deadlock-freedom precondition is void.
        violation_ = strFormat(
            "§V-A L_F guard: %zu request(s) in flight exceed the "
            "response window of %zu token(s)",
            inflight_.size(), resp_->capacityTokens());
    }
}

void
MemUnit::describeBlockage(BlockageProbe &probe) const
{
    std::string held = strFormat("%zu/%zu request(s) in flight",
                                 inflight_.size(), capacity_);
    if (!inflight_.empty()) {
        probe.waitPop(resp_, held);
        for (Channel<Flit> *out : outs_)
            probe.waitPush(out, held);
    }
    if (inflight_.size() < capacity_) {
        probe.waitPush(req_, held);
        for (const In &in : ins_)
            probe.waitPop(in.ch, held);
    }
    if (blockedOnLock_ >= 0 && locks_ != nullptr) {
        probe.waitLock(blockedOnLock_, locks_->holder(blockedOnLock_),
                       held);
    }
    if (!violation_.empty())
        probe.invariant(violation_);
}

// ----------------------------------------------------------------------
// BarrierUnit
// ----------------------------------------------------------------------
BarrierUnit::BarrierUnit(const std::string &name, Channel<WiToken> *in,
                         Channel<WiToken> *out,
                         const LaunchContext *launch,
                         int max_waiting_groups)
    : Component(name), in_(in), out_(out), launch_(launch),
      maxGroups_(static_cast<size_t>(max_waiting_groups))
{
    watch(in_);
    watch(out_);
    // Preallocate the bucket pool (and each bucket's token storage) so
    // admission never allocates in the steady state.
    buckets_.resize(maxGroups_);
    for (Bucket &b : buckets_)
        b.items.reserve(launch_->ndrange.groupSize());
}

void
BarrierUnit::step(Cycle)
{
    // Release one work-item per cycle (§IV-F1: "produces their live
    // variables work-item by work-item").
    if (!releasing_.empty() && out_->canPush()) {
        out_->push(std::move(releasing_.front()));
        releasing_.pop_front();
    }
    if (!in_->canPop())
        return;
    uint64_t group = launch_->ndrange.groupOf(in_->peek().wi);
    Bucket *bucket = nullptr;
    Bucket *unused = nullptr;
    for (Bucket &b : buckets_) {
        if (b.used && b.group == group) {
            bucket = &b;
            break;
        }
        if (!b.used && unused == nullptr)
            unused = &b;
    }
    if (bucket == nullptr && waitingGroups_ >= maxGroups_) {
        // Too many partially arrived work-groups: with the dispatcher's
        // concurrent-group cap this indicates a work-group-ordering
        // bug; flag it rather than deadlock silently.
        overflow_ = true;
        return;
    }
    if (bucket == nullptr) {
        bucket = unused;
        bucket->used = true;
        bucket->group = group;
        bucket->items.clear();
        ++waitingGroups_;
    }
    bucket->items.push_back(in_->pop());
    if (bucket->items.size() == launch_->ndrange.groupSize()) {
        for (WiToken &t : bucket->items)
            releasing_.push_back(std::move(t));
        bucket->items.clear();
        bucket->used = false;
        --waitingGroups_;
    }
}

void
BarrierUnit::describeBlockage(BlockageProbe &probe) const
{
    std::string held = strFormat(
        "%zu group(s) partially arrived, %zu work-item(s) releasing",
        waitingGroups_, releasing_.size());
    if (!releasing_.empty())
        probe.waitPush(out_, held);
    probe.waitPop(in_, held);
    if (overflow_) {
        // The "flag it rather than deadlock silently" path, upgraded:
        // an overflow is an internal work-group-ordering bug, not a
        // legitimate circuit deadlock, and the report says so.
        probe.invariant(strFormat(
            "work-group buffering overflow: %zu partially arrived "
            "group(s) at the cap of %zu (work-group ordering bug "
            "upstream of the barrier)",
            waitingGroups_, maxGroups_));
    }
}

// ----------------------------------------------------------------------
// Projection application
// ----------------------------------------------------------------------
WiToken
applyProjection(const datapath::Projection &projection,
                const WiToken &token, const LaunchContext &launch)
{
    WiToken out;
    out.wi = token.wi;
    out.live.reserve(projection.slots.size());
    for (const datapath::Projection::Slot &slot : projection.slots) {
        switch (slot.kind) {
          case datapath::Projection::Slot::Kind::FromInput:
            out.live.push_back(
                token.live.at(static_cast<size_t>(slot.fromIndex)));
            break;
          case datapath::Projection::Slot::Kind::Constant:
            out.live.push_back(ir::constantValue(slot.constant));
            break;
          case datapath::Projection::Slot::Kind::Argument:
            out.live.push_back(launch.argValue(slot.argument));
            break;
        }
    }
    return out;
}

} // namespace soff::sim
