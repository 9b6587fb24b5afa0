/**
 * @file
 * Functional units of a basic pipeline (paper §IV-A/B).
 *
 * Every unit is fully pipelined (initiation interval 1), communicates
 * with neighbors through handshake channels, and never stalls while
 * holding fewer than L_F + 1 work-items (the precondition of §IV-E
 * Lemma 1 — the internal pipeline has exactly L_F + 1 slots).
 */
#pragma once

#include "datapath/plan.hpp"
#include "memsys/locks.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"

namespace soff::sim
{

/**
 * A pre-resolved instruction operand source. Built once per unit from
 * the immutable wiring (ComputeUnit/MemUnit), so the per-issue hot
 * path reads either a cached value or an input-flit index instead of
 * re-classifying the operand (constant? argument?) and linearly
 * scanning the input list every cycle. Constants are pre-evaluated;
 * argument values are cached by value and re-fetched from the launch
 * context after every reset() (a relaunch of a pooled circuit rebinds
 * buffer addresses, and the launch map's node addresses are not
 * stable across that copy).
 */
struct OperandSlot
{
    enum class Src : uint8_t
    {
        Value, ///< Use `value` (pre-evaluated constant / cached arg).
        Input, ///< Use the issuing cycle's input flit `input`.
    };
    Src src = Src::Value;
    uint32_t input = 0;
    const ir::Argument *arg = nullptr; ///< Refresh source, or null.
    ir::RtValue value;
};

/** Distributes live-in values of a basic block to consumers (§IV-B). */
class SourceUnit : public Component
{
  public:
    SourceUnit(const std::string &name, Channel<WiToken> *in)
        : Component(name), in_(in)
    {
        watchIn(in_);
    }

    /** live_index: slot in the input layout; -1 for trigger edges. */
    void
    addOutput(Channel<Flit> *ch, int live_index)
    {
        watchOut(ch);
        outs_.push_back({ch, live_index});
    }

    void step(Cycle now) override;
    void describeBlockage(BlockageProbe &probe) const override;
    ComponentKind kind() const override { return ComponentKind::Source; }
    bool holdsWork() const override { return in_->occupancy() > 0; }

  private:
    struct Out
    {
        Channel<Flit> *ch;
        int liveIndex;
    };

    Channel<WiToken> *in_;
    std::vector<Out> outs_;
};

/** Aggregates live-out values into the pipeline's output (§IV-B). */
class SinkUnit : public Component
{
  public:
    SinkUnit(const std::string &name, Channel<WiToken> *out,
             size_t layout_size)
        : Component(name), out_(out), layoutSize_(layout_size)
    {
        watchOut(out_);
    }

    /** sink_index: slot in the sink layout; -1 for ordering edges. */
    void
    addInput(Channel<Flit> *ch, int sink_index)
    {
        watchIn(ch);
        ins_.push_back({ch, sink_index});
    }

    void step(Cycle now) override;
    void describeBlockage(BlockageProbe &probe) const override;
    ComponentKind kind() const override { return ComponentKind::Sink; }
    bool
    holdsWork() const override
    {
        for (const In &in : ins_) {
            if (in.ch->occupancy() > 0)
                return true;
        }
        return false;
    }

  private:
    struct In
    {
        Channel<Flit> *ch;
        int sinkIndex;
    };

    Channel<WiToken> *out_;
    size_t layoutSize_;
    std::vector<In> ins_;
};

/** A fixed-latency compute unit executing one instruction (§IV-A). */
class ComputeUnit : public Component
{
  public:
    ComputeUnit(const std::string &name, const ir::Instruction *inst,
                int latency, const LaunchContext *launch);

    void addInput(Channel<Flit> *ch, const ir::Value *value);
    void
    addOutput(Channel<Flit> *ch)
    {
        watchOut(ch);
        outs_.push_back(ch);
    }

    void step(Cycle now) override;
    void describeBlockage(BlockageProbe &probe) const override;
    ComponentKind kind() const override { return ComponentKind::Compute; }
    bool
    holdsWork() const override
    {
        if (!pipe_.empty())
            return true;
        for (const In &in : ins_) {
            if (in.ch->occupancy() > 0)
                return true;
        }
        return false;
    }
    void reset() override
    {
        pipe_.clear();
        opPlanFresh_ = false; // re-fetch cached argument values
    }

  private:
    void stepBody(Cycle now);
    void refreshOperandPlan();

    /** Widest pure instruction (select, fma, clamp) plus headroom:
     *  the size of the on-stack operand set an issue fills. */
    static constexpr size_t kMaxOperands = 4;

    const ir::Instruction *inst_;
    int latency_;
    const LaunchContext *launch_;
    /** Only WorkItemInfo reads the work-item context, and decoding it
     *  costs 64-bit divisions per dimension: other units never fill
     *  wiCtx_, and evalPure never reads it for them. */
    bool readsWorkItem_;
    ir::WorkItemCtx wiCtx_;
    struct In
    {
        Channel<Flit> *ch;
        const ir::Value *value;
    };
    std::vector<In> ins_;
    std::vector<Channel<Flit> *> outs_;
    struct Stage
    {
        Cycle ready;
        Flit flit;
    };
    RingQueue<Stage> pipe_;
    size_t capacity_;
    /** Pre-resolved operand sources (structure built once; argument
     *  values refreshed after reset — storage is retained, so the
     *  steady state and every relaunch stay allocation-free). */
    std::vector<OperandSlot> opPlan_;
    bool opPlanBuilt_ = false;
    bool opPlanFresh_ = false;
};

/**
 * A memory-access unit (loads, stores, atomics): issues requests to the
 * memory subsystem and forwards in-order responses (§IV-A, §V).
 * Variable latency; the near-maximum latency L_F sizes the in-flight
 * window so the unit never stalls while holding <= L_F requests.
 */
class MemUnit : public Component
{
  public:
    MemUnit(const std::string &name, const ir::Instruction *inst,
            int near_max_latency, const LaunchContext *launch);

    void addInput(Channel<Flit> *ch, const ir::Value *value);
    void
    addOutput(Channel<Flit> *ch)
    {
        watchOut(ch);
        outs_.push_back(ch);
    }
    void
    setMemPort(Channel<MemReq> *req, Channel<MemResp> *resp)
    {
        req_ = req;
        resp_ = resp;
        watchOut(req_);
        watchIn(resp_);
    }
    /** Atomics: the 16-lock table shared with the target cache/block. */
    void setLockTable(memsys::LockTable *locks) { locks_ = locks; }
    /** Local-memory accesses: slot count for work-group slotting. */
    void setNumSlots(int n) { numSlots_ = n; }

    /**
     * Opt-in §V-A L_F guard: record a violation whenever the in-flight
     * request count exceeds the response window capacity — i.e. the
     * unit could stall while holding more than L_F requests, voiding
     * the deadlock-freedom precondition.
     */
    void enableInvariantCheck() { checkInvariants_ = true; }
    /** Non-empty once the §V-A guard has tripped. */
    const std::string &invariantViolation() const { return violation_; }

    void step(Cycle now) override;
    void describeBlockage(BlockageProbe &probe) const override;
    ComponentKind kind() const override { return ComponentKind::Mem; }
    bool
    holdsWork() const override
    {
        if (!inflight_.empty())
            return true;
        if (resp_ != nullptr && resp_->occupancy() > 0)
            return true;
        for (const In &in : ins_) {
            if (in.ch->occupancy() > 0)
                return true;
        }
        return false;
    }
    void reset() override
    {
        inflight_.clear();
        violation_.clear();
        blockedOnLock_ = -1;
        opPlanFresh_ = false; // re-fetch cached argument values
    }

  private:
    void refreshOperandPlan();
    ir::RtValue convertResponse(uint64_t bits) const;

    const ir::Instruction *inst_;
    const LaunchContext *launch_;
    struct In
    {
        Channel<Flit> *ch;
        const ir::Value *value;
    };
    std::vector<In> ins_;
    std::vector<Channel<Flit> *> outs_;
    Channel<MemReq> *req_ = nullptr;
    Channel<MemResp> *resp_ = nullptr;
    memsys::LockTable *locks_ = nullptr;
    int numSlots_ = 1;
    struct Pending
    {
        uint64_t wi;
        int lockIndex; // -1 if none held
    };
    RingQueue<Pending> inflight_;
    size_t capacity_;
    bool checkInvariants_ = false;
    std::string violation_;
    int blockedOnLock_ = -1; ///< Lock index stalled on, -1 if none.
    /** Pre-resolved operand sources (see ComputeUnit). */
    std::vector<OperandSlot> opPlan_;
    bool opPlanBuilt_ = false;
    bool opPlanFresh_ = false;
};

/**
 * The work-group barrier unit (§IV-F1): a FIFO over live-variable
 * bundles that releases a work-group once all of its work-items have
 * arrived. Tolerates a bounded number of simultaneously waiting
 * work-groups (the dispatcher's concurrent-group cap bounds this).
 */
class BarrierUnit : public Component
{
  public:
    BarrierUnit(const std::string &name, Channel<WiToken> *in,
                Channel<WiToken> *out, const LaunchContext *launch,
                int max_waiting_groups);

    void step(Cycle now) override;
    void describeBlockage(BlockageProbe &probe) const override;
    ComponentKind kind() const override { return ComponentKind::Barrier; }
    bool
    holdsWork() const override
    {
        return waitingGroups_ > 0 || !releasing_.empty() ||
               in_->occupancy() > 0;
    }
    void reset() override
    {
        for (Bucket &b : buckets_) {
            b.used = false;
            b.items.clear();
        }
        waitingGroups_ = 0;
        releasing_.clear();
        overflow_ = false;
    }

    bool overflowed() const { return overflow_; }

  private:
    /**
     * A partially arrived work-group. The bucket pool is sized to the
     * concurrent-group cap at construction (it used to be a std::map),
     * so admission and release in the steady state are a linear scan
     * over a handful of preallocated slots with no allocation.
     */
    struct Bucket
    {
        uint64_t group = 0;
        bool used = false;
        std::vector<WiToken> items;
    };

    Channel<WiToken> *in_;
    Channel<WiToken> *out_;
    const LaunchContext *launch_;
    size_t maxGroups_;
    std::vector<Bucket> buckets_;
    size_t waitingGroups_ = 0;
    RingQueue<WiToken> releasing_;
    bool overflow_ = false;
};

/** Applies a plan Projection to a token. */
WiToken applyProjection(const datapath::Projection &projection,
                        const WiToken &token,
                        const LaunchContext &launch);

} // namespace soff::sim
