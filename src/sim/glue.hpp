/**
 * @file
 * Glue logic between pipelines (paper §IV-D/E/F): branch and select
 * glues, loop entrance/exit glues with N_max work-item limiting, and
 * single-work-group-region (SWGR) glues.
 */
#pragma once

#include <memory>

#include "datapath/plan.hpp"
#include "sim/simulator.hpp"

namespace soff::sim
{

/**
 * Branch glue (§IV-D): forwards a pipeline's output token to one of its
 * successors based on the live-out condition value, applying the
 * per-target layout projection. With a single output it degenerates to
 * the projection-only forwarder; with zero outputs it feeds the
 * datapath's terminal channel (work-item counter).
 */
class Router : public Component
{
  public:
    Router(const std::string &name, Channel<WiToken> *in,
           const LaunchContext *launch)
        : Component(name), in_(in), launch_(launch)
    {
        watch(in_);
    }

    void
    addOutput(Channel<WiToken> *ch, const datapath::Projection *proj)
    {
        watch(ch);
        outs_.push_back({ch, proj});
    }
    /** Condition slot in the incoming layout (2-output routers). */
    void setCondIndex(int idx) { condIndex_ = idx; }
    /** Constant/argument condition fallback. */
    void setCondValue(const ir::Value *v) { condValue_ = v; }
    /** Work-group-order FIFO written on every forwarded token (§IV-F1). */
    void
    setOrderFifo(Channel<uint64_t> *fifo)
    {
        watch(fifo);
        orderFifo_ = fifo;
    }

    void step(Cycle now) override;
    void describeBlockage(BlockageProbe &probe) const override;
    ComponentKind kind() const override { return ComponentKind::Router; }
    bool holdsWork() const override { return in_->occupancy() > 0; }

  private:
    struct Out
    {
        Channel<WiToken> *ch;
        const datapath::Projection *proj;
    };

    Channel<WiToken> *in_;
    const LaunchContext *launch_;
    std::vector<Out> outs_;
    int condIndex_ = -1;
    const ir::Value *condValue_ = nullptr;
    Channel<uint64_t> *orderFifo_ = nullptr;
};

/**
 * Select glue (§IV-D): merges several token streams into one, one token
 * per cycle. Modes:
 *  - free round-robin (default);
 *  - back-edge priority (loop header: work-items inside the loop drain
 *    first, which the §IV-E deadlock-freedom argument relies on);
 *  - work-group ordered: only deliver the stream whose head token's
 *    work-group matches the front of the branch-side order FIFO.
 */
class SelectUnit : public Component
{
  public:
    SelectUnit(const std::string &name, Channel<WiToken> *out,
               const LaunchContext *launch)
        : Component(name), out_(out), launch_(launch)
    {
        watch(out_);
    }

    void
    addInput(Channel<WiToken> *ch, bool back_edge_priority = false)
    {
        watch(ch);
        ins_.push_back({ch, back_edge_priority});
    }
    void
    setOrderFifo(Channel<uint64_t> *fifo)
    {
        watch(fifo);
        orderFifo_ = fifo;
    }

    void step(Cycle now) override;
    void describeBlockage(BlockageProbe &probe) const override;
    ComponentKind kind() const override { return ComponentKind::Select; }
    bool
    holdsWork() const override
    {
        for (const In &in : ins_) {
            if (in.ch->occupancy() > 0)
                return true;
        }
        return false;
    }
    void reset() override { rr_ = 0; }

  private:
    struct In
    {
        Channel<WiToken> *ch;
        bool priority;
    };

    Channel<WiToken> *out_;
    const LaunchContext *launch_;
    std::vector<In> ins_;
    Channel<uint64_t> *orderFifo_ = nullptr;
    size_t rr_ = 0;
};

/** Shared state between a loop's entrance and exit glues. */
struct LoopGateState
{
    int count = 0;           ///< Work-items currently inside.
    int nmax = 0;            ///< §IV-E cap; 0 = uncapped.
    bool swgr = false;       ///< §IV-F1 single-work-group region.
    bool groupActive = false;
    uint64_t currentGroup = 0;
    Component *entrance = nullptr; ///< Woken by the exit glue.
};

/**
 * Loop entrance glue (§IV-E) / SWGR entrance glue (§IV-F1). Sits on the
 * region input, before the header select, so recirculating work-items
 * are never blocked.
 */
class LoopEntrance : public Component
{
  public:
    LoopEntrance(const std::string &name, Channel<WiToken> *in,
                 Channel<WiToken> *out,
                 std::shared_ptr<LoopGateState> state,
                 const LaunchContext *launch)
        : Component(name), in_(in), out_(out), state_(std::move(state)),
          launch_(launch)
    {
        watch(in_);
        watch(out_);
        state_->entrance = this;
    }

    void step(Cycle now) override;
    void describeBlockage(BlockageProbe &probe) const override;
    ComponentKind kind() const override { return ComponentKind::LoopGate; }
    /** Committed input occupancy only — the shared gate state belongs
     *  to whichever glue stepped last and must not be read here. */
    bool holdsWork() const override { return in_->occupancy() > 0; }
    /** The entrance owns the shared gate state; the exit glue's reset
     *  is a no-op so the state is cleared exactly once per relaunch. */
    void
    reset() override
    {
        state_->count = 0;
        state_->groupActive = false;
        state_->currentGroup = 0;
    }

  private:
    Channel<WiToken> *in_;
    Channel<WiToken> *out_;
    std::shared_ptr<LoopGateState> state_;
    const LaunchContext *launch_;
};

/** Loop/SWGR exit glue: decrements the shared work-item counter. */
class LoopExit : public Component
{
  public:
    LoopExit(const std::string &name, Channel<WiToken> *in,
             Channel<WiToken> *out, std::shared_ptr<LoopGateState> state)
        : Component(name), in_(in), out_(out), state_(std::move(state))
    {
        watch(in_);
        watch(out_);
    }

    void step(Cycle now) override;
    void describeBlockage(BlockageProbe &probe) const override;
    ComponentKind kind() const override { return ComponentKind::LoopGate; }
    bool holdsWork() const override { return in_->occupancy() > 0; }

  private:
    Channel<WiToken> *in_;
    Channel<WiToken> *out_;
    std::shared_ptr<LoopGateState> state_;
};

} // namespace soff::sim
