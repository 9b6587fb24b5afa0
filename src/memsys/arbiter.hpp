/**
 * @file
 * Round-robin memory arbiters (paper §V-A: "a round-robin arbiter
 * called a datapath-cache arbiter is inserted between the functional
 * units and the cache"; Fig. 9 also shows the cache-memory arbiter).
 *
 * Because the downstream device (cache or controller) responds strictly
 * in request order, the arbiter routes responses back by replaying its
 * grant order from a FIFO.
 */
#pragma once

#include "sim/forensics.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"
#include "support/strings.hpp"

namespace soff::memsys
{

/** N request/response port pairs multiplexed onto one downstream pair. */
class RRArbiter : public sim::Component
{
  public:
    RRArbiter(const std::string &name,
              sim::Channel<sim::MemReq> *down_req,
              sim::Channel<sim::MemResp> *down_resp)
        : Component(name), downReq_(down_req), downResp_(down_resp)
    {
        watchOut(downReq_);
        watchIn(downResp_);
    }

    /** Registers one upstream port; returns its index. */
    size_t
    addPort(sim::Channel<sim::MemReq> *req,
            sim::Channel<sim::MemResp> *resp)
    {
        watchIn(req);
        watchOut(resp);
        ports_.push_back({req, resp});
        return ports_.size() - 1;
    }

    void
    step(sim::Cycle) override
    {
        // Route the oldest response back to its originating port.
        if (downResp_->canPop() && !origins_.empty()) {
            Port &port = ports_[origins_.front()];
            if (port.resp->canPush()) {
                port.resp->push(downResp_->pop());
                origins_.pop_front();
            }
        }
        // Grant one request per cycle, round-robin.
        if (downReq_->canPush()) {
            for (size_t k = 0; k < ports_.size(); ++k) {
                size_t p = (rr_ + k) % ports_.size();
                if (ports_[p].req->canPop()) {
                    downReq_->push(ports_[p].req->pop());
                    origins_.push_back(p);
                    rr_ = (p + 1) % ports_.size();
                    break;
                }
            }
        }
    }

    sim::ComponentKind kind() const override
    {
        return sim::ComponentKind::Arbiter;
    }

    bool
    holdsWork() const override
    {
        if (!origins_.empty() || downResp_->occupancy() > 0)
            return true;
        for (const Port &port : ports_) {
            if (port.req->occupancy() > 0)
                return true;
        }
        return false;
    }

    void
    reset() override
    {
        origins_.clear();
        rr_ = 0;
    }

    void
    describeBlockage(sim::BlockageProbe &probe) const override
    {
        if (!origins_.empty()) {
            // In-order response routing: the oldest response must go
            // back to its origin before any younger one can move.
            std::string held = strFormat(
                "%zu response(s) owed, oldest to port %zu",
                origins_.size(), origins_.front());
            probe.waitPop(downResp_, held);
            probe.waitPush(ports_[origins_.front()].resp, held);
        }
        probe.waitPush(downReq_);
        for (const Port &port : ports_)
            probe.waitPop(port.req);
    }

  private:
    struct Port
    {
        sim::Channel<sim::MemReq> *req;
        sim::Channel<sim::MemResp> *resp;
    };

    sim::Channel<sim::MemReq> *downReq_;
    sim::Channel<sim::MemResp> *downResp_;
    std::vector<Port> ports_;
    sim::RingQueue<size_t> origins_;
    size_t rr_ = 0;
};

} // namespace soff::memsys
