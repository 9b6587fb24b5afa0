/**
 * @file
 * Local memory blocks (paper §V-B, Fig. 10).
 *
 * One block per __local variable. A block has 2^ceil(log2 N) banks for
 * its N connected functional units; the low bits of the word address
 * select the bank, and bank conflicts serialize. The block stores the
 * variable for several concurrent work-groups ("SOFF makes every local
 * memory block store the variable of ceil(L_Datapath/256) different
 * work-groups at the same time"); the request's slot field selects the
 * copy.
 */
#pragma once

#include <vector>

#include "ir/eval.hpp"
#include "memsys/global_memory.hpp"
#include "sim/forensics.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"

namespace soff::memsys
{

/** Statistics for one local memory block. */
struct LocalBlockStats
{
    uint64_t accesses = 0;
    uint64_t bankConflicts = 0;
};

/** Banked on-chip memory for one __local variable. */
class LocalMemoryBlock : public sim::Component
{
  public:
    LocalMemoryBlock(const std::string &name, uint64_t var_bytes,
                     int num_banks, int num_slots)
        : Component(name), varBytes_(var_bytes), numBanks_(num_banks),
          storage_(static_cast<size_t>(num_slots),
                   std::vector<uint8_t>(var_bytes, 0))
    {}

    /** Registers one functional-unit port; returns its index. */
    size_t
    addPort(sim::Channel<sim::MemReq> *req,
            sim::Channel<sim::MemResp> *resp)
    {
        watchIn(req);
        watchOut(resp);
        ports_.push_back({req, resp, {}});
        return ports_.size() - 1;
    }

    void
    step(sim::Cycle now) override
    {
        // Deliver ready responses, per port, in port order.
        for (Port &port : ports_) {
            if (!port.pending.empty() &&
                port.pending.front().first <= now &&
                port.resp->canPush()) {
                port.resp->push(port.pending.front().second);
                port.pending.pop_front();
            }
        }
        // Bank arbitration: each bank serves at most one port per
        // cycle. The round-robin start is derived from the cycle
        // number (not a per-step counter) so skipped idle cycles
        // cannot shift the rotation.
        bankBusy_.assign(static_cast<size_t>(numBanks_), 0);
        portServed_.assign(ports_.size(), 0);
        size_t rr = ports_.empty()
                        ? 0
                        : static_cast<size_t>(
                              now % static_cast<sim::Cycle>(
                                        ports_.size()));
        for (size_t k = 0; k < ports_.size(); ++k) {
            size_t p = (rr + k) % ports_.size();
            Port &port = ports_[p];
            if (!port.req->canPop() || portServed_[p] != 0)
                continue;
            const sim::MemReq &req = port.req->peek();
            size_t bank = static_cast<size_t>(
                (req.addr / 4) % static_cast<uint64_t>(numBanks_));
            if (bankBusy_[bank] != 0) {
                ++stats_.bankConflicts;
                continue;
            }
            bankBusy_[bank] = 1;
            portServed_[p] = 1;
            sim::MemReq r = port.req->pop();
            uint64_t result = access(r);
            port.pending.push_back(
                {now + static_cast<sim::Cycle>(latency_), {result}});
            ++stats_.accesses;
        }
        // Pending responses maturing later are purely internal time.
        bool timed = false;
        sim::Cycle nearest = 0;
        for (Port &port : ports_) {
            if (!port.pending.empty() &&
                port.pending.front().first > now) {
                if (!timed || port.pending.front().first < nearest)
                    nearest = port.pending.front().first;
                timed = true;
            }
        }
        if (timed) {
            noteActivity();
            wakeAt(nearest);
        }
    }

    void
    describeBlockage(sim::BlockageProbe &probe) const override
    {
        for (const Port &port : ports_) {
            if (!port.pending.empty())
                probe.waitPush(port.resp, "matured response waiting");
            probe.waitPop(port.req);
        }
    }

    sim::ComponentKind kind() const override
    {
        return sim::ComponentKind::LocalMemory;
    }

    bool
    holdsWork() const override
    {
        for (const Port &port : ports_) {
            if (!port.pending.empty() || port.req->occupancy() > 0)
                return true;
        }
        return false;
    }

    const LocalBlockStats &stats() const { return stats_; }

    /** Fresh-launch reset: zeroes every slot copy and drops pendings. */
    void
    reset() override
    {
        for (std::vector<uint8_t> &slot : storage_)
            std::fill(slot.begin(), slot.end(), 0);
        for (Port &port : ports_)
            port.pending.clear();
        stats_ = LocalBlockStats{};
    }

  private:
    uint64_t
    access(const sim::MemReq &req)
    {
        std::vector<uint8_t> &mem =
            storage_[req.slot % storage_.size()];
        uint64_t addr = ir::localPtrOffset(req.addr);
        if (addr + req.size > varBytes_)
            throw MemoryFault(req.addr, req.size);
        auto read = [&]() {
            uint64_t v = 0;
            for (uint32_t i = 0; i < req.size; ++i)
                v |= static_cast<uint64_t>(mem[addr + i]) << (8 * i);
            return v;
        };
        auto write = [&](uint64_t v) {
            for (uint32_t i = 0; i < req.size; ++i)
                mem[addr + i] = static_cast<uint8_t>(v >> (8 * i));
        };
        switch (req.op) {
          case sim::MemReq::Op::Load:
            return read();
          case sim::MemReq::Op::Store:
            write(req.data);
            return 0;
          case sim::MemReq::Op::AtomicRMW: {
            uint64_t old_value = read();
            write(ir::evalAtomicOp(req.aop, req.type, old_value,
                                   req.data));
            return old_value;
          }
          case sim::MemReq::Op::AtomicCmpXchg: {
            uint64_t old_value = read();
            if (old_value == req.data)
                write(req.data2);
            return old_value;
          }
        }
        return 0;
    }

    struct Port
    {
        sim::Channel<sim::MemReq> *req;
        sim::Channel<sim::MemResp> *resp;
        sim::RingQueue<std::pair<sim::Cycle, sim::MemResp>> pending;
    };

    uint64_t varBytes_;
    int numBanks_;
    int latency_ = 2;
    std::vector<std::vector<uint8_t>> storage_;
    std::vector<Port> ports_;
    LocalBlockStats stats_;
    /** Per-step scratch (members so steady-state steps never allocate). */
    std::vector<uint8_t> bankBusy_;
    std::vector<uint8_t> portServed_;
};

} // namespace soff::memsys
