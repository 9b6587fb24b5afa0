#include "memsys/cache.hpp"

#include "sim/forensics.hpp"
#include "support/strings.hpp"

namespace soff::memsys
{

Cache::Cache(const std::string &name, GlobalMemory &memory,
             DramTiming &dram, int size_bytes, int line_bytes,
             sim::Channel<sim::MemReq> *in,
             sim::Channel<sim::MemResp> *out)
    : Component(name), memory_(memory), dram_(dram),
      sizeBytes_(size_bytes), lineBytes_(line_bytes),
      numLines_(size_bytes / line_bytes), in_(in), out_(out),
      maskWords_(static_cast<size_t>(line_bytes + 63) / 64),
      data_(static_cast<size_t>(numLines_) *
            static_cast<size_t>(lineBytes_)),
      tags_(static_cast<size_t>(numLines_)),
      valid_(static_cast<size_t>(numLines_)),
      dirty_(static_cast<size_t>(numLines_) * maskWords_)
{
    watchIn(in_);
    watchOut(out_);
}

bool
Cache::lineDirty(uint64_t index) const
{
    const uint64_t *mask = dirty_.data() + index * maskWords_;
    uint64_t any = 0;
    for (size_t w = 0; w < maskWords_; ++w)
        any |= mask[w];
    return any != 0;
}

void
Cache::writebackLine(uint64_t index)
{
    uint64_t base = lineBase(index);
    const uint8_t *data = lineData(index);
    uint64_t *mask = lineMask(index);
    auto dirty = [mask](int b) { return (mask[b / 64] >> (b % 64)) & 1; };
    // One block write per maximal run of dirty bytes.
    for (int b = 0; b < lineBytes_;) {
        if (!dirty(b)) {
            ++b;
            continue;
        }
        int start = b;
        while (b < lineBytes_ && dirty(b))
            ++b;
        memory_.writeBlock(base + static_cast<uint64_t>(start),
                           static_cast<uint32_t>(b - start), data + start);
    }
    std::fill(mask, mask + maskWords_, 0);
    ++stats_.writebacks;
}

sim::Cycle
Cache::ensureLine(uint64_t addr, sim::Cycle now)
{
    uint64_t index = lineIndex(addr);
    if (resident(index, addr)) {
        ++stats_.hits;
        return now + static_cast<sim::Cycle>(hitLatency_);
    }
    ++stats_.misses;
    sim::Cycle ready = now;
    if (valid_[index] != 0) {
        ++stats_.evictions;
        if (lineDirty(index)) {
            writebackLine(index);
            ready = dram_.schedule(now); // writeback occupies the bus
        }
    }
    // Fill.
    valid_[index] = 1;
    tags_[index] = lineTag(addr);
    memory_.readBlock(lineBase(index), static_cast<uint32_t>(lineBytes_),
                      lineData(index));
    std::fill(lineMask(index), lineMask(index) + maskWords_, 0);
    ready = std::max(ready, dram_.schedule(now));
    return ready + static_cast<sim::Cycle>(hitLatency_);
}

uint64_t
Cache::performAccess(const sim::MemReq &req)
{
    uint64_t index = lineIndex(req.addr);
    SOFF_ASSERT(resident(index, req.addr),
                "performAccess on non-resident line");
    uint64_t offset = req.addr % static_cast<uint64_t>(lineBytes_);
    SOFF_ASSERT(offset + req.size <= static_cast<uint64_t>(lineBytes_),
                "access straddles a cache line");
    uint8_t *data = lineData(index) + offset;
    uint64_t *mask = lineMask(index);
    auto read = [&]() {
        uint64_t v = 0;
        for (uint32_t i = 0; i < req.size; ++i)
            v |= static_cast<uint64_t>(data[i]) << (8 * i);
        return v;
    };
    auto write = [&](uint64_t v) {
        for (uint32_t i = 0; i < req.size; ++i) {
            data[i] = static_cast<uint8_t>(v >> (8 * i));
            uint64_t b = offset + i;
            mask[b / 64] |= uint64_t{1} << (b % 64);
        }
    };
    switch (req.op) {
      case sim::MemReq::Op::Load:
        return read();
      case sim::MemReq::Op::Store:
        write(req.data);
        return 0;
      case sim::MemReq::Op::AtomicRMW: {
        ++stats_.atomics;
        uint64_t old_value = read();
        write(ir::evalAtomicOp(req.aop, req.type, old_value, req.data));
        return old_value;
      }
      case sim::MemReq::Op::AtomicCmpXchg: {
        ++stats_.atomics;
        uint64_t old_value = read();
        if (old_value == req.data)
            write(req.data2);
        return old_value;
      }
    }
    return 0;
}

void
Cache::step(sim::Cycle now)
{
    // Flush mode: walk the lines, one write-back slot per cycle. Flush
    // only starts once in-flight transactions have drained (the
    // work-item counter raises the flush signal after every work-item
    // has retired, so the queue is normally already empty).
    if (flushRequested_ && !flushComplete_ && txq_.empty()) {
        noteActivity();
        // The walk makes progress without channel traffic; it is
        // stepped every cycle in all modes (wakeAt below), so marking
        // the cycle busy here is deterministic.
        perfBusy(now);
        // At most one write-back per cycle, in ascending line order;
        // clean lines are skipped within the cycle.
        while (flushCursor_ < numLines_) {
            uint64_t index = static_cast<uint64_t>(flushCursor_++);
            if (lineDirty(index)) {
                writebackLine(index);
                dram_.schedule(now);
                break;
            }
        }
        if (flushCursor_ >= numLines_) {
            flushComplete_ = true;
            // Same-cycle for the counter (created after every cache),
            // exactly as its poll would observe in the reference sweep.
            wakeOther(flushListener_);
        } else {
            wakeAt(now + 1); // the walk continues next cycle
        }
        return;
    }

    // Respond strictly in order.
    if (!txq_.empty() && txq_.front().readyAt <= now && out_->canPush()) {
        out_->push({txq_.front().result});
        txq_.pop_front();
    }
    // Only a transaction still waiting on its (timed) memory latency
    // counts as activity; a response blocked on a full channel must
    // not mask a downstream deadlock from the watchdog.
    if (!txq_.empty() && txq_.front().readyAt > now) {
        noteActivity();
        wakeAt(txq_.front().readyAt);
    }

    // Single port: accept one request per cycle.
    if (in_->canPop() && txq_.size() < txqCap_) {
        Tx tx;
        tx.req = in_->pop();
        tx.readyAt = ensureLine(tx.req.addr, now);
        // Younger requests never complete before older ones.
        if (!txq_.empty())
            tx.readyAt = std::max(tx.readyAt, txq_.back().readyAt);
        tx.result = performAccess(tx.req);
        txq_.push_back(tx);
    }
}

void
Cache::requestFlush(sim::Component *listener)
{
    flushRequested_ = true;
    flushListener_ = listener;
}

void
Cache::describeBlockage(sim::BlockageProbe &probe) const
{
    std::string held = strFormat("%zu/%zu transaction(s) queued",
                                 txq_.size(), txqCap_);
    if (!txq_.empty()) {
        held += strFormat(", oldest ready at cycle %llu",
                          static_cast<unsigned long long>(
                              txq_.front().readyAt));
        probe.waitPush(out_, held);
    }
    if (txq_.size() < txqCap_)
        probe.waitPop(in_, held);
    if (flushRequested_ && !flushComplete_) {
        probe.note(strFormat("flushing dirty lines (%d/%d walked)",
                             flushCursor_, numLines_));
    }
}

} // namespace soff::memsys
