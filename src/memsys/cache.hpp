/**
 * @file
 * Direct-mapped, single-port, non-blocking in-order caches (paper §V-A).
 *
 * "The caches are non-blocking in-order caches and thus can cooperate
 * with (fully-pipelined) functional units well. SOFF uses simple
 * direct-mapped, single-port caches." One request is accepted per cycle
 * (single port); responses are delivered strictly in request order;
 * misses overlap with younger requests in the transaction queue.
 *
 * Lines carry per-byte dirty masks, so concurrent unsynchronized caches
 * of the same buffer (one per datapath instance, §V-A) merge disjoint
 * writes correctly at write-back/flush time — the hardware equivalent
 * of byte-enable writes.
 *
 * Storage is flat (DESIGN.md "Data-oriented core"): one data block of
 * numLines × lineBytes bytes, a tag and a valid array, and per-line
 * dirty masks of ceil(lineBytes / 64) words. Dirty and eviction checks
 * test whole mask words, so the kernel-end flush walk costs a few word
 * tests per line plus copies of the dirty bytes.
 */
#pragma once

#include <algorithm>
#include <vector>

#include "ir/eval.hpp"
#include "memsys/dram.hpp"
#include "memsys/global_memory.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"

namespace soff::memsys
{

/** Cache statistics (benchmark reporting). */
struct CacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0; ///< Valid lines replaced by a fill.
    uint64_t writebacks = 0;
    uint64_t atomics = 0;
};

/** One direct-mapped write-back cache for the OpenCL global memory. */
class Cache : public sim::Component
{
  public:
    Cache(const std::string &name, GlobalMemory &memory,
          DramTiming &dram, int size_bytes, int line_bytes,
          sim::Channel<sim::MemReq> *in,
          sim::Channel<sim::MemResp> *out);

    void step(sim::Cycle now) override;
    void describeBlockage(sim::BlockageProbe &probe) const override;
    sim::ComponentKind kind() const override
    {
        return sim::ComponentKind::Cache;
    }
    bool
    holdsWork() const override
    {
        return in_->occupancy() > 0 || !txq_.empty() ||
               (flushRequested_ && !flushComplete_);
    }

    /**
     * Begins writing all dirty lines back (kernel completion, §III-B).
     * `listener` (if any) is woken when the flush completes — the
     * flush-done flag is not channel traffic the work-item counter
     * could otherwise observe.
     */
    void requestFlush(sim::Component *listener = nullptr);
    bool flushDone() const { return flushRequested_ && flushComplete_; }

    const CacheStats &stats() const { return stats_; }

    /** Fresh-launch reset: invalidates every line (keeping the line
     *  storage allocated), drops queued transactions and flush state. */
    void
    reset() override
    {
        std::fill(valid_.begin(), valid_.end(), 0);
        std::fill(tags_.begin(), tags_.end(), 0);
        std::fill(dirty_.begin(), dirty_.end(), 0);
        txq_.clear();
        stats_ = CacheStats{};
        flushRequested_ = false;
        flushComplete_ = false;
        flushCursor_ = 0;
        flushListener_ = nullptr;
    }

  private:
    struct Tx
    {
        sim::MemReq req;
        sim::Cycle readyAt = 0;
        uint64_t result = 0;
    };

    uint64_t lineIndex(uint64_t addr) const
    {
        return (addr / static_cast<uint64_t>(lineBytes_)) %
               static_cast<uint64_t>(numLines_);
    }
    uint64_t lineTag(uint64_t addr) const
    {
        return addr / static_cast<uint64_t>(lineBytes_) /
               static_cast<uint64_t>(numLines_);
    }
    uint64_t
    lineBase(uint64_t index) const
    {
        return (tags_[index] * static_cast<uint64_t>(numLines_) + index) *
               static_cast<uint64_t>(lineBytes_);
    }
    uint8_t *lineData(uint64_t index)
    {
        return data_.data() + index * static_cast<uint64_t>(lineBytes_);
    }
    uint64_t *lineMask(uint64_t index)
    {
        return dirty_.data() + index * maskWords_;
    }
    bool resident(uint64_t index, uint64_t addr) const
    {
        return valid_[index] != 0 && tags_[index] == lineTag(addr);
    }
    bool lineDirty(uint64_t index) const;

    /** Ensures the line holding addr is resident; returns ready cycle. */
    sim::Cycle ensureLine(uint64_t addr, sim::Cycle now);
    void writebackLine(uint64_t index);
    uint64_t performAccess(const sim::MemReq &req);

    GlobalMemory &memory_;
    DramTiming &dram_;
    int sizeBytes_;
    int lineBytes_;
    int numLines_;
    int hitLatency_ = 2;
    sim::Channel<sim::MemReq> *in_;
    sim::Channel<sim::MemResp> *out_;
    size_t maskWords_; ///< Dirty-mask words per line (1 bit per byte).
    std::vector<uint8_t> data_;   ///< numLines_ × lineBytes_ bytes.
    std::vector<uint64_t> tags_;  ///< Per line.
    std::vector<uint8_t> valid_;  ///< Per line.
    std::vector<uint64_t> dirty_; ///< numLines_ × maskWords_ words.
    sim::RingQueue<Tx> txq_;
    size_t txqCap_ = 16;
    CacheStats stats_;

    bool flushRequested_ = false;
    bool flushComplete_ = false;
    int flushCursor_ = 0;
    sim::Component *flushListener_ = nullptr;
};

} // namespace soff::memsys
