/** @file Unit tests for the memory subsystem: demand-zero global
 *  memory (zero reads, written extent, copies, first difference),
 *  caches (hits, misses, write-back with byte-dirty merging, flush
 *  contents and timing at several line sizes, atomics), the
 *  round-robin arbiter's response routing, local memory banking, and
 *  lock tables. */
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "memsys/arbiter.hpp"
#include "memsys/cache.hpp"
#include "memsys/global_memory.hpp"
#include "memsys/local_block.hpp"
#include "memsys/locks.hpp"

namespace soff::memsys
{
namespace
{

using sim::Channel;
using sim::MemReq;
using sim::MemResp;

/** Line sizes the layout-sensitive cache tests run at: 128 bytes spans
 *  two 64-bit dirty-mask words, 32 bytes leaves one word half used. */
constexpr int kLineSizes[] = {32, 64, 128};

/** One 4 KiB cache over 64 KiB of memory. */
struct CacheRig
{
    sim::Simulator sim;
    GlobalMemory memory{1 << 16};
    DramTiming dram{40, 4};
    Channel<MemReq> *in;
    Channel<MemResp> *out;
    Cache *cache;

    explicit CacheRig(int line_bytes = 64)
    {
        in = sim.channel<MemReq>(8);
        out = sim.channel<MemResp>(8);
        cache = sim.add<Cache>("c", memory, dram, 4096, line_bytes, in,
                               out);
    }

    /** Drives the cache until one response arrives. */
    MemResp
    roundTrip(const MemReq &req, int max_cycles = 500)
    {
        in->push(req);
        for (int cycle = 0; cycle < max_cycles; ++cycle) {
            cache->step(static_cast<sim::Cycle>(cycle));
            in->commit();
            out->commit();
            if (out->canPop()) {
                MemResp resp = out->pop();
                out->commit();
                return resp;
            }
        }
        ADD_FAILURE() << "no response";
        return {};
    }
};

MemReq
loadReq(uint64_t addr, uint32_t size = 4)
{
    MemReq req;
    req.op = MemReq::Op::Load;
    req.addr = addr;
    req.size = size;
    return req;
}

MemReq
storeReq(uint64_t addr, uint64_t data, uint32_t size = 4)
{
    MemReq req;
    req.op = MemReq::Op::Store;
    req.addr = addr;
    req.size = size;
    req.data = data;
    return req;
}

// --- Global memory ------------------------------------------------------

TEST(GlobalMemory, FreshMemoryReadsZero)
{
    GlobalMemory memory(1 << 20);
    EXPECT_EQ(memory.readScalar(1, 1), 0u);
    EXPECT_EQ(memory.readScalar(memory.size() / 2, 8), 0u);
    EXPECT_EQ(memory.readScalar(memory.size() - 8, 8), 0u);
    EXPECT_EQ(memory.extent(), 0u);
}

TEST(GlobalMemory, OnlyWritesRaiseTheExtent)
{
    GlobalMemory memory(1 << 16);
    memory.writeScalar(100, 4, 7);
    EXPECT_EQ(memory.extent(), 104u);
    std::vector<uint8_t> block(32, 0xab);
    memory.writeBlock(1000, 32, block.data());
    EXPECT_EQ(memory.extent(), 1032u);
    memory.writeScalar(64, 8, 1);
    EXPECT_EQ(memory.extent(), 1032u) << "a lower write keeps the extent";

    EXPECT_EQ(memory.readScalar(5000, 8), 0u);
    memory.readBlock(6000, 32, block.data());
    EXPECT_EQ(memory.extent(), 1032u) << "reads leave the extent";
    EXPECT_THROW(memory.writeScalar(memory.size() - 4, 8, 1), MemoryFault);
    EXPECT_THROW(memory.writeScalar(0, 4, 1), MemoryFault);
    EXPECT_THROW(memory.writeBlock(memory.size() - 16, 32, block.data()),
                 MemoryFault);
    EXPECT_EQ(memory.extent(), 1032u) << "faulting writes leave the extent";
}

TEST(GlobalMemory, CopyMatchesByteForByte)
{
    GlobalMemory memory(1 << 16);
    memory.writeScalar(64, 4, 0xdeadbeef);
    memory.writeScalar(memory.size() - 8, 8, 0x0123456789abcdefull);
    GlobalMemory copy(memory);
    ASSERT_EQ(copy.size(), memory.size());
    EXPECT_EQ(copy.extent(), memory.extent());
    std::vector<uint8_t> a(memory.size()), b(memory.size());
    memory.readBlock(0, static_cast<uint32_t>(a.size()), a.data());
    copy.readBlock(0, static_cast<uint32_t>(b.size()), b.data());
    EXPECT_EQ(a, b);
    EXPECT_EQ(copy.readScalar(memory.size() - 8, 8), 0x0123456789abcdefull);
    EXPECT_EQ(memory.firstDifference(copy), std::nullopt);

    copy.writeScalar(5000, 1, 1);
    EXPECT_EQ(memory.firstDifference(copy), std::optional<uint64_t>(5000));
}

TEST(GlobalMemory, FirstDifferenceLooksPastTheShorterExtent)
{
    GlobalMemory a(1 << 16), b(1 << 16);
    a.writeScalar(64, 4, 5);
    b.writeScalar(64, 4, 5);
    b.writeScalar(40000, 1, 9);
    ASSERT_LT(a.extent(), 40000u);
    EXPECT_EQ(a.firstDifference(b), std::optional<uint64_t>(40000));
    EXPECT_EQ(b.firstDifference(a), std::optional<uint64_t>(40000));
}

TEST(GlobalMemory, WrittenZerosPastTheOtherExtentAreNoDifference)
{
    GlobalMemory a(1 << 16), b(1 << 16);
    a.writeScalar(64, 4, 5);
    b.writeScalar(64, 4, 5);
    std::vector<uint8_t> zeros(1000, 0);
    b.writeBlock(30000, static_cast<uint32_t>(zeros.size()), zeros.data());
    ASSERT_GT(b.extent(), a.extent());
    EXPECT_EQ(a.firstDifference(b), std::nullopt);
    EXPECT_EQ(b.firstDifference(a), std::nullopt);
}

TEST(GlobalMemory, ConcurrentWritersLeaveTheHighestExtent)
{
    // Launch workers write disjoint buffers of one device memory.
    constexpr uint64_t kSlice = 1 << 14;
    GlobalMemory memory(1 << 20);
    std::vector<std::thread> writers;
    for (uint64_t t = 0; t < 4; ++t) {
        writers.emplace_back([&memory, t] {
            uint64_t base = 64 + t * kSlice;
            for (uint64_t off = 0; off < kSlice; off += 8)
                memory.writeScalar(base + off, 8, base + off);
        });
    }
    for (std::thread &w : writers)
        w.join();
    EXPECT_EQ(memory.extent(), 64 + 4 * kSlice);
    for (uint64_t addr = 64; addr < 64 + 4 * kSlice; addr += 8)
        ASSERT_EQ(memory.readScalar(addr, 8), addr);
}

// --- Cache --------------------------------------------------------------

TEST(Cache, MissThenHit)
{
    CacheRig rig;
    rig.memory.writeScalar(256, 4, 0xdeadbeef);
    EXPECT_EQ(rig.roundTrip(loadReq(256)).data, 0xdeadbeefull);
    EXPECT_EQ(rig.cache->stats().misses, 1u);
    EXPECT_EQ(rig.roundTrip(loadReq(260)).data, 0u) << "same line";
    EXPECT_EQ(rig.cache->stats().hits, 1u);
}

TEST(Cache, RepeatedAccessHitRateNonZero)
{
    // The counter surfaced through RunResult/StatsReport: repeatedly
    // touching the same lines must produce a nonzero hit rate — one
    // compulsory miss per line, hits for everything after.
    CacheRig rig;
    for (int pass = 0; pass < 4; ++pass) {
        for (uint64_t addr = 0; addr < 512; addr += 64)
            rig.roundTrip(loadReq(addr));
    }
    const CacheStats &stats = rig.cache->stats();
    EXPECT_EQ(stats.misses, 8u) << "one compulsory miss per line";
    EXPECT_EQ(stats.hits, 24u) << "three hit passes over 8 lines";
    double lookups = static_cast<double>(stats.hits + stats.misses);
    EXPECT_GT(static_cast<double>(stats.hits) / lookups, 0.5);
}

/** A dirty line reaches memory when a conflicting fill evicts it. */
void
checkWriteBackOnEviction(int line_bytes)
{
    SCOPED_TRACE(testing::Message() << line_bytes << "-byte lines");
    CacheRig rig(line_bytes);
    uint64_t line = static_cast<uint64_t>(line_bytes);
    // First and last word of line 1: with 128-byte lines they sit in
    // different dirty-mask words.
    rig.roundTrip(storeReq(line, 77));
    rig.roundTrip(storeReq(2 * line - 4, 88));
    // Evict by touching the conflicting line (4096 bytes apart).
    rig.roundTrip(loadReq(line + 4096));
    EXPECT_EQ(rig.memory.readScalar(line, 4), 77u)
        << "dirty data must reach memory on eviction";
    EXPECT_EQ(rig.memory.readScalar(2 * line - 4, 4), 88u);
    EXPECT_EQ(rig.cache->stats().evictions, 1u)
        << "replacing a valid line counts as an eviction";
    EXPECT_EQ(rig.cache->stats().writebacks, 1u);
}

TEST(Cache, WriteBackOnEviction)
{
    for (int line_bytes : kLineSizes)
        checkWriteBackOnEviction(line_bytes);
}

/**
 * Dirties `lines` (indices into the cache), flushes, checks that each
 * reached memory with one write-back and one DRAM transfer, and returns
 * the steps until flushDone(). The flush contract: at most one
 * write-back per step in ascending line order, clean lines skipped
 * within the step.
 */
int
flushSteps(int line_bytes, const std::vector<int> &lines)
{
    CacheRig rig(line_bytes);
    // The line's last word: in the second mask word at 128 bytes.
    auto addrOf = [line_bytes](int index) {
        return static_cast<uint64_t>((index + 1) * line_bytes - 4);
    };
    for (int index : lines)
        rig.roundTrip(storeReq(addrOf(index), 1000 + index));
    uint64_t transfers = rig.dram.transfers();
    rig.cache->requestFlush();
    int steps = 0;
    while (!rig.cache->flushDone() && steps < 1000)
        rig.cache->step(static_cast<sim::Cycle>(1000 + steps++));
    EXPECT_EQ(rig.cache->stats().writebacks, lines.size());
    EXPECT_EQ(rig.dram.transfers() - transfers, lines.size());
    for (int index : lines) {
        EXPECT_EQ(rig.memory.readScalar(addrOf(index), 4),
                  static_cast<uint64_t>(1000 + index));
    }
    return steps;
}

TEST(Cache, FlushWritesAllDirtyLines)
{
    for (int line_bytes : kLineSizes) {
        SCOPED_TRACE(testing::Message() << line_bytes << "-byte lines");
        int last = 4096 / line_bytes - 1;
        EXPECT_EQ(flushSteps(line_bytes, {}), 1) << "one walk, no writes";
        EXPECT_EQ(flushSteps(line_bytes, {1, 5, 9}), 4)
            << "one write-back per step, then the clean tail";
        EXPECT_EQ(flushSteps(line_bytes, {1, last}), 2);
        EXPECT_EQ(flushSteps(line_bytes, {last}), 1)
            << "writing the last line completes the walk";
        EXPECT_EQ(flushSteps(line_bytes, {0}), 2);
    }
}

/**
 * Two caches over the same memory write adjacent words of the same
 * line (the per-datapath-instance scenario of §V-A); byte dirty masks
 * must merge, not clobber. The words straddle the line's midpoint,
 * which with 128-byte lines is the boundary between two mask words.
 */
void
checkByteDirtyMaskMerge(int line_bytes)
{
    SCOPED_TRACE(testing::Message() << line_bytes << "-byte lines");
    sim::Simulator sim;
    GlobalMemory memory(1 << 16);
    DramTiming dram(40, 4);
    auto *in1 = sim.channel<MemReq>(8);
    auto *out1 = sim.channel<MemResp>(8);
    auto *in2 = sim.channel<MemReq>(8);
    auto *out2 = sim.channel<MemResp>(8);
    Cache *c1 = sim.add<Cache>("c1", memory, dram, 4096, line_bytes, in1,
                               out1);
    Cache *c2 = sim.add<Cache>("c2", memory, dram, 4096, line_bytes, in2,
                               out2);
    auto drive = [&](Cache *cache, Channel<MemReq> *in,
                     Channel<MemResp> *out, const MemReq &req) {
        in->push(req);
        for (int cycle = 0; cycle < 500; ++cycle) {
            cache->step(static_cast<sim::Cycle>(cycle));
            in->commit();
            out->commit();
            if (out->canPop()) {
                out->pop();
                out->commit();
                return;
            }
        }
    };
    uint64_t mid = static_cast<uint64_t>(line_bytes + line_bytes / 2);
    drive(c1, in1, out1, storeReq(mid - 4, 0x1111)); // below the midpoint
    drive(c2, in2, out2, storeReq(mid, 0x2222));     // above, same line
    c1->requestFlush();
    c2->requestFlush();
    for (int cycle = 1000; cycle < 1400; ++cycle) {
        c1->step(static_cast<sim::Cycle>(cycle));
        c2->step(static_cast<sim::Cycle>(cycle));
    }
    EXPECT_EQ(memory.readScalar(mid - 4, 4), 0x1111u);
    EXPECT_EQ(memory.readScalar(mid, 4), 0x2222u);
}

TEST(Cache, ByteDirtyMaskMergesDisjointWrites)
{
    for (int line_bytes : kLineSizes)
        checkByteDirtyMaskMerge(line_bytes);
}

TEST(Cache, AtomicRmwReturnsOldValue)
{
    CacheRig rig;
    ir::TypeContext types;
    rig.memory.writeScalar(512, 4, 10);
    MemReq req;
    req.op = MemReq::Op::AtomicRMW;
    req.addr = 512;
    req.size = 4;
    req.data = 5;
    req.aop = ir::AtomicOp::Add;
    req.type = types.i32();
    EXPECT_EQ(rig.roundTrip(req).data, 10u);
    EXPECT_EQ(rig.roundTrip(loadReq(512)).data, 15u);
}

TEST(Cache, MissLatencyExceedsHitLatency)
{
    CacheRig rig;
    // Miss.
    rig.in->push(loadReq(1024));
    int miss_cycles = 0;
    for (;; ++miss_cycles) {
        rig.cache->step(static_cast<sim::Cycle>(miss_cycles));
        rig.in->commit();
        rig.out->commit();
        if (rig.out->canPop()) {
            rig.out->pop();
            rig.out->commit();
            break;
        }
        ASSERT_LT(miss_cycles, 500);
    }
    // Hit on the same line.
    rig.in->push(loadReq(1028));
    int hit_cycles = 0;
    for (;; ++hit_cycles) {
        rig.cache->step(static_cast<sim::Cycle>(miss_cycles + 1 +
                                                hit_cycles));
        rig.in->commit();
        rig.out->commit();
        if (rig.out->canPop())
            break;
        ASSERT_LT(hit_cycles, 500);
    }
    EXPECT_GT(miss_cycles, hit_cycles);
    EXPECT_GT(miss_cycles, 40) << "misses pay the DRAM latency";
}

// --- Arbiter ------------------------------------------------------------

TEST(Arbiter, RoutesResponsesToOriginInOrder)
{
    sim::Simulator sim;
    GlobalMemory memory(1 << 16);
    DramTiming dram(10, 1);
    auto *creq = sim.channel<MemReq>(4);
    auto *cresp = sim.channel<MemResp>(4);
    Cache *cache = sim.add<Cache>("c", memory, dram, 4096, 64,
                                  creq, cresp);
    auto *arb = sim.add<RRArbiter>("arb", creq, cresp);
    auto *req0 = sim.channel<MemReq>(4);
    auto *resp0 = sim.channel<MemResp>(8);
    auto *req1 = sim.channel<MemReq>(4);
    auto *resp1 = sim.channel<MemResp>(8);
    arb->addPort(req0, resp0);
    arb->addPort(req1, resp1);

    memory.writeScalar(64, 4, 100);
    memory.writeScalar(128, 4, 200);
    req0->push(loadReq(64));
    req1->push(loadReq(128));
    for (int cycle = 0; cycle < 500; ++cycle) {
        arb->step(static_cast<sim::Cycle>(cycle));
        cache->step(static_cast<sim::Cycle>(cycle));
        for (sim::ChannelBase *ch :
             std::initializer_list<sim::ChannelBase *>{
                 creq, cresp, req0, resp0, req1, resp1}) {
            ch->commit();
        }
    }
    ASSERT_TRUE(resp0->canPop());
    ASSERT_TRUE(resp1->canPop());
    EXPECT_EQ(resp0->pop().data, 100u) << "port 0 gets its own data";
    EXPECT_EQ(resp1->pop().data, 200u) << "port 1 gets its own data";
}

// --- Local memory block ---------------------------------------------------

TEST(LocalBlock, SlotsIsolateWorkGroups)
{
    sim::Simulator sim;
    auto *block = sim.add<LocalMemoryBlock>("lmem", 64, 2, 2);
    auto *req = sim.channel<MemReq>(4);
    auto *resp = sim.channel<MemResp>(8);
    block->addPort(req, resp);
    auto drive = [&](const MemReq &r) {
        req->push(r);
        for (int cycle = 0; cycle < 100; ++cycle) {
            block->step(static_cast<sim::Cycle>(cycle));
            req->commit();
            resp->commit();
            if (resp->canPop()) {
                MemResp out = resp->pop();
                resp->commit();
                return out;
            }
        }
        ADD_FAILURE() << "no response";
        return MemResp{};
    };
    MemReq w = storeReq(ir::localPtrEncode(0) + 8, 111);
    w.slot = 0;
    drive(w);
    MemReq r0 = loadReq(ir::localPtrEncode(0) + 8);
    r0.slot = 0;
    MemReq r1 = r0;
    r1.slot = 1;
    EXPECT_EQ(drive(r0).data, 111u);
    EXPECT_EQ(drive(r1).data, 0u) << "other work-group slot untouched";
}

TEST(LocalBlock, BankConflictsSerialize)
{
    sim::Simulator sim;
    auto *block = sim.add<LocalMemoryBlock>("lmem", 256, 2, 1);
    auto *req0 = sim.channel<MemReq>(4);
    auto *resp0 = sim.channel<MemResp>(8);
    auto *req1 = sim.channel<MemReq>(4);
    auto *resp1 = sim.channel<MemResp>(8);
    block->addPort(req0, resp0);
    block->addPort(req1, resp1);
    // Same bank: word addresses 0 and 2 with 2 banks -> bank 0.
    req0->push(loadReq(ir::localPtrEncode(0) + 0));
    req1->push(loadReq(ir::localPtrEncode(0) + 8));
    for (int cycle = 0; cycle < 50; ++cycle) {
        block->step(static_cast<sim::Cycle>(cycle));
        req0->commit();
        resp0->commit();
        req1->commit();
        resp1->commit();
    }
    EXPECT_GE(block->stats().bankConflicts, 1u);
    // Different banks: no new conflicts.
    uint64_t before = block->stats().bankConflicts;
    req0->push(loadReq(ir::localPtrEncode(0) + 0));
    req1->push(loadReq(ir::localPtrEncode(0) + 4));
    for (int cycle = 50; cycle < 100; ++cycle) {
        block->step(static_cast<sim::Cycle>(cycle));
        req0->commit();
        resp0->commit();
        req1->commit();
        resp1->commit();
    }
    EXPECT_EQ(block->stats().bankConflicts, before);
}

// --- Lock table --------------------------------------------------------------

TEST(Locks, SixteenLocksHashedByLineAddress)
{
    LockTable locks;
    int owner_a = 0, owner_b = 0;
    EXPECT_EQ(LockTable::lockIndex(0x40), 1);
    EXPECT_EQ(LockTable::lockIndex(0x40 + 16 * 64), 1)
        << "wraps at 16 lines (§IV-F2)";
    EXPECT_TRUE(locks.tryAcquire(3, &owner_a));
    EXPECT_FALSE(locks.tryAcquire(3, &owner_b)) << "contention";
    EXPECT_TRUE(locks.tryAcquire(4, &owner_b)) << "different lock";
    locks.release(3, &owner_b);
    EXPECT_FALSE(locks.tryAcquire(3, &owner_b))
        << "only the owner may release";
    locks.release(3, &owner_a);
    EXPECT_TRUE(locks.tryAcquire(3, &owner_b));
}

} // namespace
} // namespace soff::memsys
