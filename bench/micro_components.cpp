/**
 * @file
 * google-benchmark microbenchmarks of the core components: compiler
 * throughput, handshake channel, arena channel, commit sweep, wake
 * propagation, interpreter, and one full circuit simulation. These
 * guard against performance regressions in the simulator itself
 * (host-side speed, not modeled cycles).
 *
 * The custom main() additionally runs an allocation guard before the
 * benchmarks: a steady-state simulation pass over a hand-built
 * producer/consumer circuit (including a WiToken channel with inline
 * live values) must perform ZERO heap allocations, constructing a cache
 * must cost the same few allocations at any line count, and a warmed
 * cache's reset, stores and flush must allocate nothing. Global
 * operator new/delete are replaced with counting wrappers for this
 * binary.
 * `micro_components --alloc-guard-only` runs just the guard (CI).
 */
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "baseline/interpreter.hpp"
#include "benchsuite/suite.hpp"
#include "core/compiler.hpp"
#include "memsys/cache.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"
#include "sim/specialize.hpp"

// ----------------------------------------------------------------------
// Counting global allocator (alloc-free steady-state guard).
// ----------------------------------------------------------------------
namespace
{
std::atomic<uint64_t> g_heapAllocs{0};
}

void *
operator new(std::size_t n)
{
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(n ? n : 1);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t align)
{
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    void *p = std::aligned_alloc(static_cast<std::size_t>(align),
                                 (n + static_cast<std::size_t>(align) -
                                  1) &
                                     ~(static_cast<std::size_t>(align) -
                                       1));
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t n, std::align_val_t align)
{
    return ::operator new(n, align);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace
{

const char *kVaddSource = R"CL(
__kernel void vadd(__global float* A, __global float* B,
                   __global float* C) {
  int i = get_global_id(0);
  C[i] = A[i] + B[i];
}
)CL";

void
BM_CompileVadd(benchmark::State &state)
{
    soff::core::Compiler compiler;
    for (auto _ : state) {
        auto program = compiler.compile(kVaddSource);
        benchmark::DoNotOptimize(program);
    }
}
BENCHMARK(BM_CompileVadd);

void
BM_CompileSuiteApp(benchmark::State &state)
{
    const auto *app = soff::benchsuite::findApp("123.nw");
    soff::core::Compiler compiler;
    for (auto _ : state) {
        auto program = compiler.compile(app->source);
        benchmark::DoNotOptimize(program);
    }
}
BENCHMARK(BM_CompileSuiteApp);

void
BM_ChannelPushPop(benchmark::State &state)
{
    soff::sim::Channel<uint64_t> channel(2);
    uint64_t v = 0;
    for (auto _ : state) {
        channel.push(v++);
        channel.commit();
        benchmark::DoNotOptimize(channel.pop());
        channel.commit();
    }
}
BENCHMARK(BM_ChannelPushPop);

void
BM_ArenaChannelPushPop(benchmark::State &state)
{
    // Same protocol as BM_ChannelPushPop but through a circuit-arena
    // channel: the ring lives in the simulator slab next to its peers.
    soff::sim::Simulator simulator;
    soff::sim::Channel<uint64_t> *channel =
        simulator.channel<uint64_t>(2);
    uint64_t v = 0;
    for (auto _ : state) {
        channel->push(v++);
        channel->commit();
        benchmark::DoNotOptimize(channel->pop());
        channel->commit();
    }
}
BENCHMARK(BM_ArenaChannelPushPop);

void
BM_TokenChannelPushPop(benchmark::State &state)
{
    // WiToken payloads with <= 4 live values stay inline (SmallVec), so
    // moving a token through a channel must not touch the heap.
    soff::sim::Channel<soff::sim::WiToken> channel(2);
    uint64_t v = 0;
    for (auto _ : state) {
        soff::sim::WiToken token;
        token.wi = v++;
        for (int k = 0; k < 4; ++k)
            token.live.push_back(soff::ir::RtValue::makeInt(v + k));
        channel.push(std::move(token));
        channel.commit();
        benchmark::DoNotOptimize(channel.pop());
        channel.commit();
    }
}
BENCHMARK(BM_TokenChannelPushPop);

void
BM_CommitSweep(benchmark::State &state)
{
    // The per-cycle commit path over many arena channels: bookkeeping
    // only (non-virtual, no token access), laid out in creation order.
    soff::sim::Simulator simulator;
    std::vector<soff::sim::Channel<uint64_t> *> channels;
    for (int i = 0; i < state.range(0); ++i)
        channels.push_back(simulator.channel<uint64_t>(2));
    uint64_t v = 0;
    for (auto _ : state) {
        for (auto *ch : channels)
            ch->push(v++);
        for (auto *ch : channels)
            benchmark::DoNotOptimize(ch->commit());
        for (auto *ch : channels)
            benchmark::DoNotOptimize(ch->pop());
        for (auto *ch : channels)
            benchmark::DoNotOptimize(ch->commit());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CommitSweep)->Arg(64)->Arg(1024);

/** Forwards tokens down a chain (wake-propagation microbench). */
class Forwarder : public soff::sim::Component
{
  public:
    Forwarder(soff::sim::Channel<uint64_t> *in,
              soff::sim::Channel<uint64_t> *out)
        : Component("fwd"), in_(in), out_(out)
    {
        watch(in_);
        watch(out_);
    }
    void
    step(soff::sim::Cycle) override
    {
        if (in_->canPop() && out_->canPush())
            out_->push(in_->pop());
    }
    soff::sim::ComponentKind kind() const override
    {
        return soff::sim::ComponentKind::Compute;
    }
    bool holdsWork() const override { return in_->occupancy() > 0; }

  private:
    soff::sim::Channel<uint64_t> *in_;
    soff::sim::Channel<uint64_t> *out_;
};

/** Head of the chain. */
class ChainSource : public soff::sim::Component
{
  public:
    ChainSource(soff::sim::Channel<uint64_t> *out, uint64_t n)
        : Component("chainsrc"), out_(out), n_(n)
    {
        watch(out_);
    }
    void
    step(soff::sim::Cycle) override
    {
        if (sent_ < n_ && out_->canPush())
            out_->push(sent_++);
    }
    soff::sim::ComponentKind kind() const override
    {
        return soff::sim::ComponentKind::Source;
    }
    bool holdsWork() const override { return sent_ < n_; }
    void reset() override { sent_ = 0; }

  private:
    soff::sim::Channel<uint64_t> *out_;
    uint64_t n_;
    uint64_t sent_ = 0;
};

/** Tail of the chain: completion flag for Simulator::run. */
class ChainSink : public soff::sim::Component
{
  public:
    ChainSink(soff::sim::Channel<uint64_t> *in, uint64_t n)
        : Component("chainsink"), in_(in), n_(n)
    {
        watch(in_);
    }
    void
    step(soff::sim::Cycle) override
    {
        if (in_->canPop()) {
            sum_ += in_->pop();
            ++got_;
        }
        done_ = got_ >= n_;
    }
    soff::sim::ComponentKind kind() const override
    {
        return soff::sim::ComponentKind::Sink;
    }
    bool holdsWork() const override { return in_->occupancy() > 0; }
    void
    reset() override
    {
        got_ = 0;
        sum_ = 0;
        done_ = false;
    }
    const bool *doneFlag() const { return &done_; }
    uint64_t sum() const { return sum_; }

  private:
    soff::sim::Channel<uint64_t> *in_;
    uint64_t n_;
    uint64_t got_ = 0;
    uint64_t sum_ = 0;
    bool done_ = false;
};

void
runChainBench(benchmark::State &state, soff::sim::SchedulerMode mode)
{
    const int depth = static_cast<int>(state.range(0));
    constexpr uint64_t kTokens = 256;
    soff::sim::Simulator simulator(mode);
    std::vector<soff::sim::Channel<uint64_t> *> links;
    for (int i = 0; i <= depth; ++i)
        links.push_back(simulator.channel<uint64_t>(2));
    simulator.add<ChainSource>(links.front(), kTokens);
    for (int i = 0; i < depth; ++i)
        simulator.add<Forwarder>(links[static_cast<size_t>(i)],
                                 links[static_cast<size_t>(i) + 1]);
    ChainSink *sink =
        simulator.add<ChainSink>(links.back(), kTokens);
    bool first = true;
    for (auto _ : state) {
        if (!first)
            simulator.resetForRerun();
        first = false;
        auto result = simulator.run(sink->doneFlag(), 1000000, 10000);
        if (!result.completed)
            state.SkipWithError("chain did not complete");
        benchmark::DoNotOptimize(sink->sum());
    }
    if (mode == soff::sim::SchedulerMode::Compiled &&
        simulator.compiledPlan() == nullptr)
        state.SkipWithError("compiled plan was not built");
    state.SetItemsProcessed(state.iterations() * kTokens *
                            static_cast<uint64_t>(depth));
}

void
BM_WakePropagation(benchmark::State &state)
{
    // Event-driven wake-list propagation through a pipeline chain:
    // tokens ripple across `depth` components; each commit wakes only
    // the two endpoints via the flat watcher spans.
    runChainBench(state, soff::sim::SchedulerMode::EventDriven);
}
BENCHMARK(BM_WakePropagation)->Arg(16)->Arg(128);

void
BM_CompiledSweep(benchmark::State &state)
{
    // The same chain under the compiled plan: commits drop member
    // wakes straight into their buckets (no next-list round trip or
    // per-cycle wake-list sort), and each bucket steps in one call.
    // Compare against BM_WakePropagation at equal depth for the plan's
    // win on the scheduler machinery alone.
    runChainBench(state, soff::sim::SchedulerMode::Compiled);
}
BENCHMARK(BM_CompiledSweep)->Arg(16)->Arg(128);

void
BM_BatchedStep(benchmark::State &state)
{
    // `lanes` identical pipeline chains on one simulator: each
    // component type's bucket holds that type's components from all
    // `lanes` chains, and one stepMany call steps all awake replicas
    // of a bucket.
    const int lanes = static_cast<int>(state.range(0));
    constexpr int kDepth = 16;
    constexpr uint64_t kTokens = 256;
    soff::sim::Simulator simulator(soff::sim::SchedulerMode::Compiled);
    std::vector<ChainSink *> sinks;
    for (int lane = 0; lane < lanes; ++lane) {
        std::vector<soff::sim::Channel<uint64_t> *> links;
        for (int i = 0; i <= kDepth; ++i)
            links.push_back(simulator.channel<uint64_t>(2));
        simulator.add<ChainSource>(links.front(), kTokens);
        for (int i = 0; i < kDepth; ++i)
            simulator.add<Forwarder>(links[static_cast<size_t>(i)],
                                     links[static_cast<size_t>(i) + 1]);
        sinks.push_back(
            simulator.add<ChainSink>(links.back(), kTokens));
    }
    bool first = true;
    for (auto _ : state) {
        if (!first)
            simulator.resetForRerun();
        first = false;
        for (ChainSink *sink : sinks) {
            auto result =
                simulator.run(sink->doneFlag(), 1000000, 10000);
            if (!result.completed)
                state.SkipWithError("replica chains did not complete");
        }
        for (ChainSink *sink : sinks)
            benchmark::DoNotOptimize(sink->sum());
    }
    if (simulator.compiledPlan() == nullptr)
        state.SkipWithError("compiled plan was not built");
    state.SetItemsProcessed(state.iterations() * kTokens *
                            static_cast<uint64_t>(kDepth) *
                            static_cast<uint64_t>(lanes));
}
BENCHMARK(BM_BatchedStep)->Arg(8)->Arg(64);

void
BM_InterpreterVadd(benchmark::State &state)
{
    soff::core::Compiler compiler;
    auto program = compiler.compile(kVaddSource);
    soff::memsys::GlobalMemory memory(1 << 20);
    soff::sim::LaunchContext launch;
    launch.ndrange.globalSize[0] = static_cast<uint64_t>(state.range(0));
    launch.ndrange.localSize[0] = 64;
    const auto &kernel = *program->kernels[0].kernel;
    launch.args[kernel.argument(0)] = soff::ir::RtValue::makeInt(64);
    launch.args[kernel.argument(1)] = soff::ir::RtValue::makeInt(16448);
    launch.args[kernel.argument(2)] = soff::ir::RtValue::makeInt(32832);
    for (auto _ : state) {
        soff::baseline::Interpreter interp(memory);
        interp.run(kernel, launch);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InterpreterVadd)->Arg(256)->Arg(4096);

void
BM_CircuitSimVadd(benchmark::State &state)
{
    soff::benchsuite::BenchContext probe(
        soff::benchsuite::Engine::SoffSim);
    for (auto _ : state) {
        soff::benchsuite::BenchContext ctx(
            soff::benchsuite::Engine::SoffSim);
        ctx.setInstanceOverride(static_cast<int>(state.range(0)));
        const auto *app = soff::benchsuite::findApp("103.stencil");
        bool ok = soff::benchsuite::runApp(*app, ctx);
        benchmark::DoNotOptimize(ok);
    }
}
BENCHMARK(BM_CircuitSimVadd)->Arg(1)->Arg(4)->Unit(
    benchmark::kMillisecond);

// ----------------------------------------------------------------------
// Allocation guard: the steady-state per-cycle path must not allocate.
// ----------------------------------------------------------------------

/** Emits WiTokens with 4 inline live values. */
class TokenSource : public soff::sim::Component
{
  public:
    TokenSource(soff::sim::Channel<soff::sim::WiToken> *out, uint64_t n)
        : Component("tokensrc"), out_(out), n_(n)
    {
        watch(out_);
    }
    void
    step(soff::sim::Cycle) override
    {
        if (sent_ < n_ && out_->canPush()) {
            soff::sim::WiToken token;
            token.wi = sent_;
            for (int k = 0; k < 4; ++k) {
                token.live.push_back(
                    soff::ir::RtValue::makeInt(sent_ + static_cast<uint64_t>(k)));
            }
            out_->push(std::move(token));
            ++sent_;
        }
    }
    soff::sim::ComponentKind kind() const override
    {
        return soff::sim::ComponentKind::Source;
    }
    bool holdsWork() const override { return sent_ < n_; }
    void reset() override { sent_ = 0; }

  private:
    soff::sim::Channel<soff::sim::WiToken> *out_;
    uint64_t n_;
    uint64_t sent_ = 0;
};

/** Consumes WiTokens; completion flag for Simulator::run. */
class TokenSink : public soff::sim::Component
{
  public:
    TokenSink(soff::sim::Channel<soff::sim::WiToken> *in, uint64_t n)
        : Component("tokensink"), in_(in), n_(n)
    {
        watch(in_);
    }
    void
    step(soff::sim::Cycle) override
    {
        if (in_->canPop()) {
            soff::sim::WiToken token = in_->pop();
            sum_ += token.wi + token.live.at(0).i;
            ++got_;
        }
        done_ = got_ >= n_;
    }
    soff::sim::ComponentKind kind() const override
    {
        return soff::sim::ComponentKind::Sink;
    }
    bool holdsWork() const override { return in_->occupancy() > 0; }
    void
    reset() override
    {
        got_ = 0;
        sum_ = 0;
        done_ = false;
    }
    const bool *doneFlag() const { return &done_; }
    uint64_t sum() const { return sum_; }

  private:
    soff::sim::Channel<soff::sim::WiToken> *in_;
    uint64_t n_;
    uint64_t got_ = 0;
    uint64_t sum_ = 0;
    bool done_ = false;
};

/**
 * Builds a producer -> forwarder -> consumer circuit moving WiToken
 * payloads, runs it once to let every pool reach its high-water mark
 * (wake lists, dirty lists, channel rings), then reruns it counting
 * global allocations. The steady-state pass must allocate NOTHING:
 * components use member scratch, channels own fixed rings, tokens keep
 * their live values inline, and the scheduler reuses its lists.
 */
int
runAllocGuard(soff::sim::SchedulerMode mode)
{
    using namespace soff::sim;
    constexpr uint64_t kTokens = 2048;
    Simulator simulator(mode);
    auto *a = simulator.channel<WiToken>(2);
    auto *b = simulator.channel<WiToken>(4);
    simulator.add<TokenSource>(a, kTokens);
    // A WiToken forwarder between two channels (moves, never copies).
    class TokenForwarder : public Component
    {
      public:
        TokenForwarder(Channel<WiToken> *in, Channel<WiToken> *out)
            : Component("tokenfwd"), in_(in), out_(out)
        {
            watch(in_);
            watch(out_);
        }
        void
        step(Cycle) override
        {
            if (in_->canPop() && out_->canPush())
                out_->push(in_->pop());
        }
        ComponentKind kind() const override
        {
            return ComponentKind::Compute;
        }
        bool holdsWork() const override { return in_->occupancy() > 0; }

      private:
        Channel<WiToken> *in_;
        Channel<WiToken> *out_;
    };
    simulator.add<TokenForwarder>(a, b);
    TokenSink *sink = simulator.add<TokenSink>(b, kTokens);

    // Warmup: first run grows every internal pool to steady size.
    auto warm = simulator.run(sink->doneFlag(), 1000000, 10000);
    if (!warm.completed) {
        std::fprintf(stderr, "alloc guard: warmup run did not "
                             "complete\n");
        return 1;
    }
    uint64_t warm_sum = sink->sum();
    if (mode == SchedulerMode::Compiled &&
        (simulator.compiledPlan() == nullptr ||
         simulator.compiledPlan()->laneComp.empty())) {
        std::fprintf(stderr, "alloc guard: no compiled plan with members "
                             "-- the plan's sweep was not exercised\n");
        return 1;
    }

    simulator.resetForRerun();
    uint64_t before = g_heapAllocs.load(std::memory_order_relaxed);
    auto steady = simulator.run(sink->doneFlag(), 1000000, 10000);
    uint64_t allocs =
        g_heapAllocs.load(std::memory_order_relaxed) - before;
    if (!steady.completed || sink->sum() != warm_sum) {
        std::fprintf(stderr, "alloc guard: steady-state rerun diverged "
                             "from the warmup run\n");
        return 1;
    }
    if (allocs != 0) {
        std::fprintf(stderr,
                     "alloc guard FAILED: %llu heap allocation(s) in "
                     "the steady-state per-cycle path (%llu cycles, "
                     "%llu tokens); the hot loop must not allocate\n",
                     static_cast<unsigned long long>(allocs),
                     static_cast<unsigned long long>(steady.cycles),
                     static_cast<unsigned long long>(kTokens));
        return 1;
    }
    std::printf("alloc guard [%s]: 0 heap allocations across %llu "
                "steady-state cycles (%llu WiTokens moved)\n",
                schedulerModeName(mode),
                static_cast<unsigned long long>(steady.cycles),
                static_cast<unsigned long long>(kTokens));
    return 0;
}

/** Streams stores into a cache, then flushes it like the work-item
 *  counter does at kernel completion. */
class StoreFlushClient : public soff::sim::Component
{
  public:
    StoreFlushClient(soff::sim::Channel<soff::sim::MemReq> *req,
                     soff::sim::Channel<soff::sim::MemResp> *resp,
                     soff::memsys::Cache *cache, uint64_t stores)
        : Component("storeclient"), req_(req), resp_(resp), cache_(cache),
          stores_(stores)
    {
        watch(req_);
        watch(resp_);
    }
    void
    step(soff::sim::Cycle) override
    {
        if (sent_ < stores_ && req_->canPush()) {
            soff::sim::MemReq r;
            r.op = soff::sim::MemReq::Op::Store;
            r.addr = 64 + sent_ * 200; // wraps the cache: some evictions
            r.size = 4;
            r.data = sent_;
            req_->push(r);
            ++sent_;
        }
        if (resp_->canPop()) {
            resp_->pop();
            ++acked_;
        }
        if (acked_ == stores_ && !flushSent_) {
            flushSent_ = true;
            cache_->requestFlush(this);
            wakeOther(cache_);
        }
        done_ = flushSent_ && cache_->flushDone();
    }
    soff::sim::ComponentKind kind() const override
    {
        return soff::sim::ComponentKind::Source;
    }
    bool holdsWork() const override { return acked_ < stores_; }
    void
    reset() override
    {
        sent_ = 0;
        acked_ = 0;
        flushSent_ = false;
        done_ = false;
    }
    const bool *doneFlag() const { return &done_; }

  private:
    soff::sim::Channel<soff::sim::MemReq> *req_;
    soff::sim::Channel<soff::sim::MemResp> *resp_;
    soff::memsys::Cache *cache_;
    uint64_t stores_;
    uint64_t sent_ = 0;
    uint64_t acked_ = 0;
    bool flushSent_ = false;
    bool done_ = false;
};

/**
 * The cache's storage is flat: constructing one costs a fixed number of
 * allocations whatever its line count, and on a warmed cache the
 * relaunch reset, a store stream with evictions, and the kernel-end
 * flush allocate nothing.
 */
int
runCacheAllocGuard()
{
    using namespace soff;
    memsys::GlobalMemory memory(1 << 20);
    memsys::DramTiming dram(40, 4);
    auto construct_allocs = [&](int size_bytes) {
        uint64_t before = g_heapAllocs.load(std::memory_order_relaxed);
        memsys::Cache cache("guard", memory, dram, size_bytes, 64,
                            nullptr, nullptr);
        return g_heapAllocs.load(std::memory_order_relaxed) - before;
    };
    uint64_t small = construct_allocs(4 << 10);
    uint64_t large = construct_allocs(64 << 10);
    if (large != small) {
        std::fprintf(stderr,
                     "cache alloc guard FAILED: a 64 KiB cache makes %llu "
                     "heap allocations, a 4 KiB one %llu; the count must "
                     "not grow with the line count\n",
                     static_cast<unsigned long long>(large),
                     static_cast<unsigned long long>(small));
        return 1;
    }

    sim::Simulator simulator;
    auto *req = simulator.channel<sim::MemReq>(8);
    auto *resp = simulator.channel<sim::MemResp>(8);
    auto *cache = simulator.add<memsys::Cache>("cache", memory, dram,
                                               64 << 10, 64, req, resp);
    auto *client = simulator.add<StoreFlushClient>(req, resp, cache, 400);
    auto warm = simulator.run(client->doneFlag(), 1000000, 10000);
    uint64_t warm_writebacks = cache->stats().writebacks;
    simulator.resetForRerun();
    dram.reset(); // the relaunch path resets the DRAM timeline too
    uint64_t before = g_heapAllocs.load(std::memory_order_relaxed);
    auto steady = simulator.run(client->doneFlag(), 1000000, 10000);
    uint64_t allocs = g_heapAllocs.load(std::memory_order_relaxed) - before;
    if (!warm.completed || !steady.completed ||
        steady.cycles != warm.cycles ||
        cache->stats().writebacks != warm_writebacks) {
        std::fprintf(stderr, "cache alloc guard: the rerun after reset() "
                             "diverged from the warmup run\n");
        return 1;
    }
    if (allocs != 0) {
        std::fprintf(stderr,
                     "cache alloc guard FAILED: %llu heap allocation(s) "
                     "across reset(), stores and a full flush\n",
                     static_cast<unsigned long long>(allocs));
        return 1;
    }
    std::printf("cache alloc guard: %llu heap allocations to construct "
                "a 64 KiB cache (same as 4 KiB); 0 across reset, 400 "
                "stores and a flush (%llu write-backs)\n",
                static_cast<unsigned long long>(large),
                static_cast<unsigned long long>(warm_writebacks));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // The generic event-driven loop and the compiled plan's loop
    // must both run allocation-free in steady state (plans allocate
    // only at build time), and so must a warmed cache's
    // reset-and-flush cycle.
    int rc = runAllocGuard(soff::sim::SchedulerMode::EventDriven);
    if (rc == 0)
        rc = runAllocGuard(soff::sim::SchedulerMode::Compiled);
    if (rc == 0)
        rc = runCacheAllocGuard();
    if (rc != 0)
        return rc;
    if (argc > 1 && std::strcmp(argv[1], "--alloc-guard-only") == 0)
        return 0;
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
