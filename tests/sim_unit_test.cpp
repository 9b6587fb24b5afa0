/** @file Unit tests for the simulation kernel: channel handshake
 *  semantics, watchdog deadlock detection (failure injection), NDRange
 *  arithmetic, and barrier/glue components in isolation. */
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/glue.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"

namespace soff::sim
{

/** Reads ChannelBase's private layout (the class befriends it). */
struct ChannelLayoutProbe
{
    struct Field
    {
        const char *name;
        size_t offset; ///< Bytes from the start of the channel object.
        size_t size;
    };

    /** Every field a push, pop, canPop/canPush, or commit touches. */
    template <typename T>
    static std::vector<Field>
    hotFields(const Channel<T> &ch)
    {
        const ChannelBase &b = ch;
        auto at = [&ch](const char *name, const auto &field) {
            return Field{name,
                         static_cast<size_t>(
                             reinterpret_cast<const char *>(&field) -
                             reinterpret_cast<const char *>(&ch)),
                         sizeof(field)};
        };
        return {at("buf_", b.buf_),
                at("dirtyList_", b.dirtyList_),
                at("tokens_", b.tokens_),
                at("cap_", b.cap_),
                at("head_", b.head_),
                at("committed_", b.committed_),
                at("staged_", b.staged_),
                at("maxOcc_", b.maxOcc_),
                at("index_", b.index_),
                at("watchOff_", b.watchOff_),
                at("watchCount_", b.watchCount_),
                at("popped_", b.popped_),
                at("dirty_", b.dirty_),
                at("faulty_", b.faulty_),
                at("faultClass_", b.faultClass_)};
    }
};

namespace
{

TEST(Channel, HotFieldsShareOneCacheLine)
{
    // The per-token handshake must touch one 64-byte line of channel
    // state: the object starts on a line boundary and every hot field
    // ends within its first 64 bytes. Checked on a live arena-backed
    // channel (the simulator's) and on a standalone one.
    Simulator sim(SchedulerMode::EventDriven);
    Channel<Flit> *arena = sim.channel<Flit>(2);
    Channel<Flit> standalone(3);
    for (const Channel<Flit> *ch : {arena, &standalone}) {
        EXPECT_EQ(reinterpret_cast<uintptr_t>(ch) % 64, 0u);
        for (const auto &f : ChannelLayoutProbe::hotFields(*ch)) {
            EXPECT_LE(f.offset + f.size, 64u)
                << f.name << " at byte " << f.offset;
        }
    }
}

TEST(Channel, PushVisibleNextCycleOnly)
{
    Channel<int> ch(2);
    EXPECT_TRUE(ch.canPush());
    EXPECT_FALSE(ch.canPop());
    ch.push(42);
    EXPECT_FALSE(ch.canPop()) << "registered handshake: one-cycle delay";
    ch.commit();
    EXPECT_TRUE(ch.canPop());
    EXPECT_EQ(ch.pop(), 42);
    EXPECT_FALSE(ch.canPop()) << "one pop per cycle";
    ch.commit();
    EXPECT_TRUE(ch.empty());
}

TEST(Channel, PopDoesNotFreeSpaceUntilCommit)
{
    Channel<int> ch(1);
    ch.push(1);
    ch.commit();
    EXPECT_FALSE(ch.canPush()) << "capacity 1, occupied";
    ch.pop();
    EXPECT_FALSE(ch.canPush())
        << "the §IV-C stall-release delay: space frees next cycle";
    ch.commit();
    EXPECT_TRUE(ch.canPush());
}

TEST(Channel, Capacity2SustainsFullThroughput)
{
    Channel<int> ch(2);
    int produced = 0, consumed = 0;
    for (int cycle = 0; cycle < 100; ++cycle) {
        if (ch.canPop()) {
            ch.pop();
            ++consumed;
        }
        if (ch.canPush())
            ch.push(produced++);
        ch.commit();
    }
    EXPECT_GE(consumed, 98) << "~one token per cycle";
}

TEST(Channel, CommitReportsActivity)
{
    Channel<int> ch(2);
    EXPECT_FALSE(ch.commit());
    ch.push(1);
    EXPECT_TRUE(ch.commit());
    EXPECT_FALSE(ch.commit());
}

// --- Watchdog / failure injection -------------------------------------

/** A component that deliberately never consumes: the §IV-E deadlock. */
class BlackHole : public Component
{
  public:
    explicit BlackHole(Channel<int> *in)
        : Component("blackhole"), in_(in)
    {}
    void step(Cycle) override { (void)in_; /* never pops */ }

  private:
    Channel<int> *in_;
};

class Producer : public Component
{
  public:
    explicit Producer(Channel<int> *out)
        : Component("producer"), out_(out)
    {}
    void
    step(Cycle) override
    {
        if (out_->canPush())
            out_->push(1);
    }

  private:
    Channel<int> *out_;
};

TEST(Simulator, WatchdogDetectsInjectedDeadlock)
{
    Simulator sim;
    auto *ch = sim.channel<int>(2);
    sim.add<Producer>(ch);
    sim.add<BlackHole>(ch);
    auto result = sim.run(nullptr, 1000000, 500);
    EXPECT_TRUE(result.deadlock);
    EXPECT_LT(result.cycles, 10000u)
        << "stall detected within the watchdog window";
}

TEST(Simulator, CompletionBeatsWatchdog)
{
    Simulator sim;
    auto *ch = sim.channel<int>(2);
    sim.add<Producer>(ch);
    int received = 0;
    bool done = false;
    class Consumer : public Component
    {
      public:
        Consumer(Channel<int> *in, int *count, bool *done)
            : Component("consumer"), in_(in), count_(count), done_(done)
        {}
        void
        step(Cycle) override
        {
            if (in_->canPop()) {
                in_->pop();
                ++*count_;
            }
            *done_ = *count_ >= 50;
        }

      private:
        Channel<int> *in_;
        int *count_;
        bool *done_;
    };
    sim.add<Consumer>(ch, &received, &done);
    auto result = sim.run(&done, 100000, 1000);
    EXPECT_TRUE(result.completed);
    EXPECT_FALSE(result.deadlock);
}

// --- NDRange arithmetic ------------------------------------------------

TEST(NDRange, LinearizationRoundTrip1D)
{
    NDRange nd;
    nd.globalSize[0] = 96;
    nd.localSize[0] = 32;
    for (uint64_t group = 0; group < nd.totalGroups(); ++group) {
        for (uint64_t local = 0; local < nd.groupSize(); ++local) {
            uint64_t gid = nd.gidOf(group, local);
            EXPECT_EQ(nd.groupOf(gid), group);
            ir::WorkItemCtx ctx = nd.ctxOf(gid);
            EXPECT_EQ(ctx.linearLocalId(), local);
        }
    }
}

TEST(NDRange, LinearizationRoundTrip2D)
{
    NDRange nd;
    nd.workDim = 2;
    nd.globalSize[0] = 12;
    nd.globalSize[1] = 8;
    nd.localSize[0] = 4;
    nd.localSize[1] = 2;
    EXPECT_EQ(nd.totalWorkItems(), 96u);
    EXPECT_EQ(nd.totalGroups(), 12u);
    EXPECT_EQ(nd.groupSize(), 8u);
    std::set<uint64_t> seen;
    for (uint64_t group = 0; group < nd.totalGroups(); ++group) {
        for (uint64_t local = 0; local < nd.groupSize(); ++local) {
            uint64_t gid = nd.gidOf(group, local);
            EXPECT_TRUE(seen.insert(gid).second) << "gid must be unique";
            EXPECT_EQ(nd.groupOf(gid), group);
            ir::WorkItemCtx ctx = nd.ctxOf(gid);
            EXPECT_EQ(ctx.linearGroupId(), group);
            EXPECT_EQ(ctx.linearGlobalId(), gid);
        }
    }
    EXPECT_EQ(seen.size(), nd.totalWorkItems());
}

// --- Barrier unit -------------------------------------------------------

TEST(BarrierUnit, ReleasesOnlyCompleteGroups)
{
    Simulator sim;
    LaunchContext launch;
    launch.ndrange.globalSize[0] = 8;
    launch.ndrange.localSize[0] = 4;
    auto *in = sim.channel<WiToken>(16);
    auto *out = sim.channel<WiToken>(16);
    auto *barrier = sim.add<BarrierUnit>("b", in, out, &launch, 4);

    // Feed 3 of 4 work-items of group 0.
    for (uint64_t wi = 0; wi < 3; ++wi)
        in->push({wi, {}});
    for (int cycle = 0; cycle < 20; ++cycle) {
        barrier->step(static_cast<Cycle>(cycle));
        in->commit();
        out->commit();
    }
    EXPECT_FALSE(out->canPop()) << "incomplete group must not release";

    in->push({3, {}});
    int released = 0;
    for (int cycle = 20; cycle < 60; ++cycle) {
        barrier->step(static_cast<Cycle>(cycle));
        in->commit();
        if (out->commit() || out->canPop()) {
            while (out->canPop()) {
                out->pop();
                ++released;
                break; // one pop per cycle
            }
        }
    }
    EXPECT_EQ(released, 4);
}

// --- Loop gate -----------------------------------------------------------

TEST(LoopGate, EnforcesNmax)
{
    Simulator sim;
    LaunchContext launch;
    launch.ndrange.globalSize[0] = 64;
    launch.ndrange.localSize[0] = 8;
    auto *in = sim.channel<WiToken>(64);
    auto *out = sim.channel<WiToken>(64);
    auto state = std::make_shared<LoopGateState>();
    state->nmax = 3;
    auto *gate = sim.add<LoopEntrance>("gate", in, out, state, &launch);
    for (uint64_t wi = 0; wi < 10; ++wi)
        in->push({wi, {}});
    for (int cycle = 0; cycle < 40; ++cycle) {
        gate->step(static_cast<Cycle>(cycle));
        in->commit();
        out->commit();
    }
    EXPECT_EQ(state->count, 3) << "the N_max-th+1 work-item must wait";
    EXPECT_EQ(out->size(), 3u);
}

TEST(LoopGate, SwgrAdmitsOneGroupAtATime)
{
    Simulator sim;
    LaunchContext launch;
    launch.ndrange.globalSize[0] = 8;
    launch.ndrange.localSize[0] = 2; // groups of 2
    auto *in = sim.channel<WiToken>(64);
    auto *mid = sim.channel<WiToken>(64);
    auto *out = sim.channel<WiToken>(64);
    auto state = std::make_shared<LoopGateState>();
    state->swgr = true;
    auto *gate = sim.add<LoopEntrance>("gate", in, mid, state, &launch);
    auto *exit = sim.add<LoopExit>("exit", mid, out, state);
    // Work-items of groups 0 and 1 interleaved at the entrance.
    in->push({0, {}});
    in->push({1, {}});
    in->push({2, {}}); // group 1
    in->push({3, {}});
    int max_inside = 0;
    for (int cycle = 0; cycle < 60; ++cycle) {
        gate->step(static_cast<Cycle>(cycle));
        exit->step(static_cast<Cycle>(cycle));
        in->commit();
        mid->commit();
        out->commit();
        max_inside = std::max(max_inside, state->count);
    }
    EXPECT_EQ(out->size(), 4u) << "everyone eventually passes";
    EXPECT_LE(max_inside, 2) << "only one work-group inside at a time";
}

} // namespace
} // namespace soff::sim
