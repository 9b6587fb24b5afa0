/** @file Property-based end-to-end tests: randomly generated arithmetic
 *  kernels must produce identical results on the cycle-level circuit
 *  simulator and the reference interpreter (TEST_P sweeps over seeds),
 *  and the interpreter must reject undefined barrier divergence. */
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <typeindex>
#include <vector>

#include "baseline/interpreter.hpp"
#include "runtime/runtime.hpp"
#include "sim/simulator.hpp"
#include "sim/specialize.hpp"
#include "sim/trace.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace soff
{
namespace
{

/**
 * Generates a random straight-line-plus-loop kernel over ints and
 * floats. The expression grammar sticks to operations with defined
 * semantics for every input (no division by arbitrary values).
 */
std::string
randomKernel(uint64_t seed)
{
    SplitMix64 rng(seed);
    std::string body;
    int n_vals = rng.nextInt(2, 5);
    body += "  int i = get_global_id(0);\n";
    body += "  float f0 = A[i];\n";
    body += "  int v0 = B[i];\n";
    for (int k = 1; k < n_vals; ++k) {
        switch (rng.nextInt(0, 5)) {
          case 0:
            body += strFormat("  float f%d = f%d * %d.%df + f0;\n", k,
                              k - 1, rng.nextInt(0, 3),
                              rng.nextInt(1, 9));
            break;
          case 1:
            body += strFormat("  float f%d = fmin(f%d, %d.0f) - "
                              "fabs(f0);\n", k, k - 1,
                              rng.nextInt(1, 5));
            break;
          case 2:
            body += strFormat("  float f%d = f%d + (float)(v0 %% %d);\n",
                              k, k - 1, rng.nextInt(2, 9));
            break;
          case 3:
            body += strFormat("  float f%d = f%d > 0.5f ? f%d * 0.5f : "
                              "f%d + 1.0f;\n", k, k - 1, k - 1, k - 1);
            break;
          case 4:
            body += strFormat(
                "  float f%d = f%d;\n"
                "  for (int t%d = 0; t%d < %d; t%d++) "
                "f%d = f%d * 0.75f + 0.25f;\n",
                k, k - 1, k, k, rng.nextInt(2, 6), k, k, k);
            break;
          default:
            body += strFormat("  float f%d = sqrt(fabs(f%d) + 1.0f);\n",
                              k, k - 1);
            break;
        }
    }
    body += strFormat("  C[i] = f%d;\n", n_vals - 1);
    return "__kernel void p(__global float* A, __global int* B,\n"
           "                __global float* C) {\n" + body + "}\n";
}

class RandomKernelEquivalence
    : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(RandomKernelEquivalence, SimulatorMatchesOracle)
{
    uint64_t seed = GetParam();
    std::string source = randomKernel(seed);
    SCOPED_TRACE(source);

    const uint64_t n = 64;
    auto a = std::vector<float>(n);
    auto b = std::vector<int32_t>(n);
    SplitMix64 rng(seed * 7 + 1);
    for (uint64_t i = 0; i < n; ++i) {
        a[i] = rng.nextFloat() * 4.0f - 2.0f;
        b[i] = rng.nextInt(-100, 100);
    }

    std::vector<float> out[2];
    for (int mode = 0; mode < 2; ++mode) {
        rt::Context ctx;
        rt::Program program = ctx.buildProgram(source);
        rt::KernelHandle kernel = program.createKernel("p");
        rt::Buffer ba = ctx.createBuffer(n * 4);
        rt::Buffer bb = ctx.createBuffer(n * 4);
        rt::Buffer bc = ctx.createBuffer(n * 4);
        ctx.writeBuffer(ba, a.data(), n * 4);
        ctx.writeBuffer(bb, b.data(), n * 4);
        kernel.setArg(0, ba);
        kernel.setArg(1, bb);
        kernel.setArg(2, bc);
        sim::NDRange nd;
        nd.globalSize[0] = n;
        nd.localSize[0] = 16;
        ctx.enqueueNDRange(kernel, nd,
                           mode == 0 ? rt::ExecutionMode::Simulate
                                     : rt::ExecutionMode::Reference);
        out[mode].resize(n);
        ctx.readBuffer(bc, out[mode].data(), n * 4);
    }
    for (uint64_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[0][i], out[1][i])
            << "seed " << seed << " index " << i
            << ": circuit and oracle must agree bit-exactly";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomKernelEquivalence,
                         ::testing::Range<uint64_t>(1, 21));

// --- Undefined-behavior rejection by the oracle -------------------------

TEST(InterpreterUB, DivergentBarrierIsRejected)
{
    // §II-B3 / §IV-F1: work-items of one group reaching different
    // barriers (or not all reaching one) is undefined; the oracle
    // refuses rather than guessing.
    rt::Context ctx;
    rt::Program program = ctx.buildProgram(R"CL(
__kernel void bad(__global int* A) {
  int l = get_local_id(0);
  if (l < 2) {
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  A[get_global_id(0)] = l;
}
)CL");
    rt::KernelHandle kernel = program.createKernel("bad");
    kernel.setArg(0, ctx.createBuffer(4096));
    sim::NDRange nd;
    nd.globalSize[0] = 16;
    nd.localSize[0] = 4;
    EXPECT_THROW(
        ctx.enqueueNDRange(kernel, nd, rt::ExecutionMode::Reference),
        RuntimeError);
}

TEST(InterpreterUB, UniformBarrierInBranchIsFine)
{
    // All work-items of a group take the same branch: defined.
    rt::Context ctx;
    rt::Program program = ctx.buildProgram(R"CL(
__kernel void good(__global int* A) {
  int g = get_group_id(0);
  if (g == 0) {
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  A[get_global_id(0)] = g;
}
)CL");
    rt::KernelHandle kernel = program.createKernel("good");
    kernel.setArg(0, ctx.createBuffer(4096));
    sim::NDRange nd;
    nd.globalSize[0] = 16;
    nd.localSize[0] = 4;
    EXPECT_NO_THROW(
        ctx.enqueueNDRange(kernel, nd, rt::ExecutionMode::Reference));
}

// --- Channel storage equivalence ------------------------------------------

/**
 * Pure model of the staged handshake-channel semantics: pushes become
 * visible at commit, a pop frees its slot at commit, at most one pop
 * per cycle. Both Channel<T> storage variants must track it exactly.
 */
struct ChannelModel
{
    size_t cap;
    std::vector<uint64_t> committed;
    std::vector<uint64_t> staged;
    bool popped = false;
    uint64_t delivered = 0;
    uint64_t maxOcc = 0;

    explicit ChannelModel(size_t capacity) : cap(capacity) {}
    bool canPush() const { return committed.size() + staged.size() < cap; }
    bool canPop() const { return !committed.empty() && !popped; }
    void push(uint64_t v) { staged.push_back(v); }
    uint64_t
    pop()
    {
        popped = true;
        return committed.front();
    }
    void
    commit()
    {
        if (popped) {
            committed.erase(committed.begin());
            popped = false;
        }
        delivered += staged.size();
        committed.insert(committed.end(), staged.begin(), staged.end());
        staged.clear();
        maxOcc = std::max<uint64_t>(maxOcc, committed.size());
    }
};

/** Heap-carrying payload: exercises the pop-by-move path. */
using Payload = std::vector<uint64_t>;

class ChannelEquivalence : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(ChannelEquivalence, ArenaMatchesStandaloneAndModel)
{
    SplitMix64 rng(GetParam());
    size_t cap = static_cast<size_t>(rng.nextInt(1, 5));
    // Standalone channel (heap ring) vs arena-backed channel (circuit
    // slab ring) vs the pure model, driven by one random op stream.
    sim::Channel<Payload> standalone(cap);
    sim::Simulator simulator;
    sim::Channel<Payload> *arena = simulator.channel<Payload>(cap);
    ChannelModel model(cap);

    uint64_t next = 1;
    for (int cycle = 0; cycle < 2000; ++cycle) {
        // A burst of pushes (capacity edge: often more than fit).
        int pushes = rng.nextInt(0, 3);
        for (int i = 0; i < pushes; ++i) {
            ASSERT_EQ(standalone.canPush(), model.canPush());
            ASSERT_EQ(arena->canPush(), model.canPush());
            if (!model.canPush())
                break;
            Payload v = {next, next * 3};
            standalone.push(v);
            arena->push(v);
            model.push(next);
            ++next;
        }
        ASSERT_EQ(standalone.canPop(), model.canPop());
        ASSERT_EQ(arena->canPop(), model.canPop());
        if (model.canPop() && rng.nextInt(0, 2) != 0) {
            uint64_t want = model.pop();
            Payload a = standalone.pop();
            Payload b = arena->pop();
            ASSERT_EQ(a, (Payload{want, want * 3}));
            ASSERT_EQ(b, a);
            // One pop per cycle: both variants must refuse a second.
            ASSERT_FALSE(standalone.canPop());
            ASSERT_FALSE(arena->canPop());
        }
        if (rng.nextInt(0, 4) != 0) { // occasionally skip the commit
            standalone.commit();
            arena->commit();
            model.commit();
        }
        ASSERT_EQ(standalone.occupancy(), model.committed.size());
        ASSERT_EQ(arena->occupancy(), model.committed.size());
    }
    EXPECT_EQ(standalone.tokensDelivered(), model.delivered);
    EXPECT_EQ(arena->tokensDelivered(), model.delivered);
    EXPECT_EQ(standalone.maxOccupancy(), model.maxOcc);
    EXPECT_EQ(arena->maxOccupancy(), model.maxOcc);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelEquivalence,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77,
                                           88));

// --- Channel endpoint wakes ----------------------------------------------

namespace chan_wake
{

class Producer : public sim::Component
{
  public:
    Producer(sim::Channel<uint64_t> *out, uint64_t n)
        : Component("producer"), out_(out), n_(n)
    {
        watchOut(out_);
    }
    void
    step(sim::Cycle) override
    {
        if (sent_ < n_ && out_->canPush())
            out_->push(sent_++);
    }
    bool holdsWork() const override { return sent_ < n_; }

  private:
    sim::Channel<uint64_t> *out_;
    uint64_t n_;
    uint64_t sent_ = 0;
};

class Consumer : public sim::Component
{
  public:
    Consumer(sim::Channel<uint64_t> *in, uint64_t n)
        : Component("consumer"), in_(in), n_(n)
    {
        watchIn(in_);
    }
    void
    step(sim::Cycle) override
    {
        if (in_->canPop()) {
            sum_ += in_->pop();
            ++got_;
        }
        done_ = got_ >= n_;
    }
    bool holdsWork() const override { return in_->occupancy() > 0; }

    uint64_t sum() const { return sum_; }
    const bool *doneFlag() const { return &done_; }

  private:
    sim::Channel<uint64_t> *in_;
    uint64_t n_;
    uint64_t got_ = 0;
    uint64_t sum_ = 0;
    bool done_ = false;
};

} // namespace chan_wake

TEST(ChannelWatcherWake, EventDrivenMatchesReference)
{
    // Commit wakes reach the declared endpoints through the wake
    // targets in the channel's hot line: a producer/consumer pair over
    // one arena channel finishes in the same cycle with the same data
    // under both schedulers.
    constexpr uint64_t kTokens = 500;
    uint64_t cycles[2], sums[2];
    const sim::SchedulerMode modes[2] = {sim::SchedulerMode::Reference,
                                         sim::SchedulerMode::EventDriven};
    for (int m = 0; m < 2; ++m) {
        sim::Simulator simulator(modes[m]);
        auto *ch = simulator.channel<uint64_t>(2);
        simulator.add<chan_wake::Producer>(ch, kTokens);
        auto *consumer =
            simulator.add<chan_wake::Consumer>(ch, kTokens);
        auto result =
            simulator.run(consumer->doneFlag(), 100000, 1000);
        ASSERT_TRUE(result.completed);
        cycles[m] = result.cycles;
        sums[m] = consumer->sum();
    }
    EXPECT_EQ(cycles[0], cycles[1]);
    EXPECT_EQ(sums[0], sums[1]);
    EXPECT_EQ(sums[0], kTokens * (kTokens - 1) / 2);
}

// --- Compiled step plan ----------------------------------------------------

namespace compiled_spec
{

/** Eligible-kind chain components: datapath plumbing the compiled
 *  plan steps in its buckets. */
class ChainHead : public sim::Component
{
  public:
    ChainHead(sim::Channel<uint64_t> *out, uint64_t n)
        : Component("head"), out_(out), n_(n)
    {
        watchOut(out_);
    }
    void
    step(sim::Cycle) override
    {
        if (sent_ < n_ && out_->canPush())
            out_->push(sent_++);
    }
    sim::ComponentKind kind() const override
    {
        return sim::ComponentKind::Source;
    }
    bool holdsWork() const override { return sent_ < n_; }
    void reset() override { sent_ = 0; }

  private:
    sim::Channel<uint64_t> *out_;
    uint64_t n_;
    uint64_t sent_ = 0;
};

class ChainStage : public sim::Component
{
  public:
    ChainStage(sim::Channel<uint64_t> *in, sim::Channel<uint64_t> *out)
        : Component("stage"), in_(in), out_(out)
    {
        watchIn(in_);
        watchOut(out_);
    }
    void
    step(sim::Cycle) override
    {
        if (in_->canPop() && out_->canPush())
            out_->push(in_->pop() * 3 + 1);
    }
    sim::ComponentKind kind() const override
    {
        return sim::ComponentKind::Compute;
    }
    bool holdsWork() const override { return in_->occupancy() > 0; }

  private:
    sim::Channel<uint64_t> *in_;
    sim::Channel<uint64_t> *out_;
};

class ChainTail : public sim::Component
{
  public:
    ChainTail(sim::Channel<uint64_t> *in, uint64_t n)
        : Component("tail"), in_(in), n_(n)
    {
        watchIn(in_);
    }
    void
    step(sim::Cycle) override
    {
        if (in_->canPop()) {
            sum_ += in_->pop();
            ++got_;
        }
        done_ = got_ >= n_;
    }
    sim::ComponentKind kind() const override
    {
        return sim::ComponentKind::Sink;
    }
    bool holdsWork() const override { return in_->occupancy() > 0; }
    void
    reset() override
    {
        got_ = 0;
        sum_ = 0;
        done_ = false;
    }

    uint64_t sum() const { return sum_; }
    const bool *doneFlag() const { return &done_; }

  private:
    sim::Channel<uint64_t> *in_;
    uint64_t n_;
    uint64_t got_ = 0;
    uint64_t sum_ = 0;
    bool done_ = false;
};

/** Loop entry of a cyclic chain: forwards a token coming back around
 *  the loop ahead of a new one from the entry channel. */
class LoopMerge : public sim::Component
{
  public:
    LoopMerge(sim::Channel<uint64_t> *entry, sim::Channel<uint64_t> *back,
              sim::Channel<uint64_t> *out)
        : Component("merge"), entry_(entry), back_(back), out_(out)
    {
        watchIn(entry_);
        watchIn(back_);
        watchOut(out_);
    }
    void
    step(sim::Cycle) override
    {
        if (!out_->canPush())
            return;
        if (back_->canPop())
            out_->push(back_->pop());
        else if (entry_->canPop())
            out_->push(entry_->pop());
    }
    sim::ComponentKind kind() const override
    {
        return sim::ComponentKind::Select;
    }
    bool
    holdsWork() const override
    {
        return back_->occupancy() + entry_->occupancy() > 0;
    }

  private:
    sim::Channel<uint64_t> *entry_;
    sim::Channel<uint64_t> *back_;
    sim::Channel<uint64_t> *out_;
};

/** Loop exit of a cyclic chain: sends a token around again until the
 *  loop's stages have grown it past 2^40. */
class LoopSplit : public sim::Component
{
  public:
    LoopSplit(sim::Channel<uint64_t> *in, sim::Channel<uint64_t> *back,
              sim::Channel<uint64_t> *exit)
        : Component("split"), in_(in), back_(back), exit_(exit)
    {
        watchIn(in_);
        watchOut(back_);
        watchOut(exit_);
    }
    void
    step(sim::Cycle) override
    {
        if (!in_->canPop())
            return;
        sim::Channel<uint64_t> *to =
            in_->peek() < (uint64_t{1} << 40) ? back_ : exit_;
        if (to->canPush())
            to->push(in_->pop());
    }
    sim::ComponentKind kind() const override
    {
        return sim::ComponentKind::Router;
    }
    bool holdsWork() const override { return in_->occupancy() > 0; }

  private:
    sim::Channel<uint64_t> *in_;
    sim::Channel<uint64_t> *back_;
    sim::Channel<uint64_t> *exit_;
};

/** A randomized chain, one producer and one consumer per channel.
 *  Components are added in a seed-shuffled order, so nothing can lean
 *  on build order matching dataflow order. */
struct Chain
{
    std::vector<sim::Channel<uint64_t> *> channels;
    ChainTail *tail = nullptr;
};

/** Dataflow positions 0..n-1 in a seed-shuffled build order. */
std::vector<int>
shuffledPositions(SplitMix64 &rng, int n)
{
    std::vector<int> pos(static_cast<size_t>(n));
    for (size_t i = 0; i < pos.size(); ++i)
        pos[i] = static_cast<int>(i);
    for (size_t i = pos.size(); i > 1; --i)
        std::swap(pos[i - 1],
                  pos[static_cast<size_t>(rng.nextInt(
                      0, static_cast<int>(i) - 1))]);
    return pos;
}

Chain
buildChain(sim::Simulator &simulator, uint64_t seed, uint64_t tokens)
{
    SplitMix64 rng(seed);
    int stages = rng.nextInt(2, 8);
    Chain chain;
    for (int i = 0; i <= stages; ++i) {
        chain.channels.push_back(simulator.channel<uint64_t>(
            static_cast<size_t>(rng.nextInt(1, 3))));
    }
    for (int p : shuffledPositions(rng, stages + 2)) {
        if (p == 0) {
            simulator.add<ChainHead>(chain.channels.front(), tokens);
        } else if (p == stages + 1) {
            chain.tail = simulator.add<ChainTail>(chain.channels.back(),
                                                  tokens);
        } else {
            simulator.add<ChainStage>(chain.channels[p - 1],
                                      chain.channels[p]);
        }
    }
    return chain;
}

/**
 * A randomized chain whose members form a cycle: head -> merge ->
 * 2..8 stages -> split, which sends each token back to the merge until
 * the stages have grown it past 2^40, then on to the tail. Components
 * are added in a seed-shuffled order. The loop holds at least 4
 * channels of capacity >= 1, so its 3 tokens can never fill it and it
 * cannot deadlock.
 */
Chain
buildLoopChain(sim::Simulator &simulator, uint64_t seed)
{
    constexpr uint64_t kTokens = 3;
    SplitMix64 rng(seed);
    const int stages = rng.nextInt(2, 8);
    Chain chain;
    // channels: [0] entry, [1..stages+1] merge -> stages -> split,
    // [stages+2] back edge, [stages+3] exit.
    for (int i = 0; i < stages + 4; ++i) {
        chain.channels.push_back(simulator.channel<uint64_t>(
            static_cast<size_t>(rng.nextInt(1, 3))));
    }
    auto ch = [&](int i) { return chain.channels[static_cast<size_t>(i)]; };
    for (int p : shuffledPositions(rng, stages + 4)) {
        if (p == 0)
            simulator.add<ChainHead>(ch(0), kTokens);
        else if (p == 1)
            simulator.add<LoopMerge>(ch(0), ch(stages + 2), ch(1));
        else if (p == stages + 2)
            simulator.add<LoopSplit>(ch(stages + 1), ch(stages + 2),
                                     ch(stages + 3));
        else if (p == stages + 3)
            chain.tail = simulator.add<ChainTail>(ch(stages + 3), kTokens);
        else
            simulator.add<ChainStage>(ch(p - 1), ch(p));
    }
    return chain;
}

/** Component index -> positions it holds in `plan`, and bucket id ->
 *  the dynamic types of its members. */
struct PlanShape
{
    std::vector<int> positionsPerComponent;
    std::vector<std::set<std::type_index>> bucketTypes;
};

PlanShape
planShape(const sim::Simulator &simulator, const sim::CompiledPlan &plan)
{
    PlanShape shape;
    shape.positionsPerComponent.assign(simulator.numComponents(), 0);
    for (const sim::Component *c : plan.laneComp)
        ++shape.positionsPerComponent[c->index()];
    shape.bucketTypes.resize(plan.bucketStart.size() - 1);
    for (size_t b = 0; b + 1 < plan.bucketStart.size(); ++b) {
        for (uint32_t p = plan.bucketStart[b]; p < plan.bucketStart[b + 1];
             ++p) {
            EXPECT_EQ(plan.bucketOf[p], b) << "position " << p;
            shape.bucketTypes[b].insert(typeid(*plan.laneComp[p]));
        }
    }
    return shape;
}

/**
 * Everything observable about a finished multi-lane run: completion
 * cycle, delivered data, per-channel counters, per-component perf
 * counters, and the exact number of component steps (the wake set).
 * Two scheduler configurations are equivalent iff their observations
 * compare equal memberwise.
 */
struct Observation
{
    uint64_t cycles = 0;
    uint64_t componentSteps = 0;
    bool hadPlan = false;
    PlanShape shape; ///< Empty unless hadPlan.
    /** The trace export, when the run was traced. */
    std::string trace;
    std::vector<uint64_t> sums;
    std::vector<uint64_t> tokens;
    std::vector<uint64_t> maxOcc;
    /** (busy, stalled, tokensIn, tokensOut) per component. */
    std::vector<std::array<uint64_t, 4>> perf;
};

/**
 * Builds `kLanes` identical seed-shuffled chains side by side — the
 * same component types across lanes, so the compiled plan's buckets
 * are wide and the batched sweep actually batches replicas — and runs
 * every lane to completion. A non-null fault config installs a fault
 * plan before any channel is created (the real circuit builder's
 * order); `trace` installs an unbounded trace sink once the circuit
 * exists and records its export.
 */
Observation
runLanes(sim::SchedulerMode mode, uint64_t seed,
         const sim::FaultConfig *faults = nullptr, bool trace = false)
{
    constexpr int kLanes = 6;
    constexpr uint64_t kTokens = 120;
    sim::FaultPlan plan(faults != nullptr ? *faults
                                          : sim::FaultConfig{});
    sim::Simulator simulator(mode);
    // Mirror KernelCircuit: the plan is installed only when it
    // perturbs timing (a disabled config stays off entirely).
    if (faults != nullptr && plan.config().perturbsTiming())
        simulator.setFaultPlan(&plan);
    std::vector<Chain> lanes;
    for (int l = 0; l < kLanes; ++l)
        lanes.push_back(buildChain(simulator, seed, kTokens));
    sim::TraceSink sink(simulator.numComponents(), simulator.numChannels(),
                        0, ~uint64_t{0});
    if (trace)
        simulator.setTraceSink(&sink);
    Observation obs;
    for (Chain &chain : lanes) {
        auto result =
            simulator.run(chain.tail->doneFlag(), 1000000, 10000);
        EXPECT_TRUE(result.completed);
        obs.cycles = result.cycles;
    }
    simulator.finalizePerfSpans();
    obs.componentSteps = simulator.schedulerStats().componentSteps;
    obs.hadPlan = simulator.compiledPlan() != nullptr;
    if (obs.hadPlan)
        obs.shape = planShape(simulator, *simulator.compiledPlan());
    if (trace) {
        std::vector<sim::TraceSink::TrackInfo> tracks(
            simulator.numComponents());
        for (size_t i = 0; i < tracks.size(); ++i)
            tracks[i] = {simulator.component(i).name(),
                         simulator.component(i).kind()};
        const std::string path =
            ::testing::TempDir() + "compiled_plan_trace_" +
            std::to_string(::getpid()) + ".json";
        sink.write(path, tracks);
        std::ifstream in(path);
        std::stringstream text;
        text << in.rdbuf();
        obs.trace = text.str();
        std::remove(path.c_str());
    }
    for (Chain &chain : lanes) {
        obs.sums.push_back(chain.tail->sum());
        for (sim::ChannelBase *ch : chain.channels) {
            obs.tokens.push_back(ch->tokensDelivered());
            obs.maxOcc.push_back(ch->maxOccupancy());
        }
    }
    sim::StatsReport report;
    simulator.appendPerfStats(report);
    for (const sim::ComponentStats &cs : report.components)
        obs.perf.push_back({cs.busy, cs.stalled, cs.tokensIn,
                            cs.tokensOut});
    return obs;
}

void
expectSameObservation(const Observation &a, const Observation &b,
                      const char *what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.componentSteps, b.componentSteps) << what;
    EXPECT_EQ(a.sums, b.sums) << what;
    EXPECT_EQ(a.tokens, b.tokens) << what;
    EXPECT_EQ(a.maxOcc, b.maxOcc) << what;
    EXPECT_EQ(a.perf, b.perf) << what;
    // Not EXPECT_EQ: on a mismatch gtest would diff the two multi-line
    // exports line by line, quadratic in their length.
    EXPECT_TRUE(a.trace == b.trace)
        << what << ": trace exports differ (" << a.trace.size() << " vs "
        << b.trace.size() << " bytes)";
}

} // namespace compiled_spec

class CompiledSpecialization
    : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(CompiledSpecialization, FusedCommitMatchesTwoPhase)
{
    // The compiled plan, whose member wakes the one commit walker
    // routes into buckets, must be observation-equivalent to the
    // generic two-phase step/commit on randomized chains, and on
    // chains whose members form a cycle: same completion cycle, same
    // data, and bit-identical per-channel token/occupancy counters.
    constexpr uint64_t kTokens = 200;
    const sim::SchedulerMode modes[3] = {sim::SchedulerMode::Reference,
                                         sim::SchedulerMode::EventDriven,
                                         sim::SchedulerMode::Compiled};
    for (bool cyclic : {false, true}) {
        uint64_t cycles[3], sums[3];
        std::vector<uint64_t> tokens[3], maxOcc[3];
        for (int m = 0; m < 3; ++m) {
            sim::Simulator simulator(modes[m]);
            compiled_spec::Chain chain =
                cyclic ? compiled_spec::buildLoopChain(simulator,
                                                       GetParam())
                       : compiled_spec::buildChain(simulator, GetParam(),
                                                   kTokens);
            auto result =
                simulator.run(chain.tail->doneFlag(), 100000, 1000);
            ASSERT_TRUE(result.completed) << "cyclic=" << cyclic;
            cycles[m] = result.cycles;
            sums[m] = chain.tail->sum();
            for (sim::ChannelBase *ch : chain.channels) {
                tokens[m].push_back(ch->tokensDelivered());
                maxOcc[m].push_back(ch->maxOccupancy());
            }
            EXPECT_EQ(simulator.compiledPlan() != nullptr,
                      modes[m] == sim::SchedulerMode::Compiled);
        }
        for (int m = 1; m < 3; ++m) {
            const std::string what =
                std::string(schedulerModeName(modes[m])) +
                (cyclic ? " (cyclic)" : "");
            EXPECT_EQ(cycles[0], cycles[m]) << what;
            EXPECT_EQ(sums[0], sums[m]) << what;
            EXPECT_EQ(tokens[0], tokens[m]) << what;
            EXPECT_EQ(maxOcc[0], maxOcc[m]) << what;
        }
    }
}

TEST(CompiledSpecialization, PlanBuildsUnderFaultsAndTrace)
{
    // A fault plan and a trace sink leave the plan in place: a fault
    // retry wakes the stepping member, and the trace records
    // per-component spans and per-channel samples, which no order
    // inside a cycle can change. Each run must match EventDriven's full
    // observation, trace export included.
    using compiled_spec::runLanes;
    sim::FaultConfig cfg;
    cfg.seed = 42;
    struct Case
    {
        const char *what;
        const sim::FaultConfig *faults;
        bool trace;
    };
    for (const Case &c : {Case{"faults", &cfg, false},
                          Case{"trace", nullptr, true},
                          Case{"faults+trace", &cfg, true}}) {
        auto compiled =
            runLanes(sim::SchedulerMode::Compiled, 7, c.faults, c.trace);
        auto evt =
            runLanes(sim::SchedulerMode::EventDriven, 7, c.faults, c.trace);
        EXPECT_TRUE(compiled.hadPlan) << c.what;
        EXPECT_EQ(compiled.trace.empty(), !c.trace) << c.what;
        compiled_spec::expectSameObservation(compiled, evt, c.what);
    }
}

TEST(CompiledSpecialization, RelaunchReusesThePlan)
{
    // The plan must survive resetForRerun: a relaunched compiled
    // circuit produces the same cycle count and keeps its plan.
    sim::Simulator simulator(sim::SchedulerMode::Compiled);
    compiled_spec::Chain chain =
        compiled_spec::buildChain(simulator, 21, 100);
    auto first = simulator.run(chain.tail->doneFlag(), 100000, 1000);
    ASSERT_TRUE(first.completed);
    ASSERT_NE(simulator.compiledPlan(), nullptr);
    simulator.resetForRerun();
    auto second = simulator.run(chain.tail->doneFlag(), 100000, 1000);
    ASSERT_TRUE(second.completed);
    EXPECT_EQ(first.cycles, second.cycles);
    EXPECT_NE(simulator.compiledPlan(), nullptr);
}

TEST_P(CompiledSpecialization, BatchedStepMatchesPerReplica)
{
    // The batched bucket sweep (one stepMany call over all awake
    // replicas of a bucket) must be observably identical to the
    // event-driven scheduler, which steps one awake replica per
    // dispatch: same completion cycle, same delivered data,
    // bit-identical channel and perf counters, and the exact same
    // number of component steps (the wake sets match, not just the
    // results).
    using compiled_spec::runLanes;
    auto batched = runLanes(sim::SchedulerMode::Compiled, GetParam());
    auto evt = runLanes(sim::SchedulerMode::EventDriven, GetParam());
    EXPECT_TRUE(batched.hadPlan);
    EXPECT_FALSE(evt.hadPlan);
    compiled_spec::expectSameObservation(batched, evt,
                                         "batched vs event-driven");
    // Plan shape: every component of the chains is a member kind and
    // sits at exactly one position, and a bucket holds one dynamic
    // type (its members share one stepManyBody<T> thunk).
    const compiled_spec::PlanShape &shape = batched.shape;
    EXPECT_EQ(shape.positionsPerComponent,
              std::vector<int>(shape.positionsPerComponent.size(), 1));
    EXPECT_FALSE(shape.bucketTypes.empty());
    for (size_t b = 0; b < shape.bucketTypes.size(); ++b)
        EXPECT_EQ(shape.bucketTypes[b].size(), 1u) << "bucket " << b;
}

TEST_P(CompiledSpecialization, BatchedStepFaultSeedsMatch)
{
    // Across fault seeds: seed 0 is a clean run; nonzero seeds install
    // a fault plan, whose stall windows then gate channel queries
    // inside the batched sweep. The plan builds either way, and the
    // results stay identical to EventDriven.
    using compiled_spec::runLanes;
    for (uint64_t fault_seed : {uint64_t{0}, uint64_t{42},
                                uint64_t{1337}}) {
        sim::FaultConfig cfg;
        cfg.seed = fault_seed;
        auto batched =
            runLanes(sim::SchedulerMode::Compiled, GetParam(), &cfg);
        auto evt =
            runLanes(sim::SchedulerMode::EventDriven, GetParam(), &cfg);
        EXPECT_TRUE(batched.hadPlan) << "fault seed " << fault_seed;
        compiled_spec::expectSameObservation(
            batched, evt, "batched vs event-driven (faults)");
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledSpecialization,
                         ::testing::Values(3, 17, 29, 41, 53, 67, 79,
                                           97));

// --- Determinism ----------------------------------------------------------

TEST(Determinism, SameLaunchSameCycleCount)
{
    uint64_t cycles[2];
    for (int run = 0; run < 2; ++run) {
        rt::Context ctx;
        rt::Program program = ctx.buildProgram(R"CL(
__kernel void k(__global float* A, int n) {
  float acc = 0.0f;
  for (int i = 0; i < n; i++) acc += A[i];
  A[get_global_id(0)] = acc;
}
)CL");
        rt::KernelHandle kernel = program.createKernel("k");
        rt::Buffer buffer = ctx.createBuffer(4096);
        std::vector<float> data(256, 1.5f);
        ctx.writeBuffer(buffer, data.data(), 1024);
        kernel.setArg(0, buffer);
        kernel.setArg(1, int32_t{64});
        sim::NDRange nd;
        nd.globalSize[0] = 128;
        nd.localSize[0] = 32;
        cycles[run] = ctx.enqueueNDRange(kernel, nd).cycles;
    }
    EXPECT_EQ(cycles[0], cycles[1])
        << "the circuit simulation must be fully deterministic";
}

} // namespace
} // namespace soff
