/** @file Scheduler-equivalence tests: the event-driven and compiled
 *  kernels must be bit- and cycle-identical to the synchronous
 *  reference on every benchmark application (cross-check mode, with
 *  compiled copies running beside it on other host threads), declare
 *  one producer and one consumer per channel in every application's
 *  circuits, detect deadlocks at the exact quiescence cycle, and honor
 *  timer wakeups across clock jumps. */
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "benchsuite/suite.hpp"
#include "runtime/runtime.hpp"
#include "sim/circuit.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace soff
{
namespace
{

sim::NDRange
range1d(uint64_t global, uint64_t local)
{
    sim::NDRange nd;
    nd.globalSize[0] = global;
    nd.localSize[0] = local;
    return nd;
}

// --- Cross-check over the full benchmark suite -------------------------

/** Every runnable application, executed in CrossCheck mode: the
 *  runtime runs one circuit per scheduler (reference, event-driven,
 *  and compiled, concurrently) and throws unless RunResult,
 *  StatsReport, retired work-item counts, and final global memory are
 *  bit-identical — and unless compiled and event-driven agree on
 *  componentSteps. The `_t<N>` cases run it on N host threads at once
 *  (1, 2, and hardware_concurrency()): beside the checked run, N-1
 *  copies of the app run under the compiled scheduler, each on its own
 *  context, and must verify and match the checked run's counters. A
 *  simulation never depends on what else the process runs beside it,
 *  which is what lets the launch pool run independent launches on
 *  several cores. */
class CrossCheckRun
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{};

/** What one thread's run of an application produced. */
struct CopyOutcome
{
    bool verified = false;
    std::exception_ptr error;
    benchsuite::RunMetrics metrics;
};

std::string
describe(const std::exception_ptr &error)
{
    try {
        std::rethrow_exception(error);
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "unknown exception";
    }
}

TEST_P(CrossCheckRun, AllSchedulersMatchReference)
{
    const auto &[app_name, threads] = GetParam();
    const benchsuite::App *app = benchsuite::findApp(app_name);
    ASSERT_NE(app, nullptr);

    std::vector<CopyOutcome> outcomes(threads);
    auto run = [app](sim::SchedulerMode mode, CopyOutcome &out) {
        try {
            benchsuite::BenchContext ctx(benchsuite::Engine::SoffSim);
            sim::PlatformConfig platform;
            platform.scheduler = mode;
            ctx.setPlatformConfig(platform);
            out.verified = benchsuite::runApp(*app, ctx);
            out.metrics = ctx.metrics();
        } catch (...) {
            out.error = std::current_exception();
        }
    };
    std::vector<std::thread> copies;
    for (int i = 1; i < threads; ++i) {
        copies.emplace_back(run, sim::SchedulerMode::Compiled,
                            std::ref(outcomes[i]));
    }
    run(sim::SchedulerMode::CrossCheck, outcomes[0]);
    for (std::thread &t : copies)
        t.join();

    for (int i = 0; i < threads; ++i) {
        const CopyOutcome &out = outcomes[i];
        if (app->expectInsufficientResources) {
            ASSERT_TRUE(out.error) << "thread " << i;
            EXPECT_THROW(std::rethrow_exception(out.error), RuntimeError)
                << "thread " << i;
            continue;
        }
        ASSERT_FALSE(out.error) << "thread " << i << ": "
                                << describe(out.error);
        EXPECT_TRUE(out.verified) << app->name << " thread " << i;
        const benchsuite::RunMetrics &m = out.metrics;
        const benchsuite::RunMetrics &checked = outcomes[0].metrics;
        EXPECT_EQ(m.cycles, checked.cycles) << "thread " << i;
        EXPECT_EQ(m.componentSteps, checked.componentSteps)
            << "thread " << i;
        EXPECT_EQ(m.cyclesActive, checked.cyclesActive) << "thread " << i;
        EXPECT_EQ(m.cacheHits, checked.cacheHits) << "thread " << i;
        EXPECT_EQ(m.cacheMisses, checked.cacheMisses) << "thread " << i;
        EXPECT_EQ(m.dramBytes, checked.dramBytes) << "thread " << i;
    }
}

std::vector<std::string>
allAppNames()
{
    std::vector<std::string> names;
    for (const benchsuite::App &app : benchsuite::allApps())
        names.push_back(app.name);
    return names;
}

/** 1, 2, and hardware_concurrency() host threads, deduplicated. */
std::vector<int>
threadCounts()
{
    std::vector<int> counts = {
        1, 2, static_cast<int>(std::thread::hardware_concurrency())};
    std::sort(counts.begin(), counts.end());
    counts.erase(std::unique(counts.begin(), counts.end()),
                 counts.end());
    counts.erase(std::remove_if(counts.begin(), counts.end(),
                                [](int c) { return c < 1; }),
                 counts.end());
    return counts;
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, CrossCheckRun,
    ::testing::Combine(::testing::ValuesIn(allAppNames()),
                       ::testing::ValuesIn(threadCounts())),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>
           &info) {
        std::string name = std::get<0>(info.param) + "_t" +
                           std::to_string(std::get<1>(info.param));
        for (char &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

// --- Compiled mode over the full suite, with and without faults --------

/** Every runnable application under SchedulerMode::Compiled × fault
 *  seeds. Seed 0 disables injection; nonzero seeds install a fault
 *  plan, whose stall windows then gate channel queries inside the
 *  compiled plan's bucket sweep too (a blocked query arms the retry
 *  wake of the stepping member), and every app must still verify. */
class CompiledModeRun
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>>
{};

TEST_P(CompiledModeRun, VerifiesUnderFaultSeeds)
{
    const auto &[app_name, fault_seed] = GetParam();
    const benchsuite::App *app = benchsuite::findApp(app_name);
    ASSERT_NE(app, nullptr);
    benchsuite::BenchContext ctx(benchsuite::Engine::SoffSim);
    sim::PlatformConfig platform;
    platform.scheduler = sim::SchedulerMode::Compiled;
    platform.faults.seed = fault_seed;
    ctx.setPlatformConfig(platform);
    if (app->expectInsufficientResources) {
        EXPECT_THROW(benchsuite::runApp(*app, ctx), RuntimeError);
        return;
    }
    EXPECT_TRUE(benchsuite::runApp(*app, ctx)) << app->name;
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, CompiledModeRun,
    ::testing::Combine(::testing::ValuesIn(allAppNames()),
                       ::testing::Values(uint64_t{0}, uint64_t{42},
                                         uint64_t{1337})),
    [](const ::testing::TestParamInfo<std::tuple<std::string, uint64_t>>
           &info) {
        std::string name = std::get<0>(info.param) + "_f" +
                           std::to_string(std::get<1>(info.param));
        for (char &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

// --- Declared channel roles over the full suite -------------------------

/** Every runnable application under the default scheduler. In every
 *  circuit its launches ran, each channel must have a declared producer
 *  and a declared consumer (a second one in either role asserts at
 *  wiring), and the declarations must match the traffic: a component
 *  pushed exactly the tokens its produced channels delivered, and
 *  popped exactly the tokens its consumed channels delivered minus what
 *  they still hold. Commit wakes go only to declared endpoints, so a
 *  mis-declared role would otherwise show only as a missed wake in some
 *  future circuit. The circuits are read from the program's template
 *  pool, where each holds the final state of the last launch it ran. */
class RoleAudit : public ::testing::TestWithParam<std::string>
{};

TEST_P(RoleAudit, DeclaredRolesMatchTraffic)
{
    const benchsuite::App *app = benchsuite::findApp(GetParam());
    ASSERT_NE(app, nullptr);
    benchsuite::BenchContext ctx(benchsuite::Engine::SoffSim);
    if (app->expectInsufficientResources) {
        EXPECT_THROW(benchsuite::runApp(*app, ctx), RuntimeError);
        return;
    }
    ASSERT_TRUE(benchsuite::runApp(*app, ctx)) << app->name;
    size_t circuits = 0;
    ctx.program().forEachParkedCircuit([&](const sim::KernelCircuit &kc) {
        ++circuits;
        const sim::Simulator &sim = kc.simulator();
        const std::shared_ptr<sim::StatsReport> report =
            kc.buildStatsReport();
        std::vector<uint64_t> pushed(sim.numComponents(), 0);
        std::vector<uint64_t> popped(sim.numComponents(), 0);
        for (size_t i = 0; i < sim.numChannels(); ++i) {
            const sim::ChannelBase &ch = sim.channelAt(i);
            ASSERT_NE(ch.producer(), nullptr)
                << "channel " << ch.id() << " has no declared producer";
            ASSERT_NE(ch.consumer(), nullptr)
                << "channel " << ch.id() << " has no declared consumer";
            pushed[ch.producer()->index()] += ch.tokensDelivered();
            popped[ch.consumer()->index()] +=
                ch.tokensDelivered() - ch.occupancy();
        }
        for (size_t i = 0; i < sim.numComponents(); ++i) {
            const sim::ComponentStats &cs = report->components[i];
            EXPECT_EQ(cs.tokensOut, pushed[i]) << cs.name;
            EXPECT_EQ(cs.tokensIn, popped[i]) << cs.name;
        }
    });
    if (circuits == 0)
        GTEST_SKIP() << "no launch was pool-eligible (a timing fault "
                        "plan or a trace bypasses the template pool)";
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, RoleAudit, ::testing::ValuesIn(allAppNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

// --- Randomized cross-mode equivalence on small kernels ----------------

/** Runs one kernel launch under each scheduler from identical initial
 *  memory and compares cycle counts, stats, and output bytes. */
class RandomizedEquivalence : public ::testing::TestWithParam<int>
{};

TEST_P(RandomizedEquivalence, IdenticalCyclesStatsAndMemory)
{
    const char *src =
        "__kernel void mix(__global int* A, __global int* B, int n) {\n"
        "  int i = get_global_id(0);\n"
        "  int acc = 0;\n"
        "  for (int k = 0; k <= i % 7; k++) acc += A[(i + k) % n];\n"
        "  if (acc % 3 == 0) atomic_add(&B[i % 16], acc);\n"
        "  else B[16 + i % 16] = acc;\n"
        "}\n";
    SplitMix64 rng(static_cast<uint64_t>(GetParam()));
    const uint64_t local = 1ull << (1 + rng.next() % 4); // 2..16
    const uint64_t n = local * (1 + rng.next() % 8);
    std::vector<int32_t> a(n);
    for (auto &v : a)
        v = static_cast<int32_t>(rng.next() % 1000);

    rt::LaunchResult results[3];
    std::vector<int32_t> out[3];
    const sim::SchedulerMode modes[3] = {sim::SchedulerMode::Reference,
                                         sim::SchedulerMode::EventDriven,
                                         sim::SchedulerMode::Compiled};
    for (int m = 0; m < 3; ++m) {
        rt::Context ctx;
        rt::Program prog = ctx.buildProgram(src);
        auto kernel = prog.createKernel("mix");
        rt::Buffer ba = ctx.createBuffer(n * 4);
        rt::Buffer bb = ctx.createBuffer(32 * 4);
        std::vector<int32_t> zeros(32, 0);
        ctx.writeBuffer(ba, a.data(), n * 4);
        ctx.writeBuffer(bb, zeros.data(), 32 * 4);
        kernel.setArg(0, ba);
        kernel.setArg(1, bb);
        kernel.setArg(2, static_cast<int32_t>(n));
        sim::PlatformConfig platform;
        platform.scheduler = modes[m];
        results[m] = ctx.enqueueNDRange(kernel, range1d(n, local),
                                        rt::ExecutionMode::Simulate,
                                        platform);
        out[m].resize(32);
        ctx.readBuffer(bb, out[m].data(), 32 * 4);
    }
    for (int m = 1; m < 3; ++m) {
        EXPECT_EQ(results[0].cycles, results[m].cycles) << m;
        const sim::StatsReport &ref = *results[0].statsReport;
        const sim::StatsReport &alt = *results[m].statsReport;
        EXPECT_EQ(ref.cacheHits, alt.cacheHits) << m;
        EXPECT_EQ(ref.cacheMisses, alt.cacheMisses) << m;
        EXPECT_EQ(ref.dramTransfers, alt.dramTransfers) << m;
        EXPECT_EQ(ref.localBankConflicts, alt.localBankConflicts) << m;
        EXPECT_EQ(out[0], out[m]) << m;
        // The event-driven schedulers must not do *more* work than the
        // reference, which steps every component every cycle.
        EXPECT_LE(results[m].sched.componentSteps,
                  results[0].sched.componentSteps) << m;
    }
    // The compiled plan sweeps exactly the event-driven wake set.
    EXPECT_EQ(results[1].sched.componentSteps,
              results[2].sched.componentSteps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedEquivalence,
                         ::testing::Range(1, 9));

// --- Exact deadlock detection ------------------------------------------

/** Produces into a bounded channel; stalls for good once it fills. */
class StallingProducer : public sim::Component
{
  public:
    explicit StallingProducer(sim::Channel<int> *out)
        : Component("producer"), out_(out)
    {
        watchOut(out);
    }
    void
    step(sim::Cycle) override
    {
        if (out_->canPush())
            out_->push(1);
    }

  private:
    sim::Channel<int> *out_;
};

/** Watches its input but never consumes: the §IV-E deadlock. */
class NonConsumer : public sim::Component
{
  public:
    explicit NonConsumer(sim::Channel<int> *in)
        : Component("blackhole"), in_(in)
    {
        watchIn(in);
    }
    void step(sim::Cycle) override { (void)in_; }

  private:
    sim::Channel<int> *in_;
};

TEST(EventDriven, DeadlockDetectedAtExactQuiescenceCycle)
{
    auto runOnce = [] {
        sim::Simulator sim(sim::SchedulerMode::EventDriven);
        auto *ch = sim.channel<int>(2);
        sim.add<StallingProducer>(ch);
        sim.add<NonConsumer>(ch);
        return sim.run(nullptr, 1000000);
    };
    sim::Simulator::RunResult first = runOnce();
    EXPECT_TRUE(first.deadlock);
    EXPECT_FALSE(first.completed);
    // Quiescence is reached as soon as the channel fills: no heuristic
    // idle window, so detection is immediate and deterministic.
    EXPECT_LT(first.cycles, 10u);
    sim::Simulator::RunResult second = runOnce();
    EXPECT_EQ(first.cycles, second.cycles) << "exact, not heuristic";

    // The reference scheduler needs its idle-window heuristic and
    // reports the deadlock only after the window expires.
    sim::Simulator ref(sim::SchedulerMode::Reference);
    auto *ch = ref.channel<int>(2);
    ref.add<StallingProducer>(ch);
    ref.add<NonConsumer>(ch);
    sim::Simulator::RunResult heuristic = ref.run(nullptr, 1000000, 500);
    EXPECT_TRUE(heuristic.deadlock);
    EXPECT_GT(heuristic.cycles, first.cycles);
}

// --- Timer wakeups across clock jumps ----------------------------------

/** A component with no channels: it re-arms a far-future timer each
 *  step, so the scheduler must jump the clock across the idle gap. */
class SparseTicker : public sim::Component
{
  public:
    SparseTicker(std::vector<sim::Cycle> *ticks, bool *done)
        : Component("ticker"), ticks_(ticks), done_(done)
    {}
    void
    step(sim::Cycle now) override
    {
        if (now < next_) // timer guard: reference steps every cycle
            return;
        ticks_->push_back(now);
        if (ticks_->size() >= 5) {
            *done_ = true;
        } else {
            next_ = now + 1000;
            wakeAt(next_);
        }
    }

  private:
    std::vector<sim::Cycle> *ticks_;
    bool *done_;
    sim::Cycle next_ = 0;
};

TEST(EventDriven, TimerWakeupsAcrossClockJumps)
{
    sim::Simulator sim(sim::SchedulerMode::EventDriven);
    std::vector<sim::Cycle> ticks;
    bool done = false;
    sim.add<SparseTicker>(&ticks, &done);
    sim::Simulator::RunResult result = sim.run(&done, 1000000);
    EXPECT_TRUE(result.completed);
    ASSERT_EQ(ticks.size(), 5u);
    for (size_t i = 0; i < ticks.size(); ++i)
        EXPECT_EQ(ticks[i], i * 1000) << "tick " << i;
    EXPECT_GT(result.cycles, 4000u);
    // Only the five tick cycles were processed; the ~4000 idle cycles
    // in between were jumped over.
    EXPECT_LE(sim.schedulerStats().cyclesActive, 6u);
    EXPECT_EQ(sim.schedulerStats().componentSteps, 5u);
}

/** Same circuit under the reference scheduler: identical ticks, but
 *  every idle cycle is processed. */
TEST(Reference, TimerCircuitMatchesButProcessesEveryCycle)
{
    sim::Simulator sim(sim::SchedulerMode::Reference);
    std::vector<sim::Cycle> ticks;
    bool done = false;
    sim.add<SparseTicker>(&ticks, &done);
    sim::Simulator::RunResult result = sim.run(&done, 1000000);
    EXPECT_TRUE(result.completed);
    ASSERT_EQ(ticks.size(), 5u);
    for (size_t i = 0; i < ticks.size(); ++i)
        EXPECT_EQ(ticks[i], i * 1000) << "tick " << i;
    EXPECT_GE(sim.schedulerStats().componentSteps, 4000u);
}

} // namespace
} // namespace soff
