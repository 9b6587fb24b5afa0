/**
 * @file
 * Reliability layer of the launch engine: watchdog cycle budgets,
 * deterministic launch-visible fault injection, retry-with-backoff on
 * pristine memory, error containment across dependency chains,
 * cancellation, queue teardown, and the strict parsing of the new env
 * knobs. See DESIGN.md "Failure semantics".
 *
 * Every test that injects faults pins its own FaultConfig in code with
 * the *timing* fault classes zeroed, so launches stay template-pool
 * eligible and the tests are immune to the CI env legs (SOFF_FAULTS=42
 * injects timing faults only; an in-code config takes precedence).
 * Fault seeds are scanned against the same stateless FaultPlan the
 * runtime consults, so each test knows exactly which attempt of which
 * command fails — no flaky probabilistic assertions.
 */
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/runtime.hpp"
#include "sim/fault.hpp"
#include "support/error.hpp"

#include "scoped_env.hpp"

namespace soff::rt
{
namespace
{

const char *kKernels = R"CL(
__kernel void vadd(__global float* A, __global float* B,
                   __global float* C) {
  int g = get_global_id(0);
  C[g] = A[g] + B[g];
}
__kernel void smooth(__global float* A, __global float* B, int iters) {
  __local float tile[16];
  int l = get_local_id(0);
  int g = get_global_id(0);
  tile[l] = A[g];
  for (int t = 0; t < iters; t++) {
    barrier(CLK_LOCAL_MEM_FENCE);
    float left = tile[l == 0 ? 0 : l - 1];
    float right = tile[l == 15 ? 15 : l + 1];
    barrier(CLK_LOCAL_MEM_FENCE);
    tile[l] = 0.5f * tile[l] + 0.25f * (left + right);
  }
  B[g] = tile[l];
}
)CL";

constexpr uint32_t kN = 32;

std::vector<float>
inputA()
{
    std::vector<float> a(kN);
    for (uint32_t i = 0; i < kN; ++i)
        a[i] = static_cast<float>(i % 13) * 0.5f;
    return a;
}

std::vector<float>
inputB()
{
    std::vector<float> b(kN);
    for (uint32_t i = 0; i < kN; ++i)
        b[i] = static_cast<float>(i % 9) * 0.25f;
    return b;
}

std::vector<float>
vaddOracle()
{
    std::vector<float> a = inputA(), b = inputB(), c(kN);
    for (uint32_t i = 0; i < kN; ++i)
        c[i] = a[i] + b[i];
    return c;
}

/** A launch-visible-only fault config: every timing class zeroed so
 *  perturbsTiming() is false (pool-eligible, env-leg-immune). */
sim::FaultConfig
launchFaultConfig(uint64_t seed)
{
    sim::FaultConfig fc;
    fc.seed = seed;
    fc.stallProb = 0.0;
    fc.memStallProb = 0.0;
    fc.dramSpikeEvery = 0;
    fc.dramJitterMax = 0;
    fc.fifoSlackCut = 0;
    return fc;
}

/** One simple vadd workload bound to fresh buffers in a context. */
struct VaddSetup
{
    Program program;
    KernelHandle kernel;
    Buffer in0, in1, out;

    explicit VaddSetup(Context &ctx)
        : program(ctx.buildProgram(kKernels)),
          kernel(program.createKernel("vadd")),
          in0(ctx.createBuffer(kN * 4)), in1(ctx.createBuffer(kN * 4)),
          out(ctx.createBuffer(kN * 4))
    {
        std::vector<float> a = inputA(), b = inputB();
        ctx.writeBuffer(in0, a.data(), kN * 4);
        ctx.writeBuffer(in1, b.data(), kN * 4);
    }

    sim::NDRange
    bind()
    {
        kernel.setArg(0, in0);
        kernel.setArg(1, in1);
        kernel.setArg(2, out);
        sim::NDRange nd;
        nd.globalSize[0] = kN;
        nd.localSize[0] = 16;
        return nd;
    }
};

std::vector<float>
readOut(Context &ctx, const Buffer &out)
{
    std::vector<float> c(kN);
    ctx.readBuffer(out, c.data(), kN * 4);
    return c;
}

/** Cycle count of the vadd launch, measured in a side context with the
 *  identical allocation sequence (addresses — and therefore cycle
 *  counts — match the test context's). */
uint64_t
measureVaddCycles()
{
    Context ctx;
    VaddSetup v(ctx);
    sim::NDRange nd = v.bind();
    LaunchResult r = ctx.enqueueNDRange(v.kernel, nd);
    return r.cycles;
}

ClStatus
statusOfFinish(CommandQueue &queue)
{
    try {
        queue.finish();
        return ClStatus::Success;
    } catch (const OpenClError &e) {
        return e.status();
    }
}

// ----------------------------------------------------------------------
// Watchdog
// ----------------------------------------------------------------------
TEST(Watchdog, TinyBudgetTripsWithDistinctStatus)
{
    Context ctx;
    VaddSetup v(ctx);
    QueueOptions opts;
    opts.launchTimeoutCycles = 5; // No kernel completes in 5 cycles.
    CommandQueue queue(ctx, opts);
    Event ev;
    queue.enqueueNDRange(v.kernel, v.bind(), {}, &ev);
    // finish() must *return* (throwing, not wedging) and surface the
    // distinct watchdog status, not the generic CL_OUT_OF_RESOURCES.
    EXPECT_EQ(statusOfFinish(queue), ClStatus::SoffLaunchTimeout);
    EXPECT_TRUE(ev.isComplete());
    EXPECT_EQ(ev.executionStatus(),
              static_cast<int>(ClStatus::SoffLaunchTimeout));
    ReliabilityStats s = queue.reliabilityStats();
    EXPECT_EQ(s.retired, 1u);
    EXPECT_EQ(s.failed, 1u);
    EXPECT_EQ(s.watchdogTrips, 1u);
    // A fresh launch with a generous budget still works: the trip
    // poisoned nothing.
    QueueOptions generous;
    generous.launchTimeoutCycles = 100000000;
    CommandQueue queue2(ctx, generous);
    queue2.enqueueNDRange(v.kernel, v.bind());
    EXPECT_NO_THROW(queue2.finish());
    EXPECT_EQ(readOut(ctx, v.out), vaddOracle());
    EXPECT_EQ(queue2.reliabilityStats().watchdogTrips, 0u);
}

TEST(Watchdog, EnvKnobParsesStrictly)
{
    Context ctx;
    VaddSetup v(ctx);
    CommandQueue queue(ctx);
    for (const char *bad : {"abc", "0", " 5", "5x", "-3", "+7", ""}) {
        if (*bad == '\0')
            continue; // Empty means unset, not invalid.
        ScopedEnv env("SOFF_LAUNCH_TIMEOUT", bad);
        SCOPED_TRACE(testing::Message()
                     << "SOFF_LAUNCH_TIMEOUT='" << bad << "'");
        try {
            queue.enqueueNDRange(v.kernel, v.bind());
            FAIL() << "expected CL_INVALID_VALUE at enqueue";
        } catch (const OpenClError &e) {
            EXPECT_EQ(e.status(), ClStatus::InvalidValue);
        }
    }
    // Errors threw synchronously at enqueue: nothing pending.
    EXPECT_NO_THROW(queue.finish());
    {
        // A valid value is honored: 5 cycles trips the watchdog.
        ScopedEnv env("SOFF_LAUNCH_TIMEOUT", "5");
        queue.enqueueNDRange(v.kernel, v.bind());
        EXPECT_EQ(statusOfFinish(queue), ClStatus::SoffLaunchTimeout);
    }
}

TEST(Watchdog, RetryEnvKnobParsesStrictly)
{
    Context ctx;
    Buffer buf = ctx.createBuffer(64);
    CommandQueue queue(ctx);
    std::vector<uint8_t> bytes(64, 1);
    for (const char *bad : {"abc", "-2", "17", " 1", "2x"}) {
        ScopedEnv env("SOFF_LAUNCH_RETRY", bad);
        SCOPED_TRACE(testing::Message()
                     << "SOFF_LAUNCH_RETRY='" << bad << "'");
        try {
            queue.enqueueWrite(buf, bytes.data(), bytes.size());
            FAIL() << "expected CL_INVALID_VALUE at enqueue";
        } catch (const OpenClError &e) {
            EXPECT_EQ(e.status(), ClStatus::InvalidValue);
        }
    }
    {
        ScopedEnv env("SOFF_LAUNCH_RETRY", "2");
        EXPECT_NO_THROW(
            queue.enqueueWrite(buf, bytes.data(), bytes.size()));
    }
    EXPECT_NO_THROW(queue.finish());
}

// ----------------------------------------------------------------------
// Transient faults and retry
// ----------------------------------------------------------------------
TEST(Retry, InjectedLaunchAbortIsRetriedToSuccess)
{
    // Find a seed where attempt 0 of the launch (enqueue ordinal 0)
    // aborts before the kernel would complete and attempt 1 runs
    // clean — scanned against the same stateless FaultPlan the runtime
    // consults, so the outcome is fully determined.
    uint64_t cycles = measureVaddCycles();
    ASSERT_GT(cycles, 1u);
    uint64_t seed = 0;
    for (uint64_t candidate = 1; candidate < 50000 && seed == 0;
         ++candidate) {
        sim::FaultConfig fc = launchFaultConfig(candidate);
        fc.abortEvery = 2;
        sim::FaultPlan plan(fc);
        uint64_t at0 = 0, at1 = 0;
        if (plan.launchAborts(0, 0, &at0) && at0 < cycles &&
            !plan.launchAborts(0, 1, &at1))
            seed = candidate;
    }
    ASSERT_NE(seed, 0u) << "no abort seed found in the scan range";

    Context ctx;
    VaddSetup v(ctx);
    QueueOptions opts;
    opts.faults = launchFaultConfig(seed);
    opts.faults.abortEvery = 2;
    opts.retry.attempts = 2;
    CommandQueue queue(ctx, opts);
    Event ev;
    queue.enqueueNDRange(v.kernel, v.bind(), {}, &ev);
    EXPECT_NO_THROW(queue.finish());
    EXPECT_EQ(ev.executionStatus(), 0); // CL_COMPLETE
    EXPECT_EQ(readOut(ctx, v.out), vaddOracle());
    EXPECT_TRUE(ev.valid()); // Profiling stamped despite the retry.

    ReliabilityStats s = queue.reliabilityStats();
    EXPECT_EQ(s.retired, 1u);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_EQ(s.retries, 1u);
    EXPECT_EQ(s.faultsInjected, 1u);
    EXPECT_EQ(s.faultsRetriedAway, 1u);
    EXPECT_EQ(s.faultsSurfaced, 0u);
    // Accounting invariant: every injected fault is either retried
    // away or surfaced.
    InjectedFaultCounters inj = ctx.injectedFaults();
    EXPECT_EQ(inj.launchAborts, 1u);
    EXPECT_EQ(inj.total(), s.faultsRetriedAway + s.faultsSurfaced);
}

TEST(Retry, ExhaustedBudgetSurfacesTransientFault)
{
    // poolevery=1 fails *every* checkout attempt (h % 1 == 0): with 2
    // retries the command performs 3 attempts, observes 3 faults, and
    // surfaces SOFF_TRANSIENT_FAULT.
    Context ctx;
    VaddSetup v(ctx);
    QueueOptions opts;
    opts.faults = launchFaultConfig(7);
    opts.faults.poolFailEvery = 1;
    opts.retry.attempts = 2;
    CommandQueue queue(ctx, opts);
    Event ev;
    queue.enqueueNDRange(v.kernel, v.bind(), {}, &ev);
    EXPECT_EQ(statusOfFinish(queue), ClStatus::SoffTransientFault);
    EXPECT_EQ(ev.executionStatus(),
              static_cast<int>(ClStatus::SoffTransientFault));

    ReliabilityStats s = queue.reliabilityStats();
    EXPECT_EQ(s.retired, 1u);
    EXPECT_EQ(s.failed, 1u);
    EXPECT_EQ(s.retries, 2u);
    EXPECT_EQ(s.faultsInjected, 3u);
    EXPECT_EQ(s.faultsRetriedAway, 0u);
    EXPECT_EQ(s.faultsSurfaced, 3u);
    InjectedFaultCounters inj = ctx.injectedFaults();
    EXPECT_EQ(inj.poolCheckouts, 3u);
    EXPECT_EQ(inj.total(), s.faultsRetriedAway + s.faultsSurfaced);
}

TEST(Retry, NoPolicyMeansSingleAttempt)
{
    Context ctx;
    VaddSetup v(ctx);
    QueueOptions opts;
    opts.faults = launchFaultConfig(7);
    opts.faults.poolFailEvery = 1;
    opts.retry.attempts = 0; // Explicitly no retries.
    CommandQueue queue(ctx, opts);
    queue.enqueueNDRange(v.kernel, v.bind());
    EXPECT_EQ(statusOfFinish(queue), ClStatus::SoffTransientFault);
    ReliabilityStats s = queue.reliabilityStats();
    EXPECT_EQ(s.retries, 0u);
    EXPECT_EQ(s.faultsInjected, 1u);
    EXPECT_EQ(s.faultsSurfaced, 1u);
}

TEST(Retry, TransientDmaFaultIsRetried)
{
    // DMA commands draw ordinals from the same context counter: the
    // write below is ordinal 0, the read ordinal 1. Scan for a seed
    // where only the write's first attempt fails.
    uint64_t seed = 0;
    for (uint64_t candidate = 1; candidate < 50000 && seed == 0;
         ++candidate) {
        sim::FaultConfig fc = launchFaultConfig(candidate);
        fc.dmaFailEvery = 2;
        sim::FaultPlan plan(fc);
        if (plan.dmaFails(0, 0) && !plan.dmaFails(0, 1) &&
            !plan.dmaFails(1, 0))
            seed = candidate;
    }
    ASSERT_NE(seed, 0u) << "no DMA-fault seed found in the scan range";

    Context ctx;
    Buffer buf = ctx.createBuffer(256);
    QueueOptions opts;
    opts.faults = launchFaultConfig(seed);
    opts.faults.dmaFailEvery = 2;
    opts.retry.attempts = 2;
    CommandQueue queue(ctx, opts);
    std::vector<uint8_t> src(256);
    for (size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<uint8_t>(i * 7);
    std::vector<uint8_t> dst(256, 0);
    queue.enqueueWrite(buf, src.data(), src.size());
    queue.enqueueRead(buf, dst.data(), dst.size());
    EXPECT_NO_THROW(queue.finish());
    EXPECT_EQ(dst, src);

    ReliabilityStats s = queue.reliabilityStats();
    EXPECT_EQ(s.retired, 2u);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_EQ(s.retries, 1u);
    EXPECT_EQ(s.faultsRetriedAway, 1u);
    InjectedFaultCounters inj = ctx.injectedFaults();
    EXPECT_EQ(inj.dmaTransfers, 1u);
    EXPECT_EQ(inj.total(), s.faultsRetriedAway + s.faultsSurfaced);
}

TEST(Retry, FaultFreePolicyIsBitIdenticalToSerial)
{
    // A retry policy with no faults to retry must be invisible: the
    // pristine-memory snapshot layer may not change results, stats,
    // or profiling stamps relative to the serial in-order path.
    std::vector<float> serial_out;
    uint64_t serial_end = 0;
    {
        Context ctx;
        VaddSetup v(ctx);
        Event ev;
        ctx.enqueueNDRange(v.kernel, v.bind(), ExecutionMode::Simulate,
                           {}, 0, &ev);
        serial_out = readOut(ctx, v.out);
        serial_end = ev.endNs();
    }
    Context ctx;
    VaddSetup v(ctx);
    QueueOptions opts;
    opts.retry.attempts = 3; // Armed, never exercised.
    CommandQueue queue(ctx, opts);
    Event ev;
    queue.enqueueNDRange(v.kernel, v.bind(), {}, &ev);
    queue.finish();
    EXPECT_EQ(readOut(ctx, v.out), serial_out);
    EXPECT_EQ(ev.endNs(), serial_end);
    ReliabilityStats s = queue.reliabilityStats();
    EXPECT_EQ(s.retries, 0u);
    EXPECT_EQ(s.faultsInjected, 0u);
    EXPECT_EQ(ctx.injectedFaults().total(), 0u);
}

// ----------------------------------------------------------------------
// Containment
// ----------------------------------------------------------------------
TEST(Containment, FailedCommandFailsDependentsAcrossQueues)
{
    Context ctx;
    VaddSetup v(ctx);
    Buffer out2 = ctx.createBuffer(kN * 4);
    std::vector<float> sentinel(kN, -1.0f);
    ctx.writeBuffer(out2, sentinel.data(), kN * 4);

    QueueOptions failing;
    failing.faults = launchFaultConfig(7);
    failing.faults.poolFailEvery = 1;
    CommandQueue queue_a(ctx, failing);
    CommandQueue queue_b(ctx); // No faults.

    Event failed;
    queue_a.enqueueNDRange(v.kernel, v.bind(), {}, &failed);

    // A launch in *another* queue gated on the failed event must be
    // terminated without executing (its output keeps the sentinel),
    // and so must the read chained behind it.
    v.kernel.setArg(0, v.in0);
    v.kernel.setArg(1, v.in1);
    v.kernel.setArg(2, out2);
    sim::NDRange nd;
    nd.globalSize[0] = kN;
    nd.localSize[0] = 16;
    Event dependent;
    queue_b.enqueueNDRange(v.kernel, nd, {failed}, &dependent);
    std::vector<float> host(kN, 0.0f);
    Event read;
    queue_b.enqueueRead(out2, host.data(), kN * 4, {dependent}, &read);

    EXPECT_EQ(statusOfFinish(queue_a), ClStatus::SoffTransientFault);
    EXPECT_EQ(statusOfFinish(queue_b),
              ClStatus::ExecStatusErrorForEventsInWaitList);
    EXPECT_EQ(dependent.executionStatus(),
              static_cast<int>(
                  ClStatus::ExecStatusErrorForEventsInWaitList));
    EXPECT_EQ(read.executionStatus(),
              static_cast<int>(
                  ClStatus::ExecStatusErrorForEventsInWaitList));
    EXPECT_EQ(readOut(ctx, out2), sentinel) << "skipped launch ran";

    ReliabilityStats sb = queue_b.reliabilityStats();
    EXPECT_EQ(sb.retired, 2u);
    EXPECT_EQ(sb.failed, 2u);
    EXPECT_EQ(sb.depSkipped, 2u);
}

TEST(Containment, CancelledUserEventFailsDependents)
{
    Context ctx;
    VaddSetup v(ctx);
    CommandQueue queue(ctx);
    Event gate = ctx.createUserEvent();
    Event dependent;
    queue.enqueueNDRange(v.kernel, v.bind(), {gate}, &dependent);
    gate.cancel();
    EXPECT_EQ(gate.executionStatus(),
              static_cast<int>(ClStatus::SoffCommandCancelled));
    EXPECT_EQ(statusOfFinish(queue),
              ClStatus::ExecStatusErrorForEventsInWaitList);
    EXPECT_EQ(dependent.executionStatus(),
              static_cast<int>(
                  ClStatus::ExecStatusErrorForEventsInWaitList));
    EXPECT_EQ(queue.reliabilityStats().depSkipped, 1u);
}

// ----------------------------------------------------------------------
// Cancellation
// ----------------------------------------------------------------------
TEST(Cancel, PendingGatedCommandDrainsAsCancelled)
{
    Context ctx;
    VaddSetup v(ctx);
    CommandQueue queue(ctx);
    // Gated on a user event that never completes: without cancel the
    // queue would be wedged forever.
    Event gate = ctx.createUserEvent();
    Event ev;
    queue.enqueueNDRange(v.kernel, v.bind(), {gate}, &ev);
    ev.cancel();
    EXPECT_EQ(statusOfFinish(queue), ClStatus::SoffCommandCancelled);
    EXPECT_EQ(ev.executionStatus(),
              static_cast<int>(ClStatus::SoffCommandCancelled));
    EXPECT_EQ(queue.reliabilityStats().cancelled, 1u);
    // Cancelling an already-complete event is a no-op, not an error.
    EXPECT_NO_THROW(ev.cancel());
    gate.setComplete();
}

TEST(Cancel, RunningLaunchStopsCooperatively)
{
    Context ctx;
    Program program = ctx.buildProgram(kKernels);
    KernelHandle kernel = program.createKernel("smooth");
    Buffer in = ctx.createBuffer(16 * 4);
    Buffer out = ctx.createBuffer(16 * 4);
    std::vector<float> a(16, 1.0f);
    ctx.writeBuffer(in, a.data(), 16 * 4);
    kernel.setArg(0, in);
    kernel.setArg(1, out);
    kernel.setArg(2, static_cast<int32_t>(50000)); // Long-running.
    sim::NDRange nd;
    nd.globalSize[0] = 16;
    nd.localSize[0] = 16;
    CommandQueue queue(ctx);
    Event ev;
    queue.enqueueNDRange(kernel, nd, {}, &ev);
    // Wait until the launch is actually executing, then cancel: the
    // simulator must stop at the next cycle boundary.
    while (ev.status() != CommandStatus::Running &&
           ev.status() != CommandStatus::Complete)
        std::this_thread::yield();
    ev.cancel();
    EXPECT_EQ(statusOfFinish(queue), ClStatus::SoffCommandCancelled);
    EXPECT_EQ(ev.executionStatus(),
              static_cast<int>(ClStatus::SoffCommandCancelled));
    EXPECT_EQ(queue.reliabilityStats().cancelled, 1u);
}

TEST(Cancel, CancelAllUnwedgesQueueAndSwallowsErrors)
{
    Context ctx;
    VaddSetup v(ctx);
    CommandQueue queue(ctx); // In-order: the gate wedges everything.
    Event gate = ctx.createUserEvent();
    std::vector<Event> events(4);
    queue.enqueueNDRange(v.kernel, v.bind(), {gate}, &events[0]);
    for (int i = 1; i < 4; ++i)
        queue.enqueueNDRange(v.kernel, v.bind(), {}, &events[i]);
    queue.cancelAll(); // Must return despite the abandoned gate.
    for (const Event &ev : events) {
        EXPECT_TRUE(ev.isComplete());
        int st = ev.executionStatus();
        EXPECT_TRUE(
            st == static_cast<int>(ClStatus::SoffCommandCancelled) ||
            st == static_cast<int>(
                      ClStatus::ExecStatusErrorForEventsInWaitList))
            << "unexpected status " << st;
    }
    // cancelAll swallows the queue-level error: a subsequent finish()
    // (and the destructor) must not rethrow the cancellations.
    EXPECT_NO_THROW(queue.finish());
    ReliabilityStats s = queue.reliabilityStats();
    EXPECT_EQ(s.retired, 4u);
    EXPECT_EQ(s.failed, 4u);
    gate.setComplete();
}

// ----------------------------------------------------------------------
// Callback exception safety
// ----------------------------------------------------------------------
TEST(Callbacks, ThrowingCallbackIsSwallowedAndCounted)
{
    Context ctx;
    VaddSetup v(ctx);
    CommandQueue queue(ctx);
    Event ev;
    queue.enqueueNDRange(v.kernel, v.bind(), {}, &ev);
    ev.onComplete([] { throw std::runtime_error("user callback"); });
    Event ev2; // The drain must survive the throw: this still retires.
    queue.enqueueNDRange(v.kernel, v.bind(), {}, &ev2);
    EXPECT_NO_THROW(queue.finish()); // Command itself succeeded.
    EXPECT_EQ(ev.executionStatus(), 0);
    EXPECT_EQ(ev2.executionStatus(), 0);
    EXPECT_EQ(readOut(ctx, v.out), vaddOracle());
    ReliabilityStats s = queue.reliabilityStats();
    EXPECT_EQ(s.retired, 2u);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_EQ(s.callbackExceptions, 1u);
}

// ----------------------------------------------------------------------
// Teardown
// ----------------------------------------------------------------------
TEST(Teardown, ContextWithFailedRetriedCancelledCommandsLeaksNothing)
{
    // Exercised under AddressSanitizer in CI (detect_leaks=1): a
    // context destroyed with failed, retried, cancelled, and
    // dependency-skipped commands having been in flight must complete
    // every event and free everything.
    std::vector<Event> events;
    {
        Context ctx;
        VaddSetup v(ctx);
        QueueOptions failing;
        failing.faults = launchFaultConfig(7);
        failing.faults.poolFailEvery = 1;
        failing.retry.attempts = 1;
        CommandQueue queue_a(ctx, failing);
        CommandQueue queue_b(ctx);
        Event gate = ctx.createUserEvent();
        for (int i = 0; i < 3; ++i) {
            Event ev;
            queue_a.enqueueNDRange(v.kernel, v.bind(), {}, &ev);
            events.push_back(ev);
        }
        Event gated;
        queue_b.enqueueNDRange(v.kernel, v.bind(), {gate}, &gated);
        events.push_back(gated);
        Event chained;
        queue_b.enqueueNDRange(v.kernel, v.bind(), {gated}, &chained);
        events.push_back(chained);
        Event ok;
        queue_b.enqueueNDRange(v.kernel, v.bind(), {}, &ok);
        events.push_back(ok);
        gated.cancel();
        queue_a.cancelAll();
        queue_b.cancelAll();
        for (const Event &ev : events)
            EXPECT_TRUE(ev.isComplete());
        // Queues and context unwind here with the full mix retired.
    }
    for (const Event &ev : events)
        EXPECT_TRUE(ev.isComplete());
}

} // namespace
} // namespace soff::rt
