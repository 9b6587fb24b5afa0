/** @file Unit tests for the runtime: device allocator, buffer DMA,
 *  argument validation, partial reconfiguration, command queues and
 *  events, the circuit-template pool, baselines, and the Table II
 *  compatibility rules. */
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <thread>

#include <unistd.h>

#include <gtest/gtest.h>

#include "baseline/compat.hpp"
#include "baseline/static_pipeline.hpp"
#include "runtime/runtime.hpp"
#include "support/error.hpp"

#include "scoped_env.hpp"

namespace soff::rt
{
namespace
{

TEST(Device, AllocatorReusesFreedBlocks)
{
    Device device(datapath::FpgaSpec::arria10(), 1 << 20);
    uint64_t a = device.allocate(1000);
    uint64_t b = device.allocate(2000);
    EXPECT_NE(a, b);
    EXPECT_NE(a, 0u);
    device.release(a);
    uint64_t c = device.allocate(500);
    EXPECT_EQ(c, a) << "first-fit reuse of the freed block";
    device.release(b);
    device.release(c);
    // Coalesced: a large allocation fits again.
    uint64_t d = device.allocate((1 << 20) - 4096);
    EXPECT_NE(d, 0u);
}

TEST(Device, ExhaustionThrows)
{
    Device device(datapath::FpgaSpec::arria10(), 1 << 12);
    EXPECT_THROW(device.allocate(1 << 20), RuntimeError);
}

TEST(Device, AllocationsAreLineAligned)
{
    Device device(datapath::FpgaSpec::arria10(), 1 << 20);
    for (int i = 0; i < 5; ++i) {
        uint64_t addr = device.allocate(i * 7 + 3);
        EXPECT_EQ(addr % 64, 0u) << "64-byte alignment (cache lines)";
    }
}

TEST(Context, BufferRoundTrip)
{
    Context ctx;
    std::vector<int32_t> data = {1, 2, 3, 4, 5};
    Buffer buffer = ctx.createBuffer(data.size() * 4);
    ctx.writeBuffer(buffer, data.data(), data.size() * 4);
    std::vector<int32_t> out(data.size());
    ctx.readBuffer(buffer, out.data(), out.size() * 4);
    EXPECT_EQ(out, data);
    ctx.releaseBuffer(buffer);
    EXPECT_FALSE(buffer.valid());
}

const char *kTwoKernels = R"CL(
__kernel void a(__global int* X) { X[get_global_id(0)] = 1; }
__kernel void b(__global int* X, int v) { X[get_global_id(0)] = v; }
)CL";

TEST(Program, KernelLookup)
{
    Context ctx;
    Program program = ctx.buildProgram(kTwoKernels);
    EXPECT_NO_THROW(program.createKernel("a"));
    EXPECT_NO_THROW(program.createKernel("b"));
    EXPECT_THROW(program.createKernel("missing"), RuntimeError);
}

TEST(KernelHandle, ArgumentValidation)
{
    Context ctx;
    Program program = ctx.buildProgram(kTwoKernels);
    KernelHandle kernel = program.createKernel("b");
    Buffer buffer = ctx.createBuffer(256);
    EXPECT_THROW(kernel.setArg(0, int32_t{1}), RuntimeError)
        << "buffer arg given a scalar";
    EXPECT_THROW(kernel.setArg(1, buffer), RuntimeError)
        << "scalar arg given a buffer";
    EXPECT_THROW(kernel.setArg(2, int32_t{1}), RuntimeError)
        << "index out of range";
    kernel.setArg(0, buffer);
    sim::NDRange nd;
    nd.globalSize[0] = 64;
    nd.localSize[0] = 64;
    EXPECT_THROW(ctx.enqueueNDRange(kernel, nd), RuntimeError)
        << "arg 1 never set";
    kernel.setArg(1, int32_t{9});
    EXPECT_NO_THROW(ctx.enqueueNDRange(kernel, nd));
}

/** This process's resident set in bytes, or -1 if /proc/self/statm
 *  cannot be read. */
long long
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    long long size = 0, resident = 0;
    if (!(statm >> size >> resident))
        return -1;
    return resident * sysconf(_SC_PAGESIZE);
}

/** Whether a large calloc leaves its pages untouched. ThreadSanitizer's
 *  calloc zero-fills every byte, so there resident memory cannot show
 *  demand-zero storage. */
bool
callocLeavesPagesUntouched()
{
    long long before = residentBytes();
    void *volatile probe = std::calloc(64 << 20, 1);
    long long grown = residentBytes() - before;
    std::free(probe);
    return grown < (32ll << 20);
}

TEST(Context, OpenAndLaunchTouchLittleDeviceMemory)
{
    // Device memory is demand-zero: a default 256 MiB context and one
    // write -> launch -> read chain fault in only the pages they use.
    long long before = residentBytes();
    if (before < 0)
        GTEST_SKIP() << "/proc/self/statm is unreadable";
    if (!callocLeavesPagesUntouched())
        GTEST_SKIP() << "calloc zero-fills its pages in this build";
    before = residentBytes();
    Context ctx;
    Program program = ctx.buildProgram(kTwoKernels);
    KernelHandle kernel = program.createKernel("b");
    std::vector<int32_t> data(256, -1);
    Buffer buffer = ctx.createBuffer(data.size() * 4);
    ctx.writeBuffer(buffer, data.data(), data.size() * 4);
    kernel.setArg(0, buffer);
    kernel.setArg(1, int32_t{3});
    sim::NDRange nd;
    nd.globalSize[0] = 256;
    nd.localSize[0] = 64;
    ctx.enqueueNDRange(kernel, nd);
    ctx.readBuffer(buffer, data.data(), data.size() * 4);
    EXPECT_EQ(data, std::vector<int32_t>(256, 3));
    long long grown = residentBytes() - before;
    EXPECT_LT(grown, 32ll << 20)
        << "resident memory grew by " << (grown >> 20) << " MiB";
}

TEST(Context, RejectsIndivisibleNDRange)
{
    Context ctx;
    Program program = ctx.buildProgram(kTwoKernels);
    KernelHandle kernel = program.createKernel("a");
    kernel.setArg(0, ctx.createBuffer(4096));
    sim::NDRange nd;
    nd.globalSize[0] = 100;
    nd.localSize[0] = 64; // 100 % 64 != 0
    EXPECT_THROW(ctx.enqueueNDRange(kernel, nd), RuntimeError);
}

TEST(Context, ReferenceAndSimulateAgree)
{
    std::vector<int32_t> sim_out(128), ref_out(128);
    for (int mode = 0; mode < 2; ++mode) {
        Context ctx;
        Program program = ctx.buildProgram(kTwoKernels);
        KernelHandle kernel = program.createKernel("b");
        Buffer buffer = ctx.createBuffer(128 * 4);
        kernel.setArg(0, buffer);
        kernel.setArg(1, int32_t{41});
        sim::NDRange nd;
        nd.globalSize[0] = 128;
        nd.localSize[0] = 32;
        ctx.enqueueNDRange(kernel, nd,
                           mode == 0 ? ExecutionMode::Simulate
                                     : ExecutionMode::Reference);
        ctx.readBuffer(buffer, (mode == 0 ? sim_out : ref_out).data(),
                       128 * 4);
    }
    EXPECT_EQ(sim_out, ref_out);
}

// --- Circuit-template memoization ---------------------------------------

/** Barrier + local memory + loop: exercises every relaunch reset path
 *  (barrier buckets, local-memory slots, caches, loop gates). */
const char *kCacheKernel = R"CL(
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

struct CacheLaunch
{
    uint64_t cycles = 0;
    std::vector<float> out;
    std::shared_ptr<const sim::StatsReport> stats;
};

/** Runs `launches` in one Context (later ones hit the circuit cache)
 *  and returns the outcome of the last launch. */
CacheLaunch
runLaunchLoop(const std::vector<std::pair<uint64_t, int32_t>> &launches)
{
    Context ctx;
    Program program = ctx.buildProgram(kCacheKernel);
    KernelHandle kernel = program.createKernel("smooth");
    Buffer a = ctx.createBuffer(256 * 4);
    Buffer b = ctx.createBuffer(256 * 4);
    kernel.setArg(0, a);
    kernel.setArg(1, b);
    CacheLaunch last;
    for (const auto &[n, iters] : launches) {
        std::vector<float> in(n);
        for (uint64_t i = 0; i < n; ++i)
            in[i] = static_cast<float>(i % 13) * 0.5f +
                    static_cast<float>(iters);
        ctx.writeBuffer(a, in.data(), n * 4);
        kernel.setArg(2, iters);
        sim::NDRange nd;
        nd.globalSize[0] = n;
        nd.localSize[0] = 16;
        Event event;
        LaunchResult r = ctx.enqueueNDRange(
            kernel, nd, ExecutionMode::Simulate, {}, 0, &event);
        last.cycles = r.cycles;
        last.out.assign(n, 0.0f);
        ctx.readBuffer(b, last.out.data(), n * 4);
        last.stats = soffGetKernelStats(event);
    }
    EXPECT_EQ(program.circuitCacheSize(), 1u)
        << "one circuit template parked per (plan, instances, platform)";
    return last;
}

TEST(CircuitCache, RelaunchMatchesColdBuild)
{
    // Warm path: three launches with different NDRanges and arguments,
    // the later ones rearming the memoized circuit. Cold path: a fresh
    // context running only the final launch. Cycle counts, results,
    // and the full architectural StatsReport must be bit-identical.
    // Timing faults bypass the pool by design, so SOFF_FAULTS is
    // pinned off.
    ScopedEnv faults("SOFF_FAULTS", nullptr);
    CacheLaunch warm = runLaunchLoop({{64, 1}, {128, 3}, {96, 2}});
    CacheLaunch cold = runLaunchLoop({{96, 2}});
    EXPECT_EQ(warm.cycles, cold.cycles);
    EXPECT_EQ(warm.out, cold.out);
    ASSERT_NE(warm.stats, nullptr);
    ASSERT_NE(cold.stats, nullptr);
    EXPECT_EQ(sim::diffStatsReports(*warm.stats, *cold.stats), "")
        << "relaunch must reproduce the cold build's counters exactly";
}

TEST(CircuitCache, CacheDiesWithProgram)
{
    // Regression: the cache entry holds raw pointers into the plan's
    // IR, so it must live in the Program, not the Context. Rebuilding
    // the same source yields a fresh plan that may reuse the old
    // plan's address — a context-scoped cache would serve the stale
    // circuit (use-after-free). Two build/launch rounds in one context
    // must behave exactly like two cold builds. Timing faults would
    // bypass the pool, so SOFF_FAULTS is pinned off.
    ScopedEnv faults("SOFF_FAULTS", nullptr);
    Context ctx;
    sim::NDRange nd;
    nd.globalSize[0] = 64;
    nd.localSize[0] = 16;
    std::array<uint64_t, 2> cycles{};
    for (int round = 0; round < 2; ++round) {
        Program program = ctx.buildProgram(kTwoKernels);
        KernelHandle kernel = program.createKernel("a");
        kernel.setArg(0, ctx.createBuffer(4096));
        cycles[static_cast<size_t>(round)] =
            ctx.enqueueNDRange(kernel, nd).cycles;
        EXPECT_EQ(program.circuitCacheSize(), 1u);
    } // ~Program drops the parked circuit with the plan it references.
    EXPECT_EQ(cycles[0], cycles[1]);
}

// --- Device thread-safety ------------------------------------------------

TEST(Device, ConcurrentAllocDmaRelease)
{
    // The allocator block list and the DMA engine share one board
    // mutex; hammering them from several threads must neither corrupt
    // the free list nor tear any transfer. (Run under TSan in CI.)
    Device device(datapath::FpgaSpec::arria10(), 8 << 20);
    constexpr int kThreads = 8;
    constexpr int kRounds = 200;
    std::vector<std::thread> threads;
    std::atomic<int> torn{0};
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&device, &torn, t] {
            std::vector<uint32_t> in(64), out(64);
            for (int r = 0; r < kRounds; ++r) {
                uint64_t addr = device.allocate(64 * 4);
                uint32_t tag = static_cast<uint32_t>(t * kRounds + r);
                for (size_t i = 0; i < in.size(); ++i)
                    in[i] = tag ^ static_cast<uint32_t>(i);
                device.dmaWrite(addr, 64 * 4, in.data());
                device.dmaRead(addr, 64 * 4, out.data());
                if (out != in)
                    ++torn;
                device.release(addr);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(torn.load(), 0) << "torn or misrouted DMA transfer";
    // Every block released: the full arena allocates again.
    uint64_t all = device.allocate((8 << 20) - 4096);
    EXPECT_NE(all, 0u) << "allocator free list corrupted";
}

TEST(Device, DmaRejectsOversizedTransfer)
{
    // GlobalMemory's block API is 32-bit sized; a transfer over 4 GiB
    // must be rejected up front, not silently truncated to the low 32
    // bits of its length. The size check precedes any memory access,
    // so a null host pointer never gets dereferenced here.
    Device device(datapath::FpgaSpec::arria10(), 8 << 20);
    uint64_t addr = device.allocate(4096);
    try {
        device.dmaWrite(addr, (1ull << 32) + 64, nullptr);
        FAIL() << "oversized dmaWrite must throw";
    } catch (const OpenClError &e) {
        EXPECT_EQ(e.status(), ClStatus::InvalidValue);
    }
    try {
        device.dmaRead(addr, (1ull << 32) + 64, nullptr);
        FAIL() << "oversized dmaRead must throw";
    } catch (const OpenClError &e) {
        EXPECT_EQ(e.status(), ClStatus::InvalidValue);
    }
    device.release(addr);
}

// --- Memory faults -------------------------------------------------------

const char *kWildKernels = R"CL(
__kernel void wild(__global int* Y, int off) {
  Y[get_global_id(0) + off] = 7;
}
__kernel void wild_local(__global int* Y, int off) {
  __local int tile[16];
  int l = get_local_id(0);
  tile[l + off] = 7;
  barrier(CLK_LOCAL_MEM_FENCE);
  Y[get_global_id(0)] = tile[l];
}
)CL";

TEST(Context, OutOfBoundsAccessFailsTheLaunchNotTheProcess)
{
    // An index far past (or, wrapping, far before) a 256-byte buffer or
    // a 16-int __local tile is a user error: in both engines the launch
    // fails with CL_OUT_OF_RESOURCES naming the kernel and the address,
    // and the same context then runs a correct launch.
    Context ctx;
    Program program = ctx.buildProgram(kWildKernels);
    Buffer buffer = ctx.createBuffer(256);
    sim::NDRange nd;
    nd.globalSize[0] = 64;
    nd.localSize[0] = 16;
    for (const char *name : {"wild", "wild_local"}) {
        KernelHandle kernel = program.createKernel(name);
        kernel.setArg(0, buffer);
        for (ExecutionMode mode :
             {ExecutionMode::Simulate, ExecutionMode::Reference}) {
            for (int32_t off : {100000000, -100000000}) {
                SCOPED_TRACE(testing::Message()
                             << name << ", "
                             << (mode == ExecutionMode::Simulate
                                     ? "simulate"
                                     : "reference")
                             << ", off " << off);
                kernel.setArg(1, off);
                try {
                    ctx.enqueueNDRange(kernel, nd, mode);
                    ADD_FAILURE() << "an out-of-bounds launch must throw";
                } catch (const OpenClError &e) {
                    EXPECT_EQ(e.status(), ClStatus::OutOfResources);
                    std::string message = e.what();
                    EXPECT_NE(message.find("kernel '" + std::string(name) +
                                           "'"),
                              std::string::npos)
                        << message;
                    EXPECT_NE(message.find("at address 0x"),
                              std::string::npos)
                        << message;
                }
            }
        }
    }
    KernelHandle kernel = program.createKernel("wild");
    kernel.setArg(0, buffer);
    kernel.setArg(1, int32_t{0});
    ctx.enqueueNDRange(kernel, nd);
    std::vector<int32_t> out(64);
    ctx.readBuffer(buffer, out.data(), 256);
    EXPECT_EQ(out, std::vector<int32_t>(64, 7));
}

TEST(Context, RunawayReferenceKernelFailsTheLaunchNotTheProcess)
{
    // The loop's exit depends on device memory, so only running it
    // shows that it never ends: the interpreter spends the launch's
    // instruction budget and the launch fails with CL_OUT_OF_RESOURCES
    // naming the kernel. The same context then runs a correct launch.
    Context ctx;
    Program program = ctx.buildProgram(R"CL(
__kernel void spin(__global int* Y, int stop) {
  int i = 0;
  while (Y[0] + i != stop) i++;
  Y[1] = i;
}
)CL");
    Buffer buffer = ctx.createBuffer(64);
    std::vector<int32_t> host(16, 0);
    ctx.writeBuffer(buffer, host.data(), 64);
    KernelHandle kernel = program.createKernel("spin");
    kernel.setArg(0, buffer);
    kernel.setArg(1, int32_t{-1});
    sim::NDRange nd;
    try {
        ctx.enqueueNDRange(kernel, nd, ExecutionMode::Reference);
        ADD_FAILURE() << "a non-terminating launch must throw";
    } catch (const OpenClError &e) {
        EXPECT_EQ(e.status(), ClStatus::OutOfResources);
        std::string message = e.what();
        EXPECT_NE(message.find("kernel 'spin'"), std::string::npos)
            << message;
        EXPECT_NE(message.find("budget of 1050000 instructions"),
                  std::string::npos)
            << message;
    }
    kernel.setArg(1, int32_t{5});
    ctx.enqueueNDRange(kernel, nd, ExecutionMode::Reference);
    ctx.readBuffer(buffer, host.data(), 64);
    EXPECT_EQ(host[1], 5);
}

TEST(Context, OversizedBufferTransferIsInvalidValue)
{
    // A host transfer longer than its buffer is a user error, as on the
    // queue path: CL_INVALID_VALUE before any byte moves, and the same
    // context then runs a correct transfer and launch.
    Context ctx;
    Program program = ctx.buildProgram(kWildKernels);
    Buffer buffer = ctx.createBuffer(256);
    Buffer neighbour = ctx.createBuffer(256);
    std::vector<int32_t> host(128, 5);
    try {
        ctx.writeBuffer(buffer, host.data(), 512);
        ADD_FAILURE() << "an oversized writeBuffer must throw";
    } catch (const OpenClError &e) {
        EXPECT_EQ(e.status(), ClStatus::InvalidValue);
    }
    try {
        ctx.readBuffer(buffer, host.data(), 512);
        ADD_FAILURE() << "an oversized readBuffer must throw";
    } catch (const OpenClError &e) {
        EXPECT_EQ(e.status(), ClStatus::InvalidValue);
    }
    EXPECT_EQ(host, std::vector<int32_t>(128, 5))
        << "the rejected read wrote into host memory";
    std::vector<int32_t> spill(64, -1);
    ctx.readBuffer(neighbour, spill.data(), 256);
    EXPECT_EQ(spill, std::vector<int32_t>(64, 0))
        << "the rejected write spilled into the next buffer";

    ctx.writeBuffer(buffer, host.data(), 256);
    KernelHandle kernel = program.createKernel("wild");
    kernel.setArg(0, buffer);
    kernel.setArg(1, int32_t{0});
    sim::NDRange nd;
    nd.globalSize[0] = 32;
    nd.localSize[0] = 16;
    ctx.enqueueNDRange(kernel, nd);
    std::vector<int32_t> out(64);
    ctx.readBuffer(buffer, out.data(), 256);
    std::vector<int32_t> expect(64, 5);
    std::fill(expect.begin(), expect.begin() + 32, 7);
    EXPECT_EQ(out, expect);
}

// --- Command queues and events -------------------------------------------

/** Enqueues one tiny launch of kernel `a` and returns its event. */
Event
queueOneLaunch(Context &ctx, CommandQueue &queue, KernelHandle &kernel,
               const std::vector<Event> &wait_list = {})
{
    sim::NDRange nd;
    nd.globalSize[0] = 64;
    nd.localSize[0] = 16;
    Event event;
    queue.enqueueNDRange(kernel, nd, wait_list, &event);
    return event;
}

TEST(Queue, WaitListRejectsUnattachedEvent)
{
    Context ctx;
    Program program = ctx.buildProgram(kTwoKernels);
    KernelHandle kernel = program.createKernel("a");
    kernel.setArg(0, ctx.createBuffer(4096));
    CommandQueue queue(ctx, {.outOfOrder = true});
    // An unattached event can never complete — waiting on it is the
    // one expressible dependency cycle (e.g. a command waiting on its
    // own out-event). Rejected eagerly, on the enqueue thread.
    Event unattached;
    try {
        queueOneLaunch(ctx, queue, kernel, {unattached});
        FAIL() << "unattached wait-list entry must be rejected";
    } catch (const OpenClError &e) {
        EXPECT_EQ(e.status(), ClStatus::InvalidEventWaitList);
    }
    // Self-wait: the out-event is unattached at enqueue time.
    Event self;
    sim::NDRange nd;
    nd.globalSize[0] = 64;
    nd.localSize[0] = 16;
    EXPECT_THROW(queue.enqueueNDRange(kernel, nd, {self}, &self),
                 OpenClError);
    queue.finish();
}

TEST(Queue, CompletionFollowsEnqueueOrder)
{
    // Out-of-order queue, several independent launches: execution may
    // interleave on any worker, but commands retire — complete their
    // events, fire callbacks — in enqueue order.
    Context ctx;
    Program program = ctx.buildProgram(kTwoKernels);
    KernelHandle kernel = program.createKernel("b");
    constexpr int kLaunches = 8;
    std::vector<Buffer> buffers;
    for (int i = 0; i < kLaunches; ++i)
        buffers.push_back(ctx.createBuffer(4096));
    CommandQueue queue(ctx, {.outOfOrder = true, .workers = 4});
    std::mutex order_m;
    std::vector<int> order;
    std::vector<Event> events;
    for (int i = 0; i < kLaunches; ++i) {
        kernel.setArg(0, buffers[static_cast<size_t>(i)]);
        kernel.setArg(1, int32_t{i});
        Event event = queueOneLaunch(ctx, queue, kernel);
        event.onComplete([&order_m, &order, i] {
            std::lock_guard<std::mutex> lock(order_m);
            order.push_back(i);
        });
        events.push_back(event);
    }
    queue.finish();
    std::vector<int> expected;
    for (int i = 0; i < kLaunches; ++i)
        expected.push_back(i);
    EXPECT_EQ(order, expected) << "retirement must follow enqueue order";
    for (const Event &e : events) {
        EXPECT_TRUE(e.isComplete());
        EXPECT_EQ(e.status(), CommandStatus::Complete);
    }
}

TEST(Queue, FinishImpliesEventsCompleteAndCallbacksFired)
{
    // finish() must not return while a worker is still mid-retirement:
    // once it returns, every event is Complete and every callback has
    // fired, and destroying the queue immediately afterwards (as each
    // round of this loop does) is safe. The TSan/ASan CI legs turn any
    // residual drain race in this loop into a hard failure.
    Context ctx;
    Program program = ctx.buildProgram(kTwoKernels);
    KernelHandle kernel = program.createKernel("a");
    constexpr int kLaunches = 4;
    std::vector<Buffer> buffers;
    for (int i = 0; i < kLaunches; ++i)
        buffers.push_back(ctx.createBuffer(4096));
    for (int round = 0; round < 50; ++round) {
        CommandQueue queue(ctx, {.outOfOrder = true, .workers = 4});
        std::atomic<int> fired{0};
        std::vector<Event> events;
        for (int i = 0; i < kLaunches; ++i) {
            kernel.setArg(0, buffers[static_cast<size_t>(i)]);
            Event event = queueOneLaunch(ctx, queue, kernel);
            event.onComplete([&fired] { ++fired; });
            events.push_back(event);
        }
        queue.finish();
        ASSERT_EQ(fired.load(), kLaunches)
            << "finish() returned before every callback fired";
        for (const Event &e : events)
            ASSERT_TRUE(e.isComplete())
                << "finish() returned with an incomplete event";
    }
}

TEST(Queue, ProfilingTimestampsMonotonicAndTiled)
{
    // Per-queue device timeline: commands tile it without overlap, in
    // enqueue order, regardless of which worker executed them.
    Context ctx;
    Program program = ctx.buildProgram(kTwoKernels);
    KernelHandle kernel = program.createKernel("a");
    constexpr int kLaunches = 4;
    std::vector<Buffer> buffers;
    for (int i = 0; i < kLaunches; ++i)
        buffers.push_back(ctx.createBuffer(4096));
    CommandQueue queue(ctx, {.outOfOrder = true, .workers = 2});
    std::vector<Event> events;
    for (int i = 0; i < kLaunches; ++i) {
        kernel.setArg(0, buffers[static_cast<size_t>(i)]);
        events.push_back(queueOneLaunch(ctx, queue, kernel));
    }
    queue.finish();
    uint64_t prev_end = 0;
    for (const Event &e : events) {
        ASSERT_TRUE(e.valid());
        EXPECT_EQ(e.queuedNs(), prev_end)
            << "commands tile the per-queue timeline";
        EXPECT_LE(e.queuedNs(), e.submitNs());
        EXPECT_LE(e.submitNs(), e.startNs());
        EXPECT_LT(e.startNs(), e.endNs());
        prev_end = e.endNs();
    }
}

TEST(Queue, ProfilingUnavailableBeforeCompletion)
{
    // CL_PROFILING_INFO_NOT_AVAILABLE until the command retires: gate
    // a launch behind a user event and probe while it is stuck Queued.
    Context ctx;
    Program program = ctx.buildProgram(kTwoKernels);
    KernelHandle kernel = program.createKernel("a");
    kernel.setArg(0, ctx.createBuffer(4096));
    CommandQueue queue(ctx, {.outOfOrder = true});
    Event gate = ctx.createUserEvent();
    Event event = queueOneLaunch(ctx, queue, kernel, {gate});
    EXPECT_FALSE(event.isComplete());
    EXPECT_FALSE(event.valid());
    try {
        event.profilingInfo(ClProfilingInfo::CommandStart);
        FAIL() << "profiling an unfinished command must throw";
    } catch (const OpenClError &e) {
        EXPECT_EQ(e.status(), ClStatus::ProfilingInfoNotAvailable);
    }
    gate.setComplete();
    event.wait();
    EXPECT_TRUE(event.valid());
    queue.finish();
}

TEST(Queue, UserEventGatesAndCompletesOnce)
{
    Context ctx;
    Program program = ctx.buildProgram(kTwoKernels);
    KernelHandle kernel = program.createKernel("b");
    Buffer buffer = ctx.createBuffer(4096);
    kernel.setArg(0, buffer);
    kernel.setArg(1, int32_t{7});
    CommandQueue queue(ctx, {.outOfOrder = true});
    Event gate = ctx.createUserEvent();
    EXPECT_EQ(gate.status(), CommandStatus::Submitted);
    Event event = queueOneLaunch(ctx, queue, kernel, {gate});
    EXPECT_FALSE(event.isComplete())
        << "command must not run before its user-event gate";
    gate.setComplete();
    event.wait();
    std::vector<int32_t> out(64);
    ctx.readBuffer(buffer, out.data(), 64 * 4);
    EXPECT_EQ(out[0], 7);
    // Completing twice is CL_INVALID_OPERATION; completing a queue
    // event from the host is CL_INVALID_EVENT.
    try {
        gate.setComplete();
        FAIL() << "double setComplete must throw";
    } catch (const OpenClError &e) {
        EXPECT_EQ(e.status(), ClStatus::InvalidOperation);
    }
    try {
        event.setComplete();
        FAIL() << "setComplete on a queue event must throw";
    } catch (const OpenClError &e) {
        EXPECT_EQ(e.status(), ClStatus::InvalidEvent);
    }
    queue.finish();
}

TEST(Queue, InOrderQueueChainsImplicitly)
{
    // An in-order queue needs no wait lists: each command implicitly
    // depends on its predecessor, so write -> launch -> read with
    // shared buffers is well ordered even with many workers.
    Context ctx;
    Program program = ctx.buildProgram(kTwoKernels);
    KernelHandle kernel = program.createKernel("b");
    Buffer buffer = ctx.createBuffer(64 * 4);
    kernel.setArg(0, buffer);
    kernel.setArg(1, int32_t{3});
    CommandQueue queue(ctx, {.workers = 4});
    std::vector<int32_t> zeros(64, 0), out(64, -1);
    sim::NDRange nd;
    nd.globalSize[0] = 64;
    nd.localSize[0] = 16;
    queue.enqueueWrite(buffer, zeros.data(), 64 * 4);
    queue.enqueueNDRange(kernel, nd);
    queue.enqueueRead(buffer, out.data(), 64 * 4);
    queue.finish();
    EXPECT_EQ(out, std::vector<int32_t>(64, 3));
}

// --- Circuit-template pool -----------------------------------------------

TEST(TemplatePool, SerialLaunchLoopCounters)
{
    // Timing faults bypass the pool by design.
    ScopedEnv faults("SOFF_FAULTS", nullptr);
    Context ctx;
    Program program = ctx.buildProgram(kTwoKernels);
    KernelHandle kernel = program.createKernel("a");
    kernel.setArg(0, ctx.createBuffer(4096));
    sim::NDRange nd;
    nd.globalSize[0] = 64;
    nd.localSize[0] = 16;
    constexpr uint64_t kLaunches = 5;
    for (uint64_t i = 0; i < kLaunches; ++i)
        ctx.enqueueNDRange(kernel, nd);
    TemplatePoolStats stats = program.templatePoolStats();
    EXPECT_EQ(stats.misses, 1u) << "first launch builds the template";
    EXPECT_EQ(stats.hits, kLaunches - 1) << "later launches rearm it";
    EXPECT_EQ(stats.steals, 0u) << "serial: never checked out twice";
    EXPECT_EQ(stats.returns, kLaunches);
    EXPECT_EQ(program.circuitCacheSize(), 1u);
}

TEST(TemplatePool, ConcurrentCheckoutInvariants)
{
    // Many concurrent launches of one kernel: checkouts that find the
    // key empty are steals (a duplicate template is built), and every
    // template comes back. Exact counts depend on interleaving; the
    // accounting invariants do not. Timing faults bypass the pool by
    // design.
    ScopedEnv faults("SOFF_FAULTS", nullptr);
    constexpr int kWorkers = 4;
    Context ctx;
    Program program = ctx.buildProgram(kTwoKernels);
    KernelHandle kernel = program.createKernel("b");
    constexpr uint64_t kLaunches = 12;
    std::vector<Buffer> buffers;
    for (uint64_t i = 0; i < kLaunches; ++i)
        buffers.push_back(ctx.createBuffer(4096));
    CommandQueue queue(ctx, {.outOfOrder = true, .workers = kWorkers});
    sim::NDRange nd;
    nd.globalSize[0] = 64;
    nd.localSize[0] = 16;
    for (uint64_t i = 0; i < kLaunches; ++i) {
        kernel.setArg(0, buffers[i]);
        kernel.setArg(1, int32_t{1});
        queue.enqueueNDRange(kernel, nd);
    }
    queue.finish();
    TemplatePoolStats stats = program.templatePoolStats();
    EXPECT_EQ(stats.hits + stats.misses + stats.steals, kLaunches)
        << "every launch checks the pool exactly once";
    EXPECT_EQ(stats.misses, 1u) << "the key is built once";
    EXPECT_EQ(stats.returns, kLaunches) << "every launch succeeded";
    size_t parked = program.circuitCacheSize();
    EXPECT_EQ(stats.returns - stats.hits, parked)
        << "parked = returned - checked out (hits)";
    EXPECT_EQ(stats.misses + stats.steals, parked)
        << "every template built is parked again";
    EXPECT_LE(parked, static_cast<size_t>(kWorkers))
        << "no more templates than launches that ran at once";
}

// --- Compatibility rules (Table II machinery) ---------------------------

TEST(Compat, OutcomeCodesMatchTableII)
{
    using baseline::Outcome;
    EXPECT_STREQ(baseline::outcomeCode(Outcome::OK), "");
    EXPECT_STREQ(baseline::outcomeCode(Outcome::CompileError), "CE");
    EXPECT_STREQ(baseline::outcomeCode(Outcome::IncorrectAnswer), "IA");
    EXPECT_STREQ(baseline::outcomeCode(Outcome::RuntimeError), "RE");
    EXPECT_STREQ(baseline::outcomeCode(Outcome::Hang), "H");
    EXPECT_STREQ(baseline::outcomeCode(Outcome::InsufficientResources),
                 "IR");
}

TEST(Compat, XilinxRejectsAtomicsIndirectAndLocalInBranch)
{
    analysis::KernelFeatures f;
    EXPECT_EQ(baseline::xilinxLikeOutcome(f), baseline::Outcome::OK);
    f.usesAtomics = true;
    EXPECT_EQ(baseline::xilinxLikeOutcome(f),
              baseline::Outcome::CompileError);
    f = {};
    f.usesIndirectPointers = true;
    EXPECT_EQ(baseline::xilinxLikeOutcome(f),
              baseline::Outcome::CompileError);
    f = {};
    f.localAccessInBranch = true;
    EXPECT_EQ(baseline::xilinxLikeOutcome(f),
              baseline::Outcome::CompileError);
}

TEST(Compat, IntelFailsOnAtomicBarrierLocalCombination)
{
    analysis::KernelFeatures f;
    f.usesAtomics = true;
    f.usesBarrier = true;
    f.usesLocalMemory = true;
    EXPECT_NE(baseline::intelLikeOutcome(f), baseline::Outcome::OK);
    analysis::KernelFeatures plain;
    EXPECT_EQ(baseline::intelLikeOutcome(plain), baseline::Outcome::OK);
}

// --- Static-pipeline baseline machinery ---------------------------------

TEST(StaticPipeline, RecurrenceBoundII)
{
    // A float accumulation loop: the baseline pays the FADD latency
    // per iteration; an integer loop does not.
    Context ctx;
    auto program = ctx.buildProgram(R"CL(
__kernel void facc(__global float* A, int n) {
  float acc = 0.0f;
  for (int k = 0; k < n; k++) acc += A[k];
  A[get_global_id(0)] = acc;
}
__kernel void iacc(__global int* A, int n) {
  int acc = 0;
  for (int k = 0; k < n; k++) acc += A[k];
  A[get_global_id(0)] = acc;
}
)CL");
    auto run = [&](const char *name) {
        KernelHandle kernel = program.createKernel(name);
        Buffer buffer = ctx.createBuffer(4096);
        kernel.setArg(0, buffer);
        kernel.setArg(1, int32_t{64});
        sim::LaunchContext launch;
        launch.ndrange.globalSize[0] = 64;
        launch.ndrange.localSize[0] = 16;
        launch.args = kernel.argValues();
        auto cfg = baseline::StaticPipelineConfig::intelLike(1);
        return baseline::runStaticPipeline(
            *kernel.compiled().kernel, launch,
            ctx.device().globalMemory(), cfg);
    };
    auto fp = run("facc");
    auto ip = run("iacc");
    EXPECT_GT(fp.cycles, ip.cycles)
        << "loop-carried FADD recurrence must cost the baseline";
}

} // namespace
} // namespace soff::rt
