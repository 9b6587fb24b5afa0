/** @file Fault-injection and forensics tests: the delay-only fault
 *  campaign (outputs bit-identical under any FaultPlan, in every
 *  scheduler mode), the undersized-FIFO DeadlockReport, hardened
 *  SOFF_* environment parsing, and OpenCL status-code mapping. */
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "benchsuite/suite.hpp"
#include "runtime/runtime.hpp"
#include "sim/fault.hpp"
#include "sim/forensics.hpp"
#include "sim/simulator.hpp"

#include "scoped_env.hpp"

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

// --- FaultConfig grammar -----------------------------------------------

TEST(FaultConfig, BareIntegerIsSeed)
{
    sim::FaultConfig cfg = sim::FaultConfig::parse("42");
    EXPECT_EQ(cfg.seed, 42u);
    EXPECT_TRUE(cfg.enabled());
    EXPECT_FALSE(cfg.checkInvariants);
}

TEST(FaultConfig, KeyValueList)
{
    sim::FaultConfig cfg = sim::FaultConfig::parse(
        "seed=7,stall=0.5,memstall=0.25,stallmax=3,dramevery=2,"
        "dramspike=10,dramjitter=1,slack=1,check=1");
    EXPECT_EQ(cfg.seed, 7u);
    EXPECT_DOUBLE_EQ(cfg.stallProb, 0.5);
    EXPECT_DOUBLE_EQ(cfg.memStallProb, 0.25);
    EXPECT_EQ(cfg.stallMax, 3);
    EXPECT_EQ(cfg.dramSpikeEvery, 2);
    EXPECT_EQ(cfg.dramSpikeCycles, 10);
    EXPECT_EQ(cfg.dramJitterMax, 1);
    EXPECT_EQ(cfg.fifoSlackCut, 1);
    EXPECT_TRUE(cfg.checkInvariants);
}

TEST(FaultConfig, RejectsBadInput)
{
    EXPECT_THROW(sim::FaultConfig::parse("abc"), RuntimeError);
    EXPECT_THROW(sim::FaultConfig::parse("seed=abc"), RuntimeError);
    EXPECT_THROW(sim::FaultConfig::parse("bogus=1"), RuntimeError);
    EXPECT_THROW(sim::FaultConfig::parse("seed=1,stall=1.5"),
                 RuntimeError);
    EXPECT_THROW(sim::FaultConfig::parse("seed=1,stallmax=0"),
                 RuntimeError);
    EXPECT_THROW(sim::FaultConfig::parse("seed=-3"), RuntimeError);
    EXPECT_THROW(sim::FaultConfig::parse(""), RuntimeError);
}

// --- Delay-only fault campaign over the benchmark suite ----------------

/** Benchmark apps x fault seeds, in CrossCheck mode: the runtime runs
 *  reference, event-driven, and compiled circuits under the same
 *  FaultPlan and throws unless results, stats, and final global
 *  memory are bit-identical; the host oracle then verifies the
 *  outputs. Delay-only faults must change neither. */
class FaultCampaign
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>>
{};

TEST_P(FaultCampaign, BitIdenticalAcrossSchedulersUnderFaults)
{
    const auto &[app_name, seed] = GetParam();
    const benchsuite::App *app = benchsuite::findApp(app_name);
    ASSERT_NE(app, nullptr);
    benchsuite::BenchContext ctx(benchsuite::Engine::SoffSim);
    sim::PlatformConfig platform;
    platform.scheduler = sim::SchedulerMode::CrossCheck;
    platform.faults.seed = seed;
    ctx.setPlatformConfig(platform);
    EXPECT_TRUE(benchsuite::runApp(*app, ctx)) << app->name;
}

INSTANTIATE_TEST_SUITE_P(
    Apps, FaultCampaign,
    ::testing::Combine(
        ::testing::Values("103.stencil", "110.fft", "112.spmv",
                          "116.histo", "120.kmeans", "123.nw",
                          "124.hotspot", "127.srad"),
        ::testing::Values(1ull, 7ull, 42ull, 1234ull, 0xD00Dull)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, uint64_t>>
           &info) {
        std::string name = std::get<0>(info.param) + "_s" +
                           std::to_string(std::get<1>(info.param));
        for (char &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

// --- Faulted runs match the clean run byte-for-byte --------------------

const char *kMixKernel = R"CL(
__kernel void mix(__global const int *A, __global const int *B,
                  __global int *C)
{
    int i = get_global_id(0);
    int acc = 0;
    for (int k = 0; k < 8; ++k)
        acc = acc * 3 + A[(i + k) % 256] - B[(i * 2 + k) % 256];
    C[i] = acc;
}
)CL";

std::vector<int32_t>
runMix(const sim::PlatformConfig &platform)
{
    rt::Context ctx;
    rt::Program program = ctx.buildProgram(kMixKernel);
    rt::KernelHandle kernel = program.createKernel("mix");
    std::vector<int32_t> a(256), b(256);
    for (int i = 0; i < 256; ++i) {
        a[static_cast<size_t>(i)] = i * 37 - 1000;
        b[static_cast<size_t>(i)] = 9000 - i * 13;
    }
    rt::Buffer ba = ctx.createBuffer(a.size() * 4);
    rt::Buffer bb = ctx.createBuffer(b.size() * 4);
    rt::Buffer bc = ctx.createBuffer(256 * 4);
    ctx.writeBuffer(ba, a.data(), a.size() * 4);
    ctx.writeBuffer(bb, b.data(), b.size() * 4);
    kernel.setArg(0, ba);
    kernel.setArg(1, bb);
    kernel.setArg(2, bc);
    ctx.enqueueNDRange(kernel, range1d(256, 64),
                       rt::ExecutionMode::Simulate, platform);
    std::vector<int32_t> c(256);
    ctx.readBuffer(bc, c.data(), c.size() * 4);
    return c;
}

TEST(FaultEquivalence, FaultedOutputMatchesCleanInEveryMode)
{
    ScopedEnv sched("SOFF_SCHEDULER", nullptr);
    ScopedEnv env_faults("SOFF_FAULTS", nullptr);
    sim::PlatformConfig clean;
    std::vector<int32_t> golden = runMix(clean);
    const sim::SchedulerMode modes[] = {
        sim::SchedulerMode::Reference, sim::SchedulerMode::EventDriven,
        sim::SchedulerMode::Compiled};
    for (sim::SchedulerMode mode : modes) {
        for (uint64_t seed : {1ull, 42ull, 0xBEEFull}) {
            sim::PlatformConfig plat;
            plat.scheduler = mode;
            plat.faults.seed = seed;
            plat.faults.stallProb = 0.2; // aggressive, still delay-only
            plat.faults.memStallProb = 0.2;
            EXPECT_EQ(runMix(plat), golden)
                << "mode " << static_cast<int>(mode) << " seed " << seed;
        }
    }
}

// --- Local-memory slot exclusivity under perturbed timing --------------

/** Local atomics + barriers across many work-groups. Regression for a
 *  bug the fault harness exposed: the dispatcher used to admit two
 *  resident work-groups whose ids collide modulo the local-memory slot
 *  count, so delay faults (which skew group lifetimes) made the groups
 *  alias each other's local bins. The clean schedule never spaced
 *  groups that way, so only faulted runs corrupted the histogram. */
const char *kLocalHistKernel = R"CL(
__kernel void lhist(__global const int *data, __global int *bins)
{
    __local int local_bins[16];
    int lid = get_local_id(0);
    int gid = get_global_id(0);
    if (lid < 16)
        local_bins[lid] = 0;
    barrier(CLK_LOCAL_MEM_FENCE);
    atomic_add(&local_bins[data[gid] & 15], 1);
    barrier(CLK_LOCAL_MEM_FENCE);
    if (lid < 16)
        atomic_add(&bins[lid], local_bins[lid]);
}
)CL";

std::vector<int32_t>
runLocalHist(const sim::PlatformConfig &platform)
{
    rt::Context ctx;
    rt::Program program = ctx.buildProgram(kLocalHistKernel);
    rt::KernelHandle kernel = program.createKernel("lhist");
    const size_t n = 1024;
    std::vector<int32_t> data(n);
    for (size_t i = 0; i < n; ++i)
        data[i] = static_cast<int32_t>((i * 2654435761u) >> 7);
    rt::Buffer bd = ctx.createBuffer(n * 4);
    rt::Buffer bb = ctx.createBuffer(16 * 4);
    std::vector<int32_t> zero(16, 0);
    ctx.writeBuffer(bd, data.data(), n * 4);
    ctx.writeBuffer(bb, zero.data(), 16 * 4);
    kernel.setArg(0, bd);
    kernel.setArg(1, bb);
    ctx.enqueueNDRange(kernel, range1d(n, 64),
                       rt::ExecutionMode::Simulate, platform);
    std::vector<int32_t> bins(16);
    ctx.readBuffer(bb, bins.data(), 16 * 4);
    return bins;
}

TEST(FaultEquivalence, LocalAtomicHistogramSurvivesStallFaults)
{
    ScopedEnv sched("SOFF_SCHEDULER", nullptr);
    ScopedEnv env_faults("SOFF_FAULTS", nullptr);
    sim::PlatformConfig clean;
    std::vector<int32_t> golden = runLocalHist(clean);
    int64_t total = 0;
    for (int32_t b : golden)
        total += b;
    ASSERT_EQ(total, 1024); // the clean run itself must not drop counts
    for (uint64_t seed : {1ull, 42ull, 0xD00Dull}) {
        sim::PlatformConfig plat;
        plat.faults.seed = seed;
        plat.faults.stallProb = 0.15; // the class that skews group lifetimes
        EXPECT_EQ(runLocalHist(plat), golden) << "seed " << seed;
    }
}

// --- Undersized response window: forensic deadlock report --------------

/** The skewed second operand keeps one load unit far behind the other;
 *  with the §V-A response window forced below L_F and the balancing
 *  slack removed, the circuit wedges in a genuine cyclic wait. */
const char *kSkewKernel = R"CL(
__kernel void skew(__global const int *A, __global int *C)
{
    int i = get_global_id(0);
    C[i] = A[i] + A[(i * i * 3 + i) % 64];
}
)CL";

TEST(Forensics, UndersizedResponseWindowYieldsDeadlockReport)
{
    ScopedEnv sched("SOFF_SCHEDULER", nullptr);
    ScopedEnv env_faults("SOFF_FAULTS", nullptr);
    rt::Context ctx;
    rt::Program program = ctx.buildProgram(kSkewKernel);
    rt::KernelHandle kernel = program.createKernel("skew");
    std::vector<int32_t> a(64);
    for (int i = 0; i < 64; ++i)
        a[static_cast<size_t>(i)] = i + 1;
    rt::Buffer ba = ctx.createBuffer(a.size() * 4);
    rt::Buffer bc = ctx.createBuffer(64 * 4);
    ctx.writeBuffer(ba, a.data(), a.size() * 4);
    kernel.setArg(0, ba);
    kernel.setArg(1, bc);
    sim::PlatformConfig plat;
    plat.scheduler = sim::SchedulerMode::EventDriven;
    plat.memRespWindowOverride = 1; // below L_F + 1: breaks Theorem V-A
    plat.balanceFifoCap = 0;
    try {
        ctx.enqueueNDRange(kernel, range1d(64, 64),
                           rt::ExecutionMode::Simulate, plat, 1);
        FAIL() << "expected the undersized response window to deadlock";
    } catch (const rt::OpenClError &e) {
        EXPECT_EQ(e.status(), ClStatus::OutOfResources);
        EXPECT_STREQ(e.statusName(), "CL_OUT_OF_RESOURCES");
        EXPECT_NE(std::string(e.what()).find("deadlocked"),
                  std::string::npos)
            << e.what();
        ASSERT_NE(e.report(), nullptr);
        const sim::DeadlockReport &report = *e.report();
        EXPECT_EQ(report.kind, sim::HangKind::Deadlock);
        EXPECT_FALSE(report.waits.empty());
        EXPECT_FALSE(report.waitCycle.empty())
            << "a genuine circuit deadlock must have a wait cycle:\n"
            << report.render();
        bool names_load = false;
        for (const auto &w : report.waits)
            names_load |= w.component.find("load") != std::string::npos;
        EXPECT_TRUE(names_load)
            << "report must name the offending load unit:\n"
            << report.render();
    }
}

TEST(Forensics, InvariantCheckerFlagsUndersizedWindowAsInternalBug)
{
    ScopedEnv sched("SOFF_SCHEDULER", nullptr);
    rt::Context ctx;
    rt::Program program = ctx.buildProgram(kSkewKernel);
    rt::KernelHandle kernel = program.createKernel("skew");
    std::vector<int32_t> a(64, 3);
    rt::Buffer ba = ctx.createBuffer(a.size() * 4);
    rt::Buffer bc = ctx.createBuffer(64 * 4);
    ctx.writeBuffer(ba, a.data(), a.size() * 4);
    kernel.setArg(0, ba);
    kernel.setArg(1, bc);
    sim::PlatformConfig plat;
    plat.scheduler = sim::SchedulerMode::EventDriven;
    plat.memRespWindowOverride = 1;
    plat.balanceFifoCap = 0;
    plat.faults.checkInvariants = true;
    try {
        ctx.enqueueNDRange(kernel, range1d(64, 64),
                           rt::ExecutionMode::Simulate, plat, 1);
        FAIL() << "expected a deadlock or invariant violation";
    } catch (const rt::OpenClError &e) {
        ASSERT_NE(e.report(), nullptr);
        EXPECT_TRUE(e.report()->internalBug())
            << "the L_F guard must fire on an undersized window:\n"
            << e.report()->render();
        bool mentions_guard = false;
        for (const std::string &inv : e.report()->invariants)
            mentions_guard |= inv.find("L_F") != std::string::npos;
        EXPECT_TRUE(mentions_guard) << e.report()->render();
    }
}

/** The §V-A sizing itself (no override) must run the same kernel to
 *  completion: the deadlock above is the undersizing, not the kernel. */
TEST(Forensics, ProperlySizedWindowCompletes)
{
    ScopedEnv sched("SOFF_SCHEDULER", nullptr);
    ScopedEnv env_faults("SOFF_FAULTS", nullptr);
    rt::Context ctx;
    rt::Program program = ctx.buildProgram(kSkewKernel);
    rt::KernelHandle kernel = program.createKernel("skew");
    std::vector<int32_t> a(64);
    for (int i = 0; i < 64; ++i)
        a[static_cast<size_t>(i)] = i + 1;
    rt::Buffer ba = ctx.createBuffer(a.size() * 4);
    rt::Buffer bc = ctx.createBuffer(64 * 4);
    ctx.writeBuffer(ba, a.data(), a.size() * 4);
    kernel.setArg(0, ba);
    kernel.setArg(1, bc);
    sim::PlatformConfig plat;
    plat.scheduler = sim::SchedulerMode::EventDriven;
    plat.balanceFifoCap = 0; // starved FIFOs alone must not deadlock
    EXPECT_NO_THROW(ctx.enqueueNDRange(kernel, range1d(64, 64),
                                       rt::ExecutionMode::Simulate, plat,
                                       1));
    std::vector<int32_t> c(64);
    ctx.readBuffer(bc, c.data(), c.size() * 4);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(c[static_cast<size_t>(i)],
                  (i + 1) + ((i * i * 3 + i) % 64 + 1))
            << "i=" << i;
}

// --- Raw-simulator forensics: a hand-built mutual wait -----------------

/** Waits for a token on `in` before producing one on `out`. Two of
 *  these back-to-back form the canonical two-node wait cycle. */
class HandshakeUnit : public sim::Component
{
  public:
    HandshakeUnit(const std::string &name, sim::Channel<int> *in,
                  sim::Channel<int> *out)
        : Component(name), in_(in), out_(out)
    {
        watch(in);
        watch(out);
    }
    void
    step(sim::Cycle) override
    {
        if (in_->canPop() && out_->canPush())
            out_->push(in_->pop() + 1);
    }
    void
    describeBlockage(sim::BlockageProbe &probe) const override
    {
        probe.waitPop(in_);
        probe.waitPush(out_);
    }

  private:
    sim::Channel<int> *in_;
    sim::Channel<int> *out_;
};

TEST(Forensics, MutualWaitCycleIsExtracted)
{
    sim::Simulator sim(sim::SchedulerMode::EventDriven);
    auto *ab = sim.channel<int>(2);
    auto *ba = sim.channel<int>(2);
    sim.add<HandshakeUnit>("alpha", ba, ab);
    sim.add<HandshakeUnit>("beta", ab, ba);
    sim::Simulator::RunResult result = sim.run(nullptr, 10000);
    ASSERT_TRUE(result.deadlock);
    ASSERT_NE(result.report, nullptr);
    EXPECT_EQ(result.report->kind, sim::HangKind::Deadlock);
    ASSERT_EQ(result.report->waits.size(), 2u);
    ASSERT_FALSE(result.report->waitCycle.empty());
    std::string joined;
    for (const std::string &hop : result.report->waitCycle)
        joined += hop + "\n";
    EXPECT_NE(joined.find("alpha"), std::string::npos) << joined;
    EXPECT_NE(joined.find("beta"), std::string::npos) << joined;
    EXPECT_FALSE(result.report->internalBug());
    EXPECT_NE(result.report->render().find("deadlock"),
              std::string::npos);
}

// --- Hardened SOFF_* environment parsing -------------------------------

class EnvParsing : public ::testing::Test
{
  protected:
    void
    launchTrivial()
    {
        rt::Context ctx;
        rt::Program program = ctx.buildProgram(
            "__kernel void t(__global int *X) "
            "{ X[get_global_id(0)] = 1; }");
        rt::KernelHandle kernel = program.createKernel("t");
        rt::Buffer b = ctx.createBuffer(64 * 4);
        kernel.setArg(0, b);
        ctx.enqueueNDRange(kernel, range1d(64, 64));
    }
};

TEST_F(EnvParsing, RejectsUnknownScheduler)
{
    ScopedEnv faults("SOFF_FAULTS", nullptr);
    for (const char *bad : {"bogus", "parallel"}) {
        ScopedEnv sched("SOFF_SCHEDULER", bad);
        try {
            launchTrivial();
            FAIL() << "SOFF_SCHEDULER='" << bad << "' must be rejected";
        } catch (const rt::OpenClError &e) {
            EXPECT_EQ(e.status(), ClStatus::InvalidValue) << bad;
            EXPECT_NE(std::string(e.what()).find(
                          "reference, event-driven, compiled, "
                          "cross-check"),
                      std::string::npos)
                << "the error must list the valid values: " << e.what();
        }
    }
}

TEST_F(EnvParsing, RejectsMalformedFaultPlans)
{
    ScopedEnv sched("SOFF_SCHEDULER", nullptr);
    for (const char *bad : {"xyz", "seed=", "wibble=3", "trip=5"}) {
        ScopedEnv faults("SOFF_FAULTS", bad);
        try {
            launchTrivial();
            FAIL() << "SOFF_FAULTS='" << bad << "' must be rejected";
        } catch (const rt::OpenClError &e) {
            EXPECT_EQ(e.status(), ClStatus::InvalidValue) << bad;
            EXPECT_NE(std::string(e.what()).find("SOFF_FAULTS"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST_F(EnvParsing, AcceptsFaultSeedFromEnvironment)
{
    ScopedEnv sched("SOFF_SCHEDULER", nullptr);
    ScopedEnv faults("SOFF_FAULTS", "42");
    EXPECT_NO_THROW(launchTrivial());
}

// --- OpenCL status-code mapping ----------------------------------------

TEST(ClStatusMapping, ApiErrorsCarryMatchingStatusCodes)
{
    rt::Context ctx(datapath::FpgaSpec::arria10(), 1 << 20);
    try {
        ctx.createBuffer(64ull << 20);
        FAIL();
    } catch (const rt::OpenClError &e) {
        EXPECT_EQ(e.status(), ClStatus::MemObjectAllocationFailure);
        EXPECT_STREQ(e.statusName(),
                     "CL_MEM_OBJECT_ALLOCATION_FAILURE");
    }
    // A size within 63 bytes of 2^64 must not wrap to a tiny block.
    try {
        ctx.createBuffer(~0ull);
        FAIL();
    } catch (const rt::OpenClError &e) {
        EXPECT_EQ(e.status(), ClStatus::MemObjectAllocationFailure);
    }
    try {
        ctx.createBuffer(0);
        FAIL();
    } catch (const rt::OpenClError &e) {
        EXPECT_EQ(e.status(), ClStatus::InvalidBufferSize);
        EXPECT_STREQ(e.statusName(), "CL_INVALID_BUFFER_SIZE");
    }
    try {
        rt::Context tiny(datapath::FpgaSpec::arria10(), 16);
        FAIL();
    } catch (const rt::OpenClError &e) {
        EXPECT_EQ(e.status(), ClStatus::InvalidValue);
    }
    // The rejected requests reserved nothing: the next two buffers are
    // distinct.
    rt::Buffer first = ctx.createBuffer(256);
    rt::Buffer second = ctx.createBuffer(256);
    EXPECT_NE(first.deviceAddress(), second.deviceAddress());
    rt::Program program = ctx.buildProgram(
        "__kernel void t(__global int *X, int v) "
        "{ X[get_global_id(0)] = v; }");
    try {
        program.createKernel("nope");
        FAIL();
    } catch (const rt::OpenClError &e) {
        EXPECT_EQ(e.status(), ClStatus::InvalidKernelName);
    }
    rt::KernelHandle kernel = program.createKernel("t");
    rt::Buffer buffer = ctx.createBuffer(256);
    try {
        kernel.setArg(7, int32_t{1});
        FAIL();
    } catch (const rt::OpenClError &e) {
        EXPECT_EQ(e.status(), ClStatus::InvalidArgIndex);
    }
    try {
        kernel.setArg(0, int32_t{1}); // buffer slot given a scalar
        FAIL();
    } catch (const rt::OpenClError &e) {
        EXPECT_EQ(e.status(), ClStatus::InvalidArgValue);
    }
    kernel.setArg(0, buffer);
    try {
        ctx.enqueueNDRange(kernel, range1d(64, 64)); // arg 1 unset
        FAIL();
    } catch (const rt::OpenClError &e) {
        EXPECT_EQ(e.status(), ClStatus::InvalidKernelArgs);
    }
    kernel.setArg(1, int32_t{5});
    try {
        ctx.enqueueNDRange(kernel, range1d(65, 64));
        FAIL();
    } catch (const rt::OpenClError &e) {
        EXPECT_EQ(e.status(), ClStatus::InvalidWorkGroupSize);
        EXPECT_STREQ(e.statusName(), "CL_INVALID_WORK_GROUP_SIZE");
    }
    try {
        rt::Device device(datapath::FpgaSpec::arria10(), 1 << 20);
        device.release(12345);
        FAIL();
    } catch (const rt::OpenClError &e) {
        EXPECT_EQ(e.status(), ClStatus::InvalidValue);
    }
}

} // namespace
} // namespace soff
