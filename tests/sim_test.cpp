/** @file End-to-end tests: kernels compiled to datapath plans, executed
 *  on the cycle-level circuit simulator, and checked against both the
 *  reference interpreter and host-computed expectations. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "runtime/runtime.hpp"
#include "scoped_env.hpp"
#include "support/rng.hpp"

namespace soff
{
namespace
{

using rt::Buffer;
using rt::Context;
using rt::ExecutionMode;
using rt::Program;

sim::NDRange
range1d(uint64_t global, uint64_t local)
{
    sim::NDRange nd;
    nd.globalSize[0] = global;
    nd.localSize[0] = local;
    return nd;
}

TEST(Sim, VectorAdd)
{
    const char *src =
        "__kernel void vadd(__global float* A, __global float* B,\n"
        "                   __global float* C) {\n"
        "  int i = get_global_id(0);\n"
        "  C[i] = A[i] + B[i];\n"
        "}\n";
    Context ctx;
    Program prog = ctx.buildProgram(src);
    auto kernel = prog.createKernel("vadd");

    const uint64_t n = 256;
    std::vector<float> a(n), b(n), c(n, 0.0f);
    SplitMix64 rng(1);
    for (uint64_t i = 0; i < n; ++i) {
        a[i] = rng.nextFloat();
        b[i] = rng.nextFloat();
    }
    Buffer ba = ctx.createBuffer(n * 4);
    Buffer bb = ctx.createBuffer(n * 4);
    Buffer bc = ctx.createBuffer(n * 4);
    ctx.writeBuffer(ba, a.data(), n * 4);
    ctx.writeBuffer(bb, b.data(), n * 4);
    ctx.writeBuffer(bc, c.data(), n * 4);
    kernel.setArg(0, ba);
    kernel.setArg(1, bb);
    kernel.setArg(2, bc);

    rt::LaunchResult result =
        ctx.enqueueNDRange(kernel, range1d(n, 64));
    EXPECT_GT(result.cycles, n) << "pipelined execution takes cycles";
    EXPECT_GE(result.instances, 1);

    ctx.readBuffer(bc, c.data(), n * 4);
    for (uint64_t i = 0; i < n; ++i)
        EXPECT_FLOAT_EQ(c[i], a[i] + b[i]) << "at " << i;
}

TEST(Sim, LoopReductionMatchesReference)
{
    const char *src =
        "__kernel void rowsum(__global float* M, __global float* S,\n"
        "                     int cols) {\n"
        "  int r = get_global_id(0);\n"
        "  float acc = 0.0f;\n"
        "  for (int c = 0; c < cols; c++) acc += M[r * cols + c];\n"
        "  S[r] = acc;\n"
        "}\n";
    const uint64_t rows = 64;
    const int cols = 17;
    std::vector<float> m(rows * static_cast<uint64_t>(cols));
    SplitMix64 rng(2);
    for (auto &v : m)
        v = rng.nextFloat() - 0.5f;

    // Run in both modes from identical initial memory.
    std::vector<float> sim_out(rows), ref_out(rows);
    for (int mode = 0; mode < 2; ++mode) {
        Context ctx;
        Program prog = ctx.buildProgram(src);
        auto kernel = prog.createKernel("rowsum");
        Buffer bm = ctx.createBuffer(m.size() * 4);
        Buffer bs = ctx.createBuffer(rows * 4);
        ctx.writeBuffer(bm, m.data(), m.size() * 4);
        kernel.setArg(0, bm);
        kernel.setArg(1, bs);
        kernel.setArg(2, cols);
        ctx.enqueueNDRange(kernel, range1d(rows, 16),
                           mode == 0 ? ExecutionMode::Simulate
                                     : ExecutionMode::Reference);
        ctx.readBuffer(bs, (mode == 0 ? sim_out : ref_out).data(),
                       rows * 4);
    }
    for (uint64_t r = 0; r < rows; ++r)
        EXPECT_FLOAT_EQ(sim_out[r], ref_out[r]) << "row " << r;
}

TEST(Sim, BranchDivergence)
{
    const char *src =
        "__kernel void clip(__global int* A, int lo, int hi) {\n"
        "  int i = get_global_id(0);\n"
        "  int v = A[i];\n"
        "  if (v < lo) v = lo;\n"
        "  else if (v > hi) v = hi;\n"
        "  A[i] = v;\n"
        "}\n";
    Context ctx;
    Program prog = ctx.buildProgram(src);
    auto kernel = prog.createKernel("clip");
    const uint64_t n = 128;
    std::vector<int32_t> a(n);
    SplitMix64 rng(3);
    for (auto &v : a)
        v = rng.nextInt(-100, 100);
    Buffer ba = ctx.createBuffer(n * 4);
    ctx.writeBuffer(ba, a.data(), n * 4);
    kernel.setArg(0, ba);
    kernel.setArg(1, int32_t{-10});
    kernel.setArg(2, int32_t{25});
    ctx.enqueueNDRange(kernel, range1d(n, 32));
    std::vector<int32_t> out(n);
    ctx.readBuffer(ba, out.data(), n * 4);
    for (uint64_t i = 0; i < n; ++i) {
        int32_t expect = std::min(std::max(a[i], -10), 25);
        EXPECT_EQ(out[i], expect) << "at " << i;
    }
}

TEST(Sim, BarrierWithLocalMemory)
{
    const char *src =
        "__kernel void rev(__global float* A, __global float* B) {\n"
        "  __local float tile[32];\n"
        "  int l = get_local_id(0);\n"
        "  int base = get_group_id(0) * 32;\n"
        "  tile[l] = A[base + l];\n"
        "  barrier(CLK_LOCAL_MEM_FENCE);\n"
        "  B[base + l] = tile[31 - l];\n"
        "}\n";
    Context ctx;
    Program prog = ctx.buildProgram(src);
    auto kernel = prog.createKernel("rev");
    const uint64_t n = 128;
    std::vector<float> a(n), b(n, 0);
    for (uint64_t i = 0; i < n; ++i)
        a[i] = static_cast<float>(i);
    Buffer ba = ctx.createBuffer(n * 4);
    Buffer bb = ctx.createBuffer(n * 4);
    ctx.writeBuffer(ba, a.data(), n * 4);
    ctx.writeBuffer(bb, b.data(), n * 4);
    kernel.setArg(0, ba);
    kernel.setArg(1, bb);
    ctx.enqueueNDRange(kernel, range1d(n, 32));
    ctx.readBuffer(bb, b.data(), n * 4);
    for (uint64_t g = 0; g < n / 32; ++g) {
        for (uint64_t l = 0; l < 32; ++l)
            EXPECT_FLOAT_EQ(b[g * 32 + l], a[g * 32 + (31 - l)]);
    }
}

TEST(Sim, AtomicsHistogram)
{
    const char *src =
        "__kernel void hist(__global int* D, __global int* H, int bins) {\n"
        "  int i = get_global_id(0);\n"
        "  atomic_add(&H[D[i] % bins], 1);\n"
        "}\n";
    Context ctx;
    Program prog = ctx.buildProgram(src);
    auto kernel = prog.createKernel("hist");
    const uint64_t n = 256;
    const int bins = 16;
    std::vector<int32_t> d(n);
    std::vector<int32_t> h(bins, 0), expect(bins, 0);
    SplitMix64 rng(4);
    for (auto &v : d) {
        v = rng.nextInt(0, 1000);
        ++expect[static_cast<size_t>(v % bins)];
    }
    Buffer bd = ctx.createBuffer(n * 4);
    Buffer bh = ctx.createBuffer(bins * 4);
    ctx.writeBuffer(bd, d.data(), n * 4);
    ctx.writeBuffer(bh, h.data(), bins * 4);
    kernel.setArg(0, bd);
    kernel.setArg(1, bh);
    kernel.setArg(2, bins);
    ctx.enqueueNDRange(kernel, range1d(n, 64));
    ctx.readBuffer(bh, h.data(), bins * 4);
    for (int b = 0; b < bins; ++b)
        EXPECT_EQ(h[b], expect[b]) << "bin " << b;
}

/** A median-of-3 window held in a private array: the one kernel shape
 *  that carries an array value through the circuit (paper §III-C
 *  promotes the whole array to an SSA value). */
const char *const kMed3Source =
    "__kernel void med3(__global float* A, __global float* B, int n) {\n"
    "  int i = get_global_id(0);\n"
    "  float w[3];\n"
    "  for (int k = 0; k < 3; k++) {\n"
    "    int j = i + k - 1;\n"
    "    if (j < 0) j = 0;\n"
    "    if (j >= n) j = n - 1;\n"
    "    w[k] = A[j];\n"
    "  }\n"
    "  B[i] = fmax(fmin(w[0], w[1]),\n"
    "              fmin(fmax(w[0], w[1]), w[2]));\n"
    "}\n";

struct Med3Run
{
    std::vector<float> out;
    uint64_t cycles = 0;
};

/** Launches med3 over `a` on `prog` (fresh buffers each time). */
Med3Run
runMed3(Context &ctx, Program &prog, const std::vector<float> &a,
        ExecutionMode mode = ExecutionMode::Simulate,
        sim::SchedulerMode scheduler = sim::SchedulerMode::Compiled)
{
    const uint64_t n = a.size();
    auto kernel = prog.createKernel("med3");
    Buffer ba = ctx.createBuffer(n * 4);
    Buffer bb = ctx.createBuffer(n * 4);
    ctx.writeBuffer(ba, a.data(), n * 4);
    kernel.setArg(0, ba);
    kernel.setArg(1, bb);
    kernel.setArg(2, static_cast<int32_t>(n));
    sim::PlatformConfig platform;
    platform.scheduler = scheduler;
    Med3Run run;
    run.cycles =
        ctx.enqueueNDRange(kernel, range1d(n, 32), mode, platform).cycles;
    run.out.resize(n);
    ctx.readBuffer(bb, run.out.data(), n * 4);
    return run;
}

std::vector<float>
med3Inputs()
{
    std::vector<float> a(96);
    SplitMix64 rng(5);
    for (auto &v : a)
        v = rng.nextFloat();
    return a;
}

TEST(Sim, PrivateArrayStencil)
{
    Context ctx;
    Program prog = ctx.buildProgram(kMed3Source);
    const std::vector<float> a = med3Inputs();
    const uint64_t n = a.size();
    std::vector<float> b = runMed3(ctx, prog, a).out;
    for (uint64_t i = 0; i < n; ++i) {
        float w0 = a[i == 0 ? 0 : i - 1];
        float w1 = a[i];
        float w2 = a[i + 1 >= n ? n - 1 : i + 1];
        float expect = std::max(std::min(w0, w1),
                                std::min(std::max(w0, w1), w2));
        EXPECT_FLOAT_EQ(b[i], expect) << "at " << i;
    }
}

TEST(Sim, PrivateArrayAgreesAcrossSchedulersEnginesAndRelaunch)
{
    // Array values are the only RtValues with a shared, reference-
    // counted payload, and no benchmark app carries one, so the
    // stencil runs on every path that moves them: the three schedulers,
    // the reference interpreter, and a relaunch of a pooled circuit.
    // Fault injection bypasses the template pool and SOFF_SCHEDULER
    // would override the compiled legs, so both are pinned off.
    ScopedEnv faults("SOFF_FAULTS", nullptr);
    ScopedEnv scheduler("SOFF_SCHEDULER", nullptr);
    Context ctx;
    Program prog = ctx.buildProgram(kMed3Source);
    const std::vector<float> a = med3Inputs();
    const Med3Run compiled = runMed3(ctx, prog, a);
    ASSERT_GT(compiled.cycles, 0u);
    const Med3Run pooled = runMed3(ctx, prog, a);
    EXPECT_GE(prog.templatePoolStats().hits, 1u)
        << "the second launch must relaunch a parked circuit";
    const Med3Run reference =
        runMed3(ctx, prog, a, ExecutionMode::Simulate,
                sim::SchedulerMode::Reference);
    const Med3Run event =
        runMed3(ctx, prog, a, ExecutionMode::Simulate,
                sim::SchedulerMode::EventDriven);
    const Med3Run interp = runMed3(ctx, prog, a, ExecutionMode::Reference);
    for (const Med3Run *run : {&pooled, &reference, &event}) {
        EXPECT_EQ(run->cycles, compiled.cycles);
        EXPECT_EQ(run->out, compiled.out);
    }
    EXPECT_EQ(interp.out, compiled.out);
}

TEST(Sim, BreakContinueLoop)
{
    const char *src =
        "__kernel void scan(__global int* A, __global int* R, int n) {\n"
        "  int i = get_global_id(0);\n"
        "  int sum = 0;\n"
        "  for (int k = 0; k < n; k++) {\n"
        "    int v = A[(i + k) % n];\n"
        "    if (v < 0) continue;\n"
        "    if (v > 90) break;\n"
        "    sum += v;\n"
        "  }\n"
        "  R[i] = sum;\n"
        "}\n";
    Context ctx;
    Program prog = ctx.buildProgram(src);
    auto kernel = prog.createKernel("scan");
    const int n = 64;
    std::vector<int32_t> a(static_cast<size_t>(n));
    SplitMix64 rng(6);
    for (auto &v : a)
        v = rng.nextInt(-50, 100);
    Buffer ba = ctx.createBuffer(static_cast<uint64_t>(n) * 4);
    Buffer br = ctx.createBuffer(static_cast<uint64_t>(n) * 4);
    ctx.writeBuffer(ba, a.data(), static_cast<uint64_t>(n) * 4);
    kernel.setArg(0, ba);
    kernel.setArg(1, br);
    kernel.setArg(2, n);
    ctx.enqueueNDRange(kernel, range1d(static_cast<uint64_t>(n), 16));
    std::vector<int32_t> r(static_cast<size_t>(n));
    ctx.readBuffer(br, r.data(), static_cast<uint64_t>(n) * 4);
    for (int i = 0; i < n; ++i) {
        int sum = 0;
        for (int k = 0; k < n; ++k) {
            int v = a[static_cast<size_t>((i + k) % n)];
            if (v < 0)
                continue;
            if (v > 90)
                break;
            sum += v;
        }
        EXPECT_EQ(r[static_cast<size_t>(i)], sum) << "wi " << i;
    }
}

TEST(Sim, EarlyReturn)
{
    const char *src =
        "__kernel void guard(__global int* A, int n) {\n"
        "  int i = get_global_id(0);\n"
        "  if (i >= n) return;\n"
        "  A[i] = A[i] * 2 + 1;\n"
        "}\n";
    Context ctx;
    Program prog = ctx.buildProgram(src);
    auto kernel = prog.createKernel("guard");
    const uint64_t n = 100; // NDRange padded to 128
    std::vector<int32_t> a(128);
    for (size_t i = 0; i < a.size(); ++i)
        a[i] = static_cast<int32_t>(i);
    Buffer ba = ctx.createBuffer(128 * 4);
    ctx.writeBuffer(ba, a.data(), 128 * 4);
    kernel.setArg(0, ba);
    kernel.setArg(1, static_cast<int32_t>(n));
    ctx.enqueueNDRange(kernel, range1d(128, 32));
    std::vector<int32_t> out(128);
    ctx.readBuffer(ba, out.data(), 128 * 4);
    for (size_t i = 0; i < 128; ++i) {
        int32_t expect = i < n ? static_cast<int32_t>(i) * 2 + 1
                               : static_cast<int32_t>(i);
        EXPECT_EQ(out[i], expect) << "at " << i;
    }
}

TEST(Sim, BarrierInUniformLoop)
{
    // The paper's running example shape (Fig. 4): a barrier inside a
    // uniform-trip-count loop -> SWGR glues (§IV-F1, Fig. 8(d)).
    const char *src =
        "__kernel void smooth(__global float* A, __global float* B,\n"
        "                     int iters) {\n"
        "  __local float tile[16];\n"
        "  int l = get_local_id(0);\n"
        "  int g = get_global_id(0);\n"
        "  tile[l] = A[g];\n"
        "  for (int t = 0; t < iters; t++) {\n"
        "    barrier(CLK_LOCAL_MEM_FENCE);\n"
        "    float left = tile[l == 0 ? 0 : l - 1];\n"
        "    float right = tile[l == 15 ? 15 : l + 1];\n"
        "    barrier(CLK_LOCAL_MEM_FENCE);\n"
        "    tile[l] = 0.5f * tile[l] + 0.25f * (left + right);\n"
        "  }\n"
        "  barrier(CLK_LOCAL_MEM_FENCE);\n"
        "  B[g] = tile[l];\n"
        "}\n";
    const uint64_t n = 64;
    std::vector<float> a(n);
    SplitMix64 rng(7);
    for (auto &v : a)
        v = rng.nextFloat();

    std::vector<float> sim_out(n), ref_out(n);
    for (int mode = 0; mode < 2; ++mode) {
        Context ctx;
        Program prog = ctx.buildProgram(src);
        auto kernel = prog.createKernel("smooth");
        Buffer ba = ctx.createBuffer(n * 4);
        Buffer bb = ctx.createBuffer(n * 4);
        ctx.writeBuffer(ba, a.data(), n * 4);
        kernel.setArg(0, ba);
        kernel.setArg(1, bb);
        kernel.setArg(2, int32_t{3});
        ctx.enqueueNDRange(kernel, range1d(n, 16),
                           mode == 0 ? ExecutionMode::Simulate
                                     : ExecutionMode::Reference);
        ctx.readBuffer(bb, (mode == 0 ? sim_out : ref_out).data(), n * 4);
    }
    for (uint64_t i = 0; i < n; ++i)
        EXPECT_FLOAT_EQ(sim_out[i], ref_out[i]) << "at " << i;
}

} // namespace
} // namespace soff
