/** @file Unit tests for the transformation passes: inlining, mem2reg,
 *  return unification, barrier splitting, simplify. */
#include <gtest/gtest.h>

#include "frontend/irgen.hpp"
#include "ir/builder.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "support/error.hpp"
#include "transform/passes.hpp"

namespace soff::transform
{
namespace
{

std::unique_ptr<ir::Module>
compileAndLower(const std::string &src)
{
    auto module = fe::compileToIR(src, "test");
    runStandardPipeline(*module);
    auto errors = ir::verifyModule(*module);
    EXPECT_TRUE(errors.empty())
        << (errors.empty() ? "" : errors[0]) << "\n"
        << ir::printModule(*module);
    return module;
}

bool
containsOpcode(const ir::Kernel &k, ir::Opcode op)
{
    for (const auto &bb : k.blocks()) {
        for (const auto &inst : bb->instructions()) {
            if (inst->op() == op)
                return true;
        }
    }
    return false;
}

TEST(Inliner, RemovesCallsAndHelpers)
{
    auto m = compileAndLower(
        "float square(float x) { return x * x; }\n"
        "float quad(float x) { return square(x) * square(x); }\n"
        "__kernel void f(__global float* A) {\n"
        "  int i = get_global_id(0);\n"
        "  A[i] = quad(A[i]);\n"
        "}");
    EXPECT_EQ(m->numKernels(), 1u);
    EXPECT_FALSE(containsOpcode(*m->kernel(0), ir::Opcode::Call));
}

TEST(Inliner, MultiReturnCalleeGetsPhi)
{
    auto m = compileAndLower(
        "int pick(int a, int b) { if (a > b) return a; return b; }\n"
        "__kernel void f(__global int* A) {\n"
        "  int i = get_global_id(0);\n"
        "  A[i] = pick(A[i], i);\n"
        "}");
    EXPECT_FALSE(containsOpcode(*m->kernel(0), ir::Opcode::Call));
}

TEST(Inliner, RecursionRejected)
{
    auto module = fe::compileToIR(
        "int f(int x) { return x <= 1 ? 1 : f(x - 1); }\n"
        "__kernel void k(__global int* A) { A[0] = f(A[1]); }",
        "test");
    EXPECT_THROW(runStandardPipeline(*module), CompileError);
}

TEST(Inliner, MutualRecursionRejectedNamingTheCycle)
{
    // OpenCL C source cannot express f -> g -> f (the frontend has no
    // prototypes), so the call graph is built directly in IR.
    ir::Module m("t");
    auto &t = m.types();
    ir::IRBuilder b(m);
    ir::Kernel *f = m.addKernel("f", false, t.i32());
    ir::Kernel *g = m.addKernel("g", false, t.i32());
    ir::Kernel *k = m.addKernel("k", true, t.voidTy());
    ir::Value *fx = f->addArgument(t.i32(), "x");
    ir::Value *gx = g->addArgument(t.i32(), "x");
    b.setInsertPoint(f->addBlock("entry"));
    b.createRet(b.createCall(g, {fx}));
    b.setInsertPoint(g->addBlock("entry"));
    b.createRet(b.createCall(f, {gx}));
    b.setInsertPoint(k->addBlock("entry"));
    b.createCall(f, {b.constInt(t.i32(), 3)});
    b.createRet(nullptr);
    try {
        inlineFunctions(m);
        FAIL() << "mutual recursion must be a CompileError";
    } catch (const CompileError &e) {
        EXPECT_NE(std::string(e.what()).find("f -> g -> f"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Inliner, NonRecursiveDiamondInlines)
{
    // f calls g twice and g calls h: h is reached along two paths, but
    // that is sharing, not a cycle.
    auto m = compileAndLower(
        "int h(int x) { return x * 3; }\n"
        "int g(int x) { return h(x) + 1; }\n"
        "int f(int x) { return g(x) + g(x + 1); }\n"
        "__kernel void k(__global int* A) {\n"
        "  int i = get_global_id(0);\n"
        "  A[i] = f(A[i]);\n"
        "}");
    ASSERT_EQ(m->numKernels(), 1u);
    EXPECT_FALSE(containsOpcode(*m->kernel(0), ir::Opcode::Call));
}

TEST(Mem2Reg, EliminatesAllSlots)
{
    auto m = compileAndLower(
        "__kernel void f(__global float* A, int n) {\n"
        "  int i = get_global_id(0);\n"
        "  float acc = 0.0f;\n"
        "  for (int k = 0; k < n; k++) acc += A[k];\n"
        "  A[i] = acc;\n"
        "}");
    ir::Kernel &k = *m->kernel(0);
    EXPECT_EQ(k.numSlots(), 0u);
    EXPECT_FALSE(containsOpcode(k, ir::Opcode::SlotLoad));
    EXPECT_FALSE(containsOpcode(k, ir::Opcode::SlotStore));
    EXPECT_TRUE(containsOpcode(k, ir::Opcode::Phi));
}

TEST(Mem2Reg, PromotesWholeArraysToSSAValues)
{
    auto m = compileAndLower(
        "__kernel void f(__global float* A) {\n"
        "  float window[3];\n"
        "  int i = get_global_id(0);\n"
        "  for (int k = 0; k < 3; k++) window[k] = A[i + k];\n"
        "  A[i] = window[0] + window[1] + window[2];\n"
        "}");
    ir::Kernel &k = *m->kernel(0);
    EXPECT_EQ(k.numSlots(), 0u);
    EXPECT_TRUE(containsOpcode(k, ir::Opcode::ArrayInsert));
    EXPECT_TRUE(containsOpcode(k, ir::Opcode::ArrayExtract));
}

TEST(UnifyReturns, SingleExitBlock)
{
    auto m = compileAndLower(
        "__kernel void f(__global int* A, int n) {\n"
        "  int i = get_global_id(0);\n"
        "  if (i >= n) return;\n"
        "  A[i] = i;\n"
        "}");
    int rets = 0;
    for (const auto &bb : m->kernel(0)->blocks()) {
        for (const auto &inst : bb->instructions()) {
            if (inst->op() == ir::Opcode::Ret)
                ++rets;
        }
    }
    EXPECT_EQ(rets, 1);
}

TEST(SplitBarriers, BarrierAloneInBlock)
{
    auto m = compileAndLower(
        "__kernel void f(__global float* A) {\n"
        "  __local float t[8];\n"
        "  int l = get_local_id(0);\n"
        "  t[l] = A[l];\n"
        "  barrier(CLK_LOCAL_MEM_FENCE);\n"
        "  A[l] = t[7 - l];\n"
        "}");
    for (const auto &bb : m->kernel(0)->blocks()) {
        for (size_t i = 0; i < bb->size(); ++i) {
            if (bb->inst(i)->op() != ir::Opcode::Barrier)
                continue;
            EXPECT_EQ(i, 0u) << "barrier must lead its block";
            EXPECT_EQ(bb->size(), 2u) << "barrier + Br only";
            EXPECT_EQ(bb->inst(1)->op(), ir::Opcode::Br);
        }
    }
}

TEST(Simplify, FoldsConstants)
{
    auto m = compileAndLower(
        "__kernel void f(__global int* A) {\n"
        "  A[0] = (3 + 4) * 2 - 14;\n"
        "}");
    // (3+4)*2-14 == 0: the arithmetic should be folded away entirely.
    ir::Kernel &k = *m->kernel(0);
    EXPECT_FALSE(containsOpcode(k, ir::Opcode::Mul));
    EXPECT_FALSE(containsOpcode(k, ir::Opcode::Sub));
}

TEST(Simplify, RemovesDeadBranches)
{
    auto m = compileAndLower(
        "__kernel void f(__global int* A) {\n"
        "  int i = get_global_id(0);\n"
        "  if (0) { A[i] = 1; } else { A[i] = 2; }\n"
        "}");
    // Only the else path survives; at most 2 blocks (often 1).
    EXPECT_LE(m->kernel(0)->numBlocks(), 2u);
}

TEST(Simplify, MergesStraightLineBlocks)
{
    auto m = compileAndLower(
        "__kernel void f(__global int* A) {\n"
        "  int i = get_global_id(0);\n"
        "  int a = A[i];\n"
        "  int b = a + 1;\n"
        "  A[i] = b;\n"
        "}");
    EXPECT_EQ(m->kernel(0)->numBlocks(), 1u);
}

TEST(Pipeline, LoopKernelIsWellFormed)
{
    auto m = compileAndLower(
        "__kernel void f(__global float* A, __global float* B, int C,\n"
        "                int D) {\n"
        "  int x, y; float t = 0;\n"
        "  y = get_global_id(0) * D;\n"
        "  for (x = C; x < C + 100; x++) {\n"
        "    A[y] = B[x + y]; y = y + 1;\n"
        "    barrier(CLK_GLOBAL_MEM_FENCE);\n"
        "    if (y >= D)\n"
        "      t += A[y] * A[y - D];\n"
        "  }\n"
        "  B[y] = A[y]; A[y + C] = t;\n"
        "}");
    // The paper's running example (Fig. 4) must survive the pipeline.
    ir::Kernel &k = *m->kernel(0);
    EXPECT_TRUE(containsOpcode(k, ir::Opcode::Barrier));
    EXPECT_TRUE(containsOpcode(k, ir::Opcode::Phi));
    EXPECT_EQ(k.numSlots(), 0u);
}

TEST(Pipeline, BreakAndContinue)
{
    auto m = compileAndLower(
        "__kernel void f(__global int* A, int n) {\n"
        "  int i = get_global_id(0);\n"
        "  int sum = 0;\n"
        "  for (int k = 0; k < n; k++) {\n"
        "    if (A[k] < 0) continue;\n"
        "    if (A[k] == 999) break;\n"
        "    sum += A[k];\n"
        "  }\n"
        "  A[i] = sum;\n"
        "}");
    EXPECT_EQ(m->kernel(0)->numSlots(), 0u);
}

} // namespace
} // namespace soff::transform
