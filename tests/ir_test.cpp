/** @file Unit tests for the IR: types, constants, builder, verifier,
 *  and the shared evaluation semantics. */
#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/eval.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"

namespace soff::ir
{
namespace
{

TEST(Types, InterningAndProperties)
{
    TypeContext ctx;
    EXPECT_EQ(ctx.i32(), ctx.intTy(32, true));
    EXPECT_NE(ctx.i32(), ctx.u32());
    EXPECT_NE(ctx.i32(), ctx.i64());
    EXPECT_EQ(ctx.f32()->bits(), 32);
    EXPECT_TRUE(ctx.f64()->isFloat());
    EXPECT_EQ(ctx.i32()->sizeBytes(), 4u);
    EXPECT_EQ(ctx.voidTy()->sizeBytes(), 0u);

    const Type *p = ctx.ptrTy(ctx.f32(), AddrSpace::Global);
    EXPECT_EQ(p, ctx.ptrTy(ctx.f32(), AddrSpace::Global));
    EXPECT_NE(p, ctx.ptrTy(ctx.f32(), AddrSpace::Local));
    EXPECT_EQ(p->sizeBytes(), 8u);
    EXPECT_EQ(p->str(), "global f32*");

    const Type *a = ctx.arrayTy(ctx.i32(), 16);
    EXPECT_EQ(a, ctx.arrayTy(ctx.i32(), 16));
    EXPECT_EQ(a->sizeBytes(), 64u);
}

TEST(Constants, InterningAndNormalization)
{
    Module m("t");
    Constant *a = m.constantInt(m.types().i32(), 5);
    Constant *b = m.constantInt(m.types().i32(), 5);
    EXPECT_EQ(a, b);
    // Truncation at interning: 2^32 + 5 == 5 for i32.
    Constant *c = m.constantInt(m.types().i32(), (1ULL << 32) + 5);
    EXPECT_EQ(a, c);
    Constant *neg = m.constantInt(
        m.types().i32(), static_cast<uint64_t>(static_cast<int64_t>(-1)));
    EXPECT_EQ(neg->intSigned(), -1);
    Constant *f = m.constantFloat(m.types().f32(), 2.5);
    EXPECT_EQ(f->fp(), 2.5);
}

/** Builds: kernel f(global f32* A) { A[gid] = A[gid] * 2 + 1; } */
std::unique_ptr<Module>
buildSmallKernel()
{
    auto m = std::make_unique<Module>("t");
    auto &t = m->types();
    Kernel *k = m->addKernel("f", true, t.voidTy());
    Argument *arg_a =
        k->addArgument(t.ptrTy(t.f32(), AddrSpace::Global), "A");
    IRBuilder b(*m);
    BasicBlock *entry = k->addBlock("B1");
    b.setInsertPoint(entry);
    Value *gid = b.createWorkItemInfo(WorkItemQuery::GlobalId,
                                      b.constInt(t.u32(), 0));
    Value *idx = b.createCast(Opcode::Bitcast, gid, t.i64());
    Value *bytes = b.createBinOp(Opcode::Mul, idx, b.constI64(4));
    Value *ptr = b.createPtrAdd(arg_a, bytes);
    Value *v = b.createLoad(ptr);
    Value *two = b.constFloat(t.f32(), 2.0);
    Value *one = b.constFloat(t.f32(), 1.0);
    Value *mul = b.createBinOp(Opcode::FMul, v, two);
    Value *add = b.createBinOp(Opcode::FAdd, mul, one);
    b.createStore(ptr, add);
    b.createRet(nullptr);
    return m;
}

TEST(Builder, ConstructsVerifiableKernel)
{
    auto m = buildSmallKernel();
    auto errors = verifyModule(*m);
    EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors[0]);
}

TEST(Printer, RendersKernel)
{
    auto m = buildSmallKernel();
    std::string text = printModule(*m);
    EXPECT_NE(text.find("kernel @f(global f32* %A)"), std::string::npos);
    EXPECT_NE(text.find("fmul"), std::string::npos);
    EXPECT_NE(text.find("store"), std::string::npos);
}

TEST(Verifier, CatchesMissingTerminator)
{
    Module m("t");
    Kernel *k = m.addKernel("g", true, m.types().voidTy());
    k->addBlock("B1");
    auto errors = verifyKernel(*k);
    ASSERT_FALSE(errors.empty());
    EXPECT_NE(errors[0].find("not terminated"), std::string::npos);
}

TEST(Verifier, CatchesTypeMismatch)
{
    Module m("t");
    auto &t = m.types();
    Kernel *k = m.addKernel("g", true, t.voidTy());
    BasicBlock *bb = k->addBlock("B1");
    auto bad = std::make_unique<Instruction>(Opcode::Add, t.i32());
    bad->addOperand(m.constantInt(t.i32(), 1));
    bad->addOperand(m.constantInt(t.i64(), 1));
    bb->append(std::move(bad));
    auto ret = std::make_unique<Instruction>(Opcode::Ret, t.voidTy());
    bb->append(std::move(ret));
    auto errors = verifyKernel(*k);
    ASSERT_FALSE(errors.empty());
}

// --- eval semantics ---

WorkItemCtx
dummyWi()
{
    WorkItemCtx wi;
    wi.globalId[0] = 7;
    wi.localId[0] = 3;
    wi.groupId[0] = 1;
    wi.globalSize[0] = 16;
    wi.localSize[0] = 4;
    wi.numGroups[0] = 4;
    return wi;
}

/** Evaluates a freshly built instruction over constant operands. */
RtValue
evalOp(Module & /*m*/, Opcode op, const Type *ty,
       std::initializer_list<Value *> ops,
       std::initializer_list<RtValue> vals)
{
    Instruction inst(op, ty);
    for (Value *v : ops)
        inst.addOperand(v);
    std::vector<RtValue> operands(vals);
    return evalPure(&inst, operands.data(), operands.size(), dummyWi());
}

TEST(Eval, IntegerArithmeticWrapsAtWidth)
{
    Module m("t");
    auto &t = m.types();
    Value *a = m.constantInt(t.i32(), 0x7fffffff);
    Value *b = m.constantInt(t.i32(), 1);
    RtValue r = evalOp(m, Opcode::Add, t.i32(), {a, b},
                       {RtValue::makeInt(0x7fffffff), RtValue::makeInt(1)});
    EXPECT_EQ(r.i, 0x80000000u); // wrapped, normalized to 32 bits
}

TEST(Eval, SignedDivisionAndRemainder)
{
    Module m("t");
    auto &t = m.types();
    uint64_t neg7 = normalizeInt(t.i32(), static_cast<uint64_t>(-7));
    Value *a = m.constantInt(t.i32(), neg7);
    Value *b = m.constantInt(t.i32(), 2);
    RtValue q = evalOp(m, Opcode::SDiv, t.i32(), {a, b},
                       {RtValue::makeInt(neg7), RtValue::makeInt(2)});
    EXPECT_EQ(signedValue(t.i32(), q.i), -3);
    RtValue rem = evalOp(m, Opcode::SRem, t.i32(), {a, b},
                         {RtValue::makeInt(neg7), RtValue::makeInt(2)});
    EXPECT_EQ(signedValue(t.i32(), rem.i), -1);
}

TEST(Eval, DivisionByZeroIsDefined)
{
    Module m("t");
    auto &t = m.types();
    Value *a = m.constantInt(t.i32(), 5);
    Value *b = m.constantInt(t.i32(), 0);
    RtValue q = evalOp(m, Opcode::SDiv, t.i32(), {a, b},
                       {RtValue::makeInt(5), RtValue::makeInt(0)});
    EXPECT_EQ(q.i, 0u);
}

TEST(Eval, FloatRoundsThroughF32)
{
    Module m("t");
    auto &t = m.types();
    Value *a = m.constantFloat(t.f32(), 0.1);
    Value *b = m.constantFloat(t.f32(), 0.2);
    RtValue r = evalOp(m, Opcode::FAdd, t.f32(), {a, b},
                       {RtValue::makeFloat(0.1), RtValue::makeFloat(0.2)});
    EXPECT_EQ(r.f, static_cast<double>(0.1 + 0.2 > 0 ?
              static_cast<float>(0.1 + 0.2) : 0.0f));
}

TEST(Eval, ComparisonsSignedVsUnsigned)
{
    Module m("t");
    auto &t = m.types();
    uint64_t neg1 = normalizeInt(t.i32(), static_cast<uint64_t>(-1));
    Value *a = m.constantInt(t.i32(), neg1);
    Value *b = m.constantInt(t.i32(), 1);
    {
        Instruction cmp(Opcode::ICmp, t.boolTy());
        cmp.setIcmpPred(ICmpPred::SLT);
        cmp.addOperand(a);
        cmp.addOperand(b);
        std::vector<RtValue> ops{RtValue::makeInt(neg1),
                                 RtValue::makeInt(1)};
        EXPECT_EQ(evalPure(&cmp, ops.data(), ops.size(), dummyWi()).i, 1u);
    }
    {
        Instruction cmp(Opcode::ICmp, t.boolTy());
        cmp.setIcmpPred(ICmpPred::ULT);
        Value *ua = m.constantInt(t.u32(), neg1);
        Value *ub = m.constantInt(t.u32(), 1);
        cmp.addOperand(ua);
        cmp.addOperand(ub);
        std::vector<RtValue> ops{RtValue::makeInt(neg1),
                                 RtValue::makeInt(1)};
        EXPECT_EQ(evalPure(&cmp, ops.data(), ops.size(), dummyWi()).i, 0u);
    }
}

TEST(Eval, WorkItemQueries)
{
    Module m("t");
    auto &t = m.types();
    Instruction inst(Opcode::WorkItemInfo, t.u64());
    inst.setWiQuery(WorkItemQuery::GlobalId);
    inst.addOperand(m.constantInt(t.u32(), 0));
    std::vector<RtValue> ops{RtValue::makeInt(0)};
    EXPECT_EQ(evalPure(&inst, ops.data(), ops.size(), dummyWi()).i, 7u);
    inst.setWiQuery(WorkItemQuery::LocalSize);
    EXPECT_EQ(evalPure(&inst, ops.data(), ops.size(), dummyWi()).i, 4u);
}

TEST(Eval, ArrayInsertIsCopyOnWrite)
{
    Module m("t");
    auto &t = m.types();
    const Type *arr_ty = t.arrayTy(t.i32(), 4);
    RtValue arr = RtValue::makeArray(4);
    for (uint64_t k = 0; k < 4; ++k)
        arr.setElement(k, RtValue::makeInt(0));
    RtValue shared = arr; // simulate another in-flight work-item copy

    Instruction ins(Opcode::ArrayInsert, arr_ty);
    Value *dummy_arr = m.constantInt(t.i64(), 0); // types unused by eval
    ins.addOperand(dummy_arr);
    ins.addOperand(m.constantInt(t.i64(), 2));
    ins.addOperand(m.constantInt(t.i32(), 99));
    std::vector<RtValue> ops{arr, RtValue::makeInt(2),
                             RtValue::makeInt(99)};
    RtValue updated = evalPure(&ins, ops.data(), ops.size(), dummyWi());
    EXPECT_EQ(updated.element(2).i, 99u);
    EXPECT_EQ(shared.element(2).i, 0u) << "COW must not clobber sharers";
    EXPECT_EQ(arr.element(2).i, 0u) << "COW must not clobber sharers";
}

TEST(Eval, ArrayValueCopiesAndMovesKeepOneOwnerCount)
{
    // Copies share the block, moves hand it over, overwrites and self
    // assignment release or keep it; any miscount shows up as a leak,
    // double free, or use-after-free under ASan (CI runs Eval.* there).
    RtValue a = RtValue::makeArray(3);
    a.setElement(0, RtValue::makeFloat(1.5));
    RtValue b = a;
    RtValue c = std::move(b);
    EXPECT_TRUE(b.empty()) << "a moved-from array lets go of its block";
    RtValue &self = c;
    c = self;
    EXPECT_EQ(c.element(0).f, 1.5);
    c.setElement(1, RtValue::makeInt(7));
    EXPECT_TRUE(a.element(1).empty()) << "write after copy detaches";
    RtValue d = RtValue::makeArray(2);
    d = a;
    d = RtValue::makeInt(4);
    EXPECT_TRUE(d.isInt());
    EXPECT_TRUE(a.equals(RtValue(a)));
    EXPECT_FALSE(a.equals(c));
    EXPECT_EQ(sizeof(RtValue), 16u);
}

TEST(Eval, AtomicOps)
{
    Module m("t");
    auto &t = m.types();
    EXPECT_EQ(evalAtomicOp(AtomicOp::Add, t.i32(), 10, 5), 15u);
    EXPECT_EQ(evalAtomicOp(AtomicOp::Sub, t.i32(), 10, 5), 5u);
    EXPECT_EQ(evalAtomicOp(AtomicOp::Xchg, t.i32(), 10, 5), 5u);
    uint64_t neg2 = normalizeInt(t.i32(), static_cast<uint64_t>(-2));
    EXPECT_EQ(evalAtomicOp(AtomicOp::SMin, t.i32(), neg2, 1), neg2);
    EXPECT_EQ(evalAtomicOp(AtomicOp::UMin, t.u32(), neg2, 1), 1u);
    EXPECT_EQ(evalAtomicOp(AtomicOp::SMax, t.i32(), neg2, 1), 1u);
}

TEST(Eval, MathIntegerHelpers)
{
    Module m("t");
    auto &t = m.types();
    Instruction inst(Opcode::MathCall, t.i32());
    inst.setMathFunc(MathFunc::SClamp);
    for (int i = 0; i < 3; ++i)
        inst.addOperand(m.constantInt(t.i32(), 0));
    std::vector<RtValue> ops{RtValue::makeInt(normalizeInt(
                                 t.i32(), static_cast<uint64_t>(-5))),
                             RtValue::makeInt(0), RtValue::makeInt(10)};
    EXPECT_EQ(evalPure(&inst, ops.data(), ops.size(), dummyWi()).i, 0u);
}

} // namespace
} // namespace soff::ir
