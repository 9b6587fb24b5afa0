/**
 * @file
 * Local IR cleanups: constant folding, trivial-phi elimination, dead
 * code elimination, and straight-line block merging.
 */
#include "transform/passes.hpp"

#include <map>
#include <set>

#include "ir/eval.hpp"
#include "support/error.hpp"
#include "transform/util.hpp"

namespace soff::transform
{

namespace
{

bool
isPureFoldable(const ir::Instruction &inst)
{
    switch (inst.op()) {
      case ir::Opcode::Phi:
      case ir::Opcode::Load:
      case ir::Opcode::Store:
      case ir::Opcode::AtomicRMW:
      case ir::Opcode::AtomicCmpXchg:
      case ir::Opcode::Barrier:
      case ir::Opcode::Call:
      case ir::Opcode::Br:
      case ir::Opcode::CondBr:
      case ir::Opcode::Ret:
      case ir::Opcode::WorkItemInfo:
      case ir::Opcode::LocalAddr:
      case ir::Opcode::SlotLoad:
      case ir::Opcode::SlotStore:
      case ir::Opcode::PtrAdd:       // pointers have no Constant repr
      case ir::Opcode::IntToPtr:
      case ir::Opcode::Bitcast:      // may produce pointer types
      case ir::Opcode::ArraySplat:   // array constants not representable
      case ir::Opcode::ArrayInsert:
      case ir::Opcode::ArrayExtract:
        return false;
      default:
        return !inst.type()->isVoid();
    }
}

bool
hasSideEffects(const ir::Instruction &inst)
{
    switch (inst.op()) {
      case ir::Opcode::Store:
      case ir::Opcode::AtomicRMW:
      case ir::Opcode::AtomicCmpXchg:
      case ir::Opcode::Barrier:
      case ir::Opcode::Call:
      case ir::Opcode::Br:
      case ir::Opcode::CondBr:
      case ir::Opcode::Ret:
      case ir::Opcode::SlotStore:
        return true;
      case ir::Opcode::Load:
        // An unused OpenCL load may be removed: there are no traps and
        // no volatile semantics in our subset.
        return false;
      default:
        return false;
    }
}

/** Folds an instruction whose operands are all constants. */
bool
foldConstants(ir::Kernel &kernel)
{
    ir::Module &module = *kernel.module();
    bool changed = false;
    for (const auto &bb : kernel.blocks()) {
        for (const auto &inst : bb->instructions()) {
            if (!isPureFoldable(*inst))
                continue;
            bool all_const = !inst->operands().empty();
            for (const ir::Value *op : inst->operands()) {
                if (!op->isConstant())
                    all_const = false;
            }
            if (!all_const)
                continue;
            std::vector<ir::RtValue> ops;
            for (const ir::Value *op : inst->operands()) {
                ops.push_back(ir::constantValue(
                    static_cast<const ir::Constant *>(op)));
            }
            ir::WorkItemCtx wi;
            ir::RtValue result =
                ir::evalPure(inst.get(), ops.data(), ops.size(), wi);
            ir::Constant *c;
            if (result.isFloat())
                c = module.constantFloat(inst->type(), result.f);
            else if (result.isInt())
                c = module.constantInt(inst->type(), result.i);
            else
                continue;
            replaceAllUses(kernel, inst.get(), c);
            changed = true;
        }
    }
    return changed;
}

/** Algebraic peepholes that shrink the synthesized datapath. */
bool
peephole(ir::Kernel &kernel)
{
    ir::Module &module = *kernel.module();
    bool changed = false;
    auto constOp = [](const ir::Value *v, uint64_t c) {
        return v->isConstant() &&
               static_cast<const ir::Constant *>(v)->intBits() == c;
    };
    for (const auto &bb : kernel.blocks()) {
        for (const auto &inst : bb->instructions()) {
            ir::Value *repl = nullptr;
            switch (inst->op()) {
              case ir::Opcode::ICmp: {
                // icmp ne (zext i1 %b), 0  ->  %b   (C truthiness chain)
                if (inst->icmpPred() != ir::ICmpPred::NE)
                    break;
                ir::Value *a = inst->operand(0);
                if (!constOp(inst->operand(1), 0) || !a->isInstruction())
                    break;
                auto *z = static_cast<ir::Instruction *>(a);
                if (z->op() == ir::Opcode::ZExt &&
                    z->operand(0)->type()->isBool()) {
                    repl = z->operand(0);
                }
                break;
              }
              case ir::Opcode::Add:
              case ir::Opcode::Or:
              case ir::Opcode::Xor:
              case ir::Opcode::Shl:
              case ir::Opcode::LShr:
              case ir::Opcode::AShr:
                if (constOp(inst->operand(1), 0))
                    repl = inst->operand(0);
                else if (inst->op() == ir::Opcode::Add &&
                         constOp(inst->operand(0), 0)) {
                    repl = inst->operand(1);
                }
                break;
              case ir::Opcode::Sub:
                if (constOp(inst->operand(1), 0))
                    repl = inst->operand(0);
                break;
              case ir::Opcode::Mul: {
                for (int k = 0; k < 2; ++k) {
                    if (constOp(inst->operand(k), 1))
                        repl = inst->operand(1 - k);
                    else if (constOp(inst->operand(k), 0))
                        repl = module.constantInt(inst->type(), 0);
                }
                break;
              }
              case ir::Opcode::Select:
                if (inst->operand(1) == inst->operand(2))
                    repl = inst->operand(1);
                break;
              default:
                break;
            }
            if (repl != nullptr && repl != inst.get()) {
                replaceAllUses(kernel, inst.get(), repl);
                changed = true;
            }
        }
    }
    return changed;
}

/** Removes phis whose incomings are all identical (or self + one). */
bool
removeTrivialPhis(ir::Kernel &kernel)
{
    bool changed = false;
    for (const auto &bb : kernel.blocks()) {
        for (size_t i = 0; i < bb->size();) {
            ir::Instruction *inst = bb->inst(i);
            if (inst->op() != ir::Opcode::Phi) {
                break;
            }
            ir::Value *unique = nullptr;
            bool trivial = true;
            for (ir::Value *op : inst->operands()) {
                if (op == inst)
                    continue;
                if (unique == nullptr) {
                    unique = op;
                } else if (unique != op) {
                    trivial = false;
                    break;
                }
            }
            if (trivial && unique != nullptr) {
                replaceAllUses(kernel, inst, unique);
                bb->erase(i);
                changed = true;
            } else {
                ++i;
            }
        }
    }
    return changed;
}

/** Deletes unused side-effect-free instructions. */
bool
deadCodeElim(ir::Kernel &kernel)
{
    std::set<const ir::Value *> used;
    for (const auto &bb : kernel.blocks()) {
        for (const auto &inst : bb->instructions()) {
            for (const ir::Value *op : inst->operands())
                used.insert(op);
        }
    }
    bool changed = false;
    for (const auto &bb : kernel.blocks()) {
        for (size_t i = bb->size(); i-- > 0;) {
            ir::Instruction *inst = bb->inst(i);
            if (hasSideEffects(*inst) || used.count(inst))
                continue;
            bb->erase(i);
            changed = true;
        }
    }
    return changed;
}

bool
isBarrierBlock(const ir::BasicBlock *bb)
{
    return bb->size() > 0 && bb->inst(0)->op() == ir::Opcode::Barrier;
}

/** Merges b into a when a->b is the only edge on both sides. */
bool
mergeBlocks(ir::Kernel &kernel)
{
    auto preds = kernel.predecessorMap();
    for (const auto &a : kernel.blocks()) {
        ir::Instruction *term = a->terminator();
        if (term == nullptr || term->op() != ir::Opcode::Br)
            continue;
        ir::BasicBlock *b = term->succ(0);
        if (b == kernel.entry() || preds.at(b).size() != 1 ||
            b == a.get()) {
            continue;
        }
        if (isBarrierBlock(a.get()) || isBarrierBlock(b))
            continue;
        // b's phis have a single incoming; fold them.
        for (size_t i = b->size(); i-- > 0;) {
            ir::Instruction *phi = b->inst(i);
            if (phi->op() != ir::Opcode::Phi)
                continue;
            SOFF_ASSERT(phi->numOperands() == 1,
                        "single-pred block with multi-incoming phi");
            replaceAllUses(kernel, phi, phi->operand(0));
            b->erase(i);
        }
        // Remove a's Br, move all of b's instructions into a.
        a->erase(a->size() - 1);
        auto moved = b->splitOffTail(0);
        for (auto &inst : moved)
            a->append(std::move(inst));
        // Successor phis must see `a` instead of `b`.
        for (ir::BasicBlock *succ : a->successors())
            retargetPhis(succ, b, a.get());
        kernel.removeUnreachableBlocks();
        return true;
    }
    return false;
}

/**
 * Turns condbr with a constant condition into br (enables dead-branch
 * removal after constant folding).
 */
bool
foldBranches(ir::Kernel &kernel)
{
    bool changed = false;
    for (const auto &bb : kernel.blocks()) {
        ir::Instruction *term = bb->terminator();
        if (term == nullptr || term->op() != ir::Opcode::CondBr)
            continue;
        const ir::Value *cond = term->operand(0);
        if (!cond->isConstant())
            continue;
        bool taken =
            static_cast<const ir::Constant *>(cond)->intBits() != 0;
        ir::BasicBlock *dest = term->succ(taken ? 0 : 1);
        ir::BasicBlock *dead = term->succ(taken ? 1 : 0);
        auto jump = std::make_unique<ir::Instruction>(ir::Opcode::Br,
                                                      term->type());
        jump->addSucc(dest);
        jump->setId(kernel.nextValueId());
        bb->erase(bb->size() - 1);
        bb->append(std::move(jump));
        // The dead edge disappears: prune its phi incomings.
        if (dead == dest)
            continue;
        for (ir::Instruction *phi : dead->phis()) {
            for (size_t k = phi->phiBlocks().size(); k-- > 0;) {
                if (phi->phiBlocks()[k] == bb.get())
                    phi->removePhiIncoming(k);
            }
        }
        changed = true;
    }
    if (changed)
        kernel.removeUnreachableBlocks();
    return changed;
}

} // namespace

bool
simplify(ir::Kernel &kernel)
{
    bool any = false;
    bool changed = true;
    int guard = 0;
    while (changed && ++guard < 200) {
        changed = false;
        changed |= foldConstants(kernel);
        changed |= peephole(kernel);
        changed |= foldBranches(kernel);
        changed |= removeTrivialPhis(kernel);
        changed |= deadCodeElim(kernel);
        changed |= mergeBlocks(kernel);
        any |= changed;
    }
    return any;
}

void
runStandardPipeline(ir::Module &module)
{
    inlineFunctions(module);
    for (const auto &kernel : module.kernels()) {
        unifyReturns(*kernel);
        promoteSlotsToSSA(*kernel);
        simplify(*kernel);
        splitBarriers(*kernel);
    }
}

} // namespace soff::transform
