/**
 * @file
 * Function inlining (paper §III-C: all user-defined calls are inlined
 * "because it is difficult to implement function calls in an FPGA").
 */
#include "transform/passes.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "transform/util.hpp"

namespace soff::transform
{

namespace
{

/** Clones the callee body into the caller at one call site. */
class CallSiteInliner
{
  public:
    CallSiteInliner(ir::Kernel &caller, ir::BasicBlock *call_block,
                    size_t call_index)
        : caller_(caller), callBlock_(call_block), callIndex_(call_index),
          call_(call_block->inst(call_index)),
          callee_(*call_->callee())
    {}

    void
    run()
    {
        if (callee_.numLocalVars() != 0) {
            throw CompileError(
                "function '" + callee_.name() +
                "' declares __local variables; __local is only "
                "supported directly inside kernels");
        }

        // Split off the continuation (instructions after the call).
        ir::BasicBlock *cont =
            splitBlock(caller_, callBlock_, callIndex_ + 1, "cont");

        mapArguments();
        cloneSlots();
        createBlockShells();
        cloneInstructions();
        stitch(cont);
    }

  private:
    void
    mapArguments()
    {
        for (size_t i = 0; i < callee_.numArguments(); ++i)
            valueMap_[callee_.argument(i)] = call_->operand(i);
    }

    void
    cloneSlots()
    {
        for (size_t i = 0; i < callee_.numSlots(); ++i) {
            ir::PrivateSlot *src = callee_.slot(i);
            slotMap_[src] = caller_.addSlot(
                src->type(), callee_.name() + "." + src->name());
        }
    }

    void
    createBlockShells()
    {
        for (const auto &bb : callee_.blocks()) {
            blockMap_[bb.get()] = caller_.addBlock(
                callee_.name() + "." + bb->name());
        }
    }

    ir::Value *
    mapped(ir::Value *v)
    {
        if (v == nullptr || v->isConstant())
            return v;
        auto it = valueMap_.find(v);
        SOFF_ASSERT(it != valueMap_.end(),
                    "inliner: unmapped value operand");
        return it->second;
    }

    void
    cloneInstructions()
    {
        // First create phi shells so forward references resolve.
        for (const auto &bb : callee_.blocks()) {
            for (const auto &inst : bb->instructions()) {
                if (inst->op() != ir::Opcode::Phi)
                    continue;
                auto clone = std::make_unique<ir::Instruction>(
                    ir::Opcode::Phi, inst->type());
                clone->setId(caller_.nextValueId());
                valueMap_[inst.get()] =
                    blockMap_.at(bb.get())->append(std::move(clone));
            }
        }
        for (const auto &bb : callee_.blocks()) {
            ir::BasicBlock *dst = blockMap_.at(bb.get());
            for (const auto &inst : bb->instructions()) {
                if (inst->op() == ir::Opcode::Phi) {
                    auto *shell = static_cast<ir::Instruction *>(
                        valueMap_.at(inst.get()));
                    for (size_t k = 0; k < inst->numOperands(); ++k) {
                        shell->addPhiIncoming(
                            mapped(inst->operand(k)),
                            blockMap_.at(inst->phiBlocks()[k]));
                    }
                    continue;
                }
                if (inst->op() == ir::Opcode::Ret) {
                    // Replaced by a branch to the continuation later.
                    retBlocks_.push_back(dst);
                    if (inst->numOperands() == 1)
                        retValues_.push_back(mapped(inst->operand(0)));
                    continue;
                }
                auto clone = std::make_unique<ir::Instruction>(
                    inst->op(), inst->type());
                clone->setIcmpPred(inst->icmpPred());
                clone->setFcmpPred(inst->fcmpPred());
                clone->setAtomicOp(inst->atomicOp());
                clone->setWiQuery(inst->wiQuery());
                clone->setMathFunc(inst->mathFunc());
                clone->setLocalVar(inst->localVar());
                clone->setCallee(inst->callee());
                if (inst->slot() != nullptr)
                    clone->setSlot(slotMap_.at(inst->slot()));
                for (ir::Value *op : inst->operands())
                    clone->addOperand(mapped(op));
                for (size_t s = 0; s < inst->numSuccs(); ++s)
                    clone->addSucc(blockMap_.at(inst->succ(s)));
                clone->setId(caller_.nextValueId());
                valueMap_[inst.get()] = dst->append(std::move(clone));
            }
        }
    }

    void
    stitch(ir::BasicBlock *cont)
    {
        const ir::Type *void_ty = cont->terminator()->type();
        // Branch each cloned return block to the continuation.
        for (ir::BasicBlock *rb : retBlocks_) {
            auto jump =
                std::make_unique<ir::Instruction>(ir::Opcode::Br, void_ty);
            jump->addSucc(cont);
            jump->setId(caller_.nextValueId());
            rb->append(std::move(jump));
        }
        // The call's result: single return value or a phi over them.
        if (!call_->type()->isVoid()) {
            SOFF_ASSERT(!retValues_.empty(),
                        "non-void callee with no return values");
            ir::Value *result;
            if (retValues_.size() == 1) {
                result = retValues_[0];
            } else {
                auto phi = std::make_unique<ir::Instruction>(
                    ir::Opcode::Phi, call_->type());
                for (size_t i = 0; i < retValues_.size(); ++i)
                    phi->addPhiIncoming(retValues_[i], retBlocks_[i]);
                phi->setId(caller_.nextValueId());
                result = cont->insert(0, std::move(phi));
            }
            replaceAllUses(caller_, call_, result);
        }
        // The call block currently ends with the Br added by splitBlock;
        // retarget it to the callee entry, and `cont` keeps the rest.
        ir::Instruction *jump = callBlock_->terminator();
        SOFF_ASSERT(jump != nullptr && jump->op() == ir::Opcode::Br,
                    "call block must end with the split branch");
        jump->setSucc(0, blockMap_.at(callee_.entry()));
        // Finally remove the call instruction itself.
        callBlock_->erase(callIndex_);
    }

    ir::Kernel &caller_;
    ir::BasicBlock *callBlock_;
    size_t callIndex_;
    ir::Instruction *call_;
    const ir::Kernel &callee_;
    std::map<const ir::Value *, ir::Value *> valueMap_;
    std::map<const ir::PrivateSlot *, ir::PrivateSlot *> slotMap_;
    std::map<const ir::BasicBlock *, ir::BasicBlock *> blockMap_;
    std::vector<ir::BasicBlock *> retBlocks_;
    std::vector<ir::Value *> retValues_;
};

/** Finds the first Call instruction in a kernel. */
bool
findCall(const ir::Kernel &kernel, ir::BasicBlock **bb_out, size_t *idx_out)
{
    for (const auto &bb : kernel.blocks()) {
        for (size_t i = 0; i < bb->size(); ++i) {
            if (bb->inst(i)->op() == ir::Opcode::Call) {
                *bb_out = bb.get();
                *idx_out = i;
                return true;
            }
        }
    }
    return false;
}

/**
 * Rejects a recursive call chain reachable from `kernel` before any
 * inlining: one depth-first walk over the call graph, where reaching a
 * function that is still on the walk's path closes a cycle. The error
 * names the cycle (f -> g -> f).
 */
void
rejectRecursion(const ir::Kernel &kernel)
{
    enum class Mark : uint8_t { OnPath, Done };
    std::map<const ir::Kernel *, Mark> marks;
    std::vector<const ir::Kernel *> path;
    auto visit = [&](auto &self, const ir::Kernel *fn) -> void {
        marks[fn] = Mark::OnPath;
        path.push_back(fn);
        for (const auto &bb : fn->blocks()) {
            for (const auto &inst : bb->instructions()) {
                if (inst->op() != ir::Opcode::Call)
                    continue;
                const ir::Kernel *callee = inst->callee();
                if (callee == nullptr)
                    continue;
                auto it = marks.find(callee);
                if (it == marks.end()) {
                    self(self, callee);
                    continue;
                }
                if (it->second == Mark::Done)
                    continue;
                std::string cycle;
                auto from = std::find(path.begin(), path.end(), callee);
                for (; from != path.end(); ++from)
                    cycle += (*from)->name() + " -> ";
                throw CompileError(
                    "kernel '" + kernel.name() + "': recursive call chain " +
                    cycle + callee->name() +
                    "; recursion is not supported in OpenCL C");
            }
        }
        path.pop_back();
        marks[fn] = Mark::Done;
    };
    visit(visit, &kernel);
}

} // namespace

void
inlineFunctions(ir::Module &module)
{
    for (const auto &kernel : module.kernels()) {
        if (!kernel->isKernel())
            continue;
        rejectRecursion(*kernel);
        // Backstop for non-recursive blow-up (a deep call tree whose
        // fully inlined size explodes); recursion was rejected above.
        int budget = 10000;
        ir::BasicBlock *bb;
        size_t idx;
        while (findCall(*kernel, &bb, &idx)) {
            if (--budget == 0) {
                throw CompileError("kernel '" + kernel->name() +
                                   "': more than 10000 call sites to "
                                   "inline");
            }
            CallSiteInliner(*kernel, bb, idx).run();
        }
    }
    module.dropFunctions();
}

} // namespace soff::transform
