#include "baseline/interpreter.hpp"

#include <map>

#include "ir/eval.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace soff::baseline
{

namespace
{

using ir::RtValue;

/** Per-work-item execution state. */
struct WiState
{
    uint64_t gid = 0;
    ir::WorkItemCtx ctx;
    const ir::BasicBlock *block = nullptr;
    const ir::BasicBlock *prev = nullptr;
    size_t index = 0;
    std::map<const ir::Value *, RtValue> values;
    bool done = false;
    const ir::Instruction *atBarrier = nullptr;
};

class GroupExecutor
{
  public:
    GroupExecutor(const ir::Kernel &kernel,
                  const sim::LaunchContext &launch,
                  memsys::GlobalMemory &memory,
                  Interpreter::TraceHook &trace,
                  Interpreter::BlockHook &block_hook, InterpStats &stats,
                  uint64_t instruction_limit)
        : kernel_(kernel), launch_(launch), memory_(memory),
          trace_(trace), blockHook_(block_hook), stats_(stats),
          instructionLimit_(instruction_limit)
    {
        for (size_t i = 0; i < kernel.numLocalVars(); ++i) {
            localMem_.emplace_back(
                kernel.localVar(i)->type()->sizeBytes(), 0);
        }
    }

    void
    runGroup(uint64_t group)
    {
        const sim::NDRange &nd = launch_.ndrange;
        std::vector<WiState> items(nd.groupSize());
        for (uint64_t l = 0; l < nd.groupSize(); ++l) {
            WiState &wi = items[l];
            wi.gid = nd.gidOf(group, l);
            wi.ctx = nd.ctxOf(wi.gid);
            wi.block = kernel_.entry();
            if (blockHook_)
                blockHook_(wi.gid, wi.block);
        }
        // Phase execution: run every work-item to the next barrier (or
        // completion); all must stop at the same barrier (§II-B3).
        while (true) {
            const ir::Instruction *barrier = nullptr;
            bool any_done = false;
            for (WiState &wi : items) {
                if (wi.done)
                    continue;
                runUntilStop(wi);
                if (wi.done) {
                    any_done = true;
                } else if (barrier == nullptr) {
                    barrier = wi.atBarrier;
                } else if (barrier != wi.atBarrier) {
                    throw RuntimeError(
                        "work-items of one group reached different "
                        "barriers: kernel behavior is undefined");
                }
            }
            if (barrier == nullptr)
                break; // everyone finished
            if (any_done) {
                throw RuntimeError(
                    "some work-items exited while others wait at a "
                    "barrier: kernel behavior is undefined");
            }
            ++stats_.barriersCrossed;
            for (WiState &wi : items) {
                wi.atBarrier = nullptr;
                ++wi.index; // step past the barrier
            }
        }
    }

  private:
    RtValue
    operandValue(WiState &wi, const ir::Value *v)
    {
        if (v->isConstant())
            return ir::constantValue(static_cast<const ir::Constant *>(v));
        if (v->isArgument())
            return launch_.argValue(static_cast<const ir::Argument *>(v));
        auto it = wi.values.find(v);
        SOFF_ASSERT(it != wi.values.end(),
                    "interpreter: use of undefined value");
        return it->second;
    }

    void
    enterBlock(WiState &wi, const ir::BasicBlock *next)
    {
        if (blockHook_)
            blockHook_(wi.gid, next);
        wi.prev = wi.block;
        wi.block = next;
        wi.index = 0;
        // Evaluate all phis against the predecessor atomically.
        std::vector<std::pair<const ir::Instruction *, RtValue>> updates;
        for (const ir::Instruction *phi : next->phis()) {
            bool found = false;
            for (size_t k = 0; k < phi->numOperands(); ++k) {
                if (phi->phiBlocks()[k] == wi.prev) {
                    updates.push_back(
                        {phi, operandValue(wi, phi->operand(k))});
                    found = true;
                    break;
                }
            }
            SOFF_ASSERT(found, "phi has no incoming for edge");
        }
        for (auto &[phi, value] : updates)
            wi.values[phi] = std::move(value);
        wi.index = next->firstNonPhi();
    }

    void
    doMemoryAccess(WiState &wi, const ir::Instruction *inst)
    {
        std::vector<RtValue> ops;
        for (const ir::Value *op : inst->operands())
            ops.push_back(operandValue(wi, op));
        uint64_t addr = ops.at(0).i;
        const ir::Type *elem = inst->op() == ir::Opcode::Store
                                   ? inst->operand(1)->type()
                                   : inst->type();
        uint32_t size = static_cast<uint32_t>(elem->sizeBytes());
        bool is_local = ir::isLocalPtr(addr);

        auto bitsOf = [&](const RtValue &v) {
            if (!v.isFloat())
                return v.i;
            if (elem->bits() == 32) {
                float f = static_cast<float>(v.f);
                uint32_t b;
                __builtin_memcpy(&b, &f, sizeof(b));
                return static_cast<uint64_t>(b);
            }
            uint64_t b;
            double d = v.f;
            __builtin_memcpy(&b, &d, sizeof(b));
            return b;
        };
        // The local variable's bytes at addr. A wild pointer can land
        // in the local encoding space (a negative global offset wraps
        // there), so an unknown variable or an overrun is a memory
        // fault, exactly like a global access out of bounds.
        auto localBytes = [&]() -> uint8_t * {
            auto var = static_cast<size_t>(ir::localPtrVar(addr));
            uint64_t off = ir::localPtrOffset(addr);
            if (var >= localMem_.size() || off > localMem_[var].size() ||
                size > localMem_[var].size() - off)
                throw memsys::MemoryFault(addr, size);
            return localMem_[var].data() + off;
        };
        auto rawRead = [&]() -> uint64_t {
            if (!is_local)
                return memory_.readScalar(addr, size);
            const uint8_t *mem = localBytes();
            uint64_t v = 0;
            for (uint32_t i = 0; i < size; ++i)
                v |= static_cast<uint64_t>(mem[i]) << (8 * i);
            return v;
        };
        auto rawWrite = [&](uint64_t v) {
            if (!is_local) {
                memory_.writeScalar(addr, size, v);
                return;
            }
            uint8_t *mem = localBytes();
            for (uint32_t i = 0; i < size; ++i)
                mem[i] = static_cast<uint8_t>(v >> (8 * i));
        };

        uint64_t result_bits = 0;
        switch (inst->op()) {
          case ir::Opcode::Load:
            result_bits = rawRead();
            break;
          case ir::Opcode::Store:
            rawWrite(bitsOf(ops.at(1)));
            break;
          case ir::Opcode::AtomicRMW: {
            uint64_t old_value = rawRead();
            rawWrite(ir::evalAtomicOp(inst->atomicOp(), elem, old_value,
                                      bitsOf(ops.at(1))));
            result_bits = old_value;
            break;
          }
          case ir::Opcode::AtomicCmpXchg: {
            uint64_t old_value = rawRead();
            if (old_value == bitsOf(ops.at(1)))
                rawWrite(bitsOf(ops.at(2)));
            result_bits = old_value;
            break;
          }
          default:
            break;
        }
        if (!inst->type()->isVoid()) {
            RtValue result;
            if (inst->type()->isFloat()) {
                if (inst->type()->bits() == 32) {
                    float f;
                    uint32_t b = static_cast<uint32_t>(result_bits);
                    __builtin_memcpy(&f, &b, sizeof(f));
                    result = RtValue::makeFloat(f);
                } else {
                    double d;
                    __builtin_memcpy(&d, &result_bits, sizeof(d));
                    result = RtValue::makeFloat(d);
                }
            } else {
                result = RtValue::makeInt(
                    ir::normalizeInt(inst->type(), result_bits));
            }
            wi.values[inst] = result;
        }
        ++stats_.memoryAccesses;
        if (trace_) {
            MemAccessEvent event;
            event.inst = inst;
            event.wi = wi.gid;
            event.addr = addr;
            event.size = size;
            event.isGlobal = !is_local;
            event.isWrite = inst->isMemoryWrite();
            event.isAtomic = inst->isAtomic();
            trace_(event);
        }
    }

    /** Executes until a barrier, or Ret (sets done). */
    void
    runUntilStop(WiState &wi)
    {
        while (true) {
            if (++stats_.instructionsExecuted > instructionLimit_) {
                throw RunawayKernel(strFormat(
                    "spent its budget of %llu instructions on the "
                    "reference interpreter without finishing",
                    static_cast<unsigned long long>(
                        launch_.ndrange.workBudget())));
            }
            const ir::Instruction *inst = wi.block->inst(wi.index);
            switch (inst->op()) {
              case ir::Opcode::Barrier:
                wi.atBarrier = inst;
                return;
              case ir::Opcode::Ret:
                wi.done = true;
                return;
              case ir::Opcode::Br:
                enterBlock(wi, inst->succ(0));
                continue;
              case ir::Opcode::CondBr: {
                bool taken = operandValue(wi, inst->operand(0)).i != 0;
                enterBlock(wi, inst->succ(taken ? 0 : 1));
                continue;
              }
              case ir::Opcode::Load:
              case ir::Opcode::Store:
              case ir::Opcode::AtomicRMW:
              case ir::Opcode::AtomicCmpXchg:
                doMemoryAccess(wi, inst);
                ++wi.index;
                continue;
              case ir::Opcode::Phi:
                SOFF_ASSERT(false, "phi outside block entry");
                continue;
              default: {
                std::vector<RtValue> ops;
                ops.reserve(inst->numOperands());
                for (const ir::Value *op : inst->operands())
                    ops.push_back(operandValue(wi, op));
                wi.values[inst] =
                    ir::evalPure(inst, ops.data(), ops.size(), wi.ctx);
                ++wi.index;
                continue;
              }
            }
        }
    }

    const ir::Kernel &kernel_;
    const sim::LaunchContext &launch_;
    memsys::GlobalMemory &memory_;
    Interpreter::TraceHook &trace_;
    Interpreter::BlockHook &blockHook_;
    InterpStats &stats_;
    /** stats_.instructionsExecuted value past which the launch has
     *  spent its budget. */
    uint64_t instructionLimit_;
    std::vector<std::vector<uint8_t>> localMem_;
};

} // namespace

void
Interpreter::run(const ir::Kernel &kernel,
                 const sim::LaunchContext &launch)
{
    SOFF_ASSERT(kernel.numSlots() == 0,
                "interpreter requires SSA-promoted kernels");
    const sim::NDRange &nd = launch.ndrange;
    for (int d = 0; d < 3; ++d) {
        if (nd.localSize[d] == 0 ||
            nd.globalSize[d] % nd.localSize[d] != 0) {
            throw RuntimeError("NDRange global size must be a multiple "
                               "of the work-group size");
        }
    }
    const uint64_t limit = stats_.instructionsExecuted + nd.workBudget();
    for (uint64_t g = 0; g < nd.totalGroups(); ++g) {
        GroupExecutor executor(kernel, launch, memory_, trace_,
                               blockHook_, stats_, limit);
        executor.runGroup(g);
    }
}

} // namespace soff::baseline
