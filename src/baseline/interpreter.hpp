/**
 * @file
 * The reference IR interpreter: SOFF's correctness oracle.
 *
 * Executes a kernel functionally — work-group by work-group, with
 * proper barrier phase semantics — against the same device global
 * memory the circuit simulator uses, through the same evalPure()
 * instruction semantics. It doubles as the functional engine of the
 * Intel-like / Xilinx-like compile-time-pipelining baselines, which
 * consume its memory-access trace for their timing models.
 */
#pragma once

#include <functional>

#include "ir/kernel.hpp"
#include "memsys/global_memory.hpp"
#include "sim/token.hpp"
#include "support/error.hpp"

namespace soff::baseline
{

/** One traced memory access (addresses as seen by the device). */
struct MemAccessEvent
{
    const ir::Instruction *inst = nullptr;
    uint64_t wi = 0;
    uint64_t addr = 0;
    uint32_t size = 0;
    bool isGlobal = false;
    bool isWrite = false;
    bool isAtomic = false;
};

/**
 * A launch that executed more instructions than its NDRange's
 * workBudget(): a kernel that does not terminate. The launch fails;
 * the process survives.
 */
class RunawayKernel : public RuntimeError
{
  public:
    using RuntimeError::RuntimeError;
};

/** Interpreter statistics. */
struct InterpStats
{
    uint64_t instructionsExecuted = 0;
    uint64_t memoryAccesses = 0;
    uint64_t barriersCrossed = 0;
};

/** The reference executor. */
class Interpreter
{
  public:
    using TraceHook = std::function<void(const MemAccessEvent &)>;
    using BlockHook =
        std::function<void(uint64_t wi, const ir::BasicBlock *)>;

    explicit Interpreter(memsys::GlobalMemory &memory) : memory_(memory)
    {}

    /** Optional streaming trace of every memory access. */
    void setTraceHook(TraceHook hook) { trace_ = std::move(hook); }
    /** Optional hook fired on every basic-block entry. */
    void setBlockHook(BlockHook hook) { blockHook_ = std::move(hook); }

    /**
     * Runs the kernel over the launch NDRange. Throws RuntimeError on
     * malformed execution (e.g. inconsistent barriers, §II-B3 undefined
     * behavior that the oracle refuses to guess about), and
     * RunawayKernel once the launch spends its instruction budget.
     */
    void run(const ir::Kernel &kernel, const sim::LaunchContext &launch);

    const InterpStats &stats() const { return stats_; }

  private:
    memsys::GlobalMemory &memory_;
    TraceHook trace_;
    BlockHook blockHook_;
    InterpStats stats_;
};

} // namespace soff::baseline
