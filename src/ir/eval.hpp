/**
 * @file
 * Runtime values and pure-instruction evaluation.
 *
 * Both the reference interpreter (the correctness oracle) and the
 * cycle-level simulator's functional units evaluate instructions through
 * this single implementation, so the two execution engines cannot
 * disagree about arithmetic semantics. Memory accesses and barriers are
 * *not* evaluated here — each engine implements those itself (that is
 * exactly what the paper's architecture is about).
 */
#pragma once

#include <cstddef>
#include <cstdint>

#include "ir/instruction.hpp"

namespace soff::ir
{

/**
 * The payload word and kind of an RtValue. Its copy is trivial: the
 * union is copied as bytes whichever member is live, which RtValue's
 * own copy and move build on.
 */
struct RtValueBits
{
    enum class Kind : uint8_t { Empty, Int, Float, Array };

    /** Shared element storage of an Array value (see
     *  RtValue::setElement). */
    struct ArrayBlock;

    union
    {
        uint64_t i = 0;
        double f;
        ArrayBlock *arr;
    };
    Kind kind = Kind::Empty;
};

/**
 * A dynamic value flowing through an execution engine: 16 bytes, a
 * payload word plus a kind. Integers, bools, and pointers are stored
 * as a 64-bit pattern normalized to the type width; floats as double;
 * SSA arrays (promoted private arrays, paper §III-C) as a pointer to a
 * copy-on-write element block.
 *
 * Values are copied and moved on every simulated token transfer, so
 * the scalar kinds must cost no more than a 16-byte copy: the block's
 * reference count is touched only when the kind is Array, and it is a
 * plain integer. An array value never crosses threads on its own — it
 * lives in one interpreter, one circuit's channels and units, or one
 * constant-folding pass, and a circuit changes threads only through the
 * template pool's mutex — so the count needs no atomics.
 */
struct RtValue : RtValueBits
{
    RtValue() = default;
    RtValue(const RtValue &o) noexcept : RtValueBits(o)
    {
        if (kind == Kind::Array)
            retainArray();
    }
    RtValue(RtValue &&o) noexcept : RtValueBits(o)
    {
        if (kind == Kind::Array)
            o.forget();
    }
    RtValue &
    operator=(const RtValue &o) noexcept
    {
        if (o.kind == Kind::Array)
            o.retainArray(); // before the release: self-assignment
        if (kind == Kind::Array)
            releaseArray();
        RtValueBits::operator=(o);
        return *this;
    }
    RtValue &
    operator=(RtValue &&o) noexcept
    {
        if (this == &o)
            return *this;
        if (kind == Kind::Array)
            releaseArray();
        RtValueBits::operator=(o);
        if (kind == Kind::Array)
            o.forget();
        return *this;
    }
    ~RtValue()
    {
        if (kind == Kind::Array)
            releaseArray();
    }

    static RtValue
    makeInt(uint64_t v)
    {
        RtValue r;
        r.kind = Kind::Int;
        r.i = v;
        return r;
    }
    static RtValue
    makeFloat(double v)
    {
        RtValue r;
        r.kind = Kind::Float;
        r.f = v;
        return r;
    }
    /** An array of `count` Empty elements. */
    static RtValue makeArray(uint64_t count);

    bool empty() const { return kind == Kind::Empty; }
    bool isInt() const { return kind == Kind::Int; }
    bool isFloat() const { return kind == Kind::Float; }
    bool isArray() const { return kind == Kind::Array; }

    /** Element count of an Array value. */
    uint64_t arraySize() const;
    /** Element k of an Array value. */
    const RtValue &element(uint64_t k) const;
    /** Overwrites element k of an Array value, first giving this value
     *  its own copy of the block when another value shares it. */
    void setElement(uint64_t k, const RtValue &v);

    /** Structural equality (for tests). */
    bool equals(const RtValue &other) const;

  private:
    void retainArray() const;
    void releaseArray();
    /** Drops the block without releasing it (moved-from source). */
    void
    forget()
    {
        kind = Kind::Empty;
        i = 0;
    }
};

static_assert(sizeof(RtValue) == 16,
              "RtValue is a payload word plus a kind; tokens and channel "
              "rings are sized around it");

/** Work-item identity, needed to evaluate WorkItemInfo. */
struct WorkItemCtx
{
    uint64_t globalId[3] = {0, 0, 0};
    uint64_t localId[3] = {0, 0, 0};
    uint64_t groupId[3] = {0, 0, 0};
    uint64_t globalSize[3] = {1, 1, 1};
    uint64_t localSize[3] = {1, 1, 1};
    uint64_t numGroups[3] = {1, 1, 1};
    int workDim = 1;

    /** Linearized global id (row-major over dims). */
    uint64_t linearGlobalId() const;
    /** Linearized group id. */
    uint64_t linearGroupId() const;
    /** Linearized local id within the work-group. */
    uint64_t linearLocalId() const;
};

/** Normalizes a 64-bit pattern to the width/signedness of type. */
uint64_t normalizeInt(const Type *type, uint64_t bits);
/** Sign-aware widening of a normalized pattern to int64. */
int64_t signedValue(const Type *type, uint64_t bits);

/** Converts a Constant into an RtValue. */
RtValue constantValue(const Constant *c);

/**
 * Evaluates a side-effect-free instruction given its `count`
 * already-evaluated operands (one per instruction operand). Valid for
 * every opcode except Phi, memory accesses, Barrier, Call, and
 * terminators.
 */
RtValue evalPure(const Instruction *inst, const RtValue *operands,
                 size_t count, const WorkItemCtx &wi);

/** Applies an AtomicOp to two normalized values of the given type. */
uint64_t evalAtomicOp(AtomicOp op, const Type *type, uint64_t current,
                      uint64_t operand);

/**
 * __local pointers are encoded above the global address space: variable
 * k's block starts at (k+1) << 40. Both execution engines (interpreter
 * and circuit simulator) share this encoding; the circuit routes local
 * accesses to their memory block statically and only uses the offset.
 */
constexpr uint64_t kLocalPtrBase = 1ULL << 40;

inline uint64_t
localPtrEncode(int var_index)
{
    return static_cast<uint64_t>(var_index + 1) * kLocalPtrBase;
}
inline bool isLocalPtr(uint64_t addr) { return addr >= kLocalPtrBase; }
inline int
localPtrVar(uint64_t addr)
{
    return static_cast<int>(addr / kLocalPtrBase) - 1;
}
inline uint64_t localPtrOffset(uint64_t addr)
{
    return addr % kLocalPtrBase;
}

} // namespace soff::ir
