#include "ir/eval.hpp"

#include <cmath>
#include <vector>

#include "support/error.hpp"

namespace soff::ir
{

/** Reference-counted element storage; see RtValue for why the count
 *  is a plain integer. */
struct RtValueBits::ArrayBlock
{
    uint64_t refs = 1;
    std::vector<RtValue> elems;
};

RtValue
RtValue::makeArray(uint64_t count)
{
    RtValue r;
    r.kind = Kind::Array;
    r.arr = new ArrayBlock{1, std::vector<RtValue>(count)};
    return r;
}

void
RtValue::retainArray() const
{
    ++arr->refs;
}

void
RtValue::releaseArray()
{
    if (--arr->refs == 0)
        delete arr;
}

uint64_t
RtValue::arraySize() const
{
    SOFF_ASSERT(isArray(), "arraySize of a non-array value");
    return arr->elems.size();
}

const RtValue &
RtValue::element(uint64_t k) const
{
    SOFF_ASSERT(isArray() && k < arr->elems.size(),
                "array extract out of bounds");
    return arr->elems[k];
}

void
RtValue::setElement(uint64_t k, const RtValue &v)
{
    SOFF_ASSERT(isArray() && k < arr->elems.size(),
                "array insert out of bounds");
    if (arr->refs > 1) {
        // Copy on write: the sharers keep the old block.
        auto *own = new ArrayBlock{1, arr->elems};
        releaseArray();
        arr = own;
    }
    arr->elems[k] = v;
}

bool
RtValue::equals(const RtValue &other) const
{
    if (kind != other.kind)
        return false;
    switch (kind) {
      case Kind::Empty:
        return true;
      case Kind::Int:
        return i == other.i;
      case Kind::Float:
        return f == other.f || (std::isnan(f) && std::isnan(other.f));
      case Kind::Array: {
        if (arraySize() != other.arraySize())
            return false;
        for (uint64_t k = 0; k < arraySize(); ++k) {
            if (!element(k).equals(other.element(k)))
                return false;
        }
        return true;
      }
    }
    return false;
}

uint64_t
WorkItemCtx::linearGlobalId() const
{
    return globalId[0] + globalSize[0] * (globalId[1] +
           globalSize[1] * globalId[2]);
}

uint64_t
WorkItemCtx::linearGroupId() const
{
    return groupId[0] + numGroups[0] * (groupId[1] +
           numGroups[1] * groupId[2]);
}

uint64_t
WorkItemCtx::linearLocalId() const
{
    return localId[0] + localSize[0] * (localId[1] +
           localSize[1] * localId[2]);
}

uint64_t
normalizeInt(const Type *type, uint64_t bits)
{
    if (type->isPointer())
        return bits;
    if (type->isBool())
        return bits & 1;
    SOFF_ASSERT(type->isInt(), "normalizeInt needs int-ish type");
    int w = type->bits();
    if (w >= 64)
        return bits;
    return bits & ((1ULL << w) - 1);
}

int64_t
signedValue(const Type *type, uint64_t bits)
{
    if (type->isBool())
        return static_cast<int64_t>(bits & 1);
    int w = type->isPointer() ? 64 : type->bits();
    if (w >= 64)
        return static_cast<int64_t>(bits);
    uint64_t v = bits & ((1ULL << w) - 1);
    if (v & (1ULL << (w - 1)))
        v |= ~((1ULL << w) - 1);
    return static_cast<int64_t>(v);
}

RtValue
constantValue(const Constant *c)
{
    if (c->type()->isFloat())
        return RtValue::makeFloat(c->fp());
    return RtValue::makeInt(normalizeInt(c->type(), c->intBits()));
}

namespace
{

/** Rounds a double result through float precision for f32 types. */
double
roundToType(const Type *type, double v)
{
    if (type->bits() == 32)
        return static_cast<double>(static_cast<float>(v));
    return v;
}

uint64_t
wiQueryValue(WorkItemQuery q, const WorkItemCtx &wi, uint64_t dim)
{
    uint64_t d = dim < 3 ? dim : 0;
    switch (q) {
      case WorkItemQuery::GlobalId: return wi.globalId[d];
      case WorkItemQuery::LocalId: return wi.localId[d];
      case WorkItemQuery::GroupId: return wi.groupId[d];
      case WorkItemQuery::GlobalSize: return wi.globalSize[d];
      case WorkItemQuery::LocalSize: return wi.localSize[d];
      case WorkItemQuery::NumGroups: return wi.numGroups[d];
      case WorkItemQuery::WorkDim:
        return static_cast<uint64_t>(wi.workDim);
    }
    return 0;
}

double
evalMathF(MathFunc f, double a, double b, double c)
{
    switch (f) {
      case MathFunc::Sqrt: return std::sqrt(a);
      case MathFunc::Rsqrt: return 1.0 / std::sqrt(a);
      case MathFunc::Fabs: return std::fabs(a);
      case MathFunc::Exp: return std::exp(a);
      case MathFunc::Exp2: return std::exp2(a);
      case MathFunc::Log: return std::log(a);
      case MathFunc::Log2: return std::log2(a);
      case MathFunc::Log10: return std::log10(a);
      case MathFunc::Sin: return std::sin(a);
      case MathFunc::Cos: return std::cos(a);
      case MathFunc::Tan: return std::tan(a);
      case MathFunc::Asin: return std::asin(a);
      case MathFunc::Acos: return std::acos(a);
      case MathFunc::Atan: return std::atan(a);
      case MathFunc::Atan2: return std::atan2(a, b);
      case MathFunc::Pow: return std::pow(a, b);
      case MathFunc::Floor: return std::floor(a);
      case MathFunc::Ceil: return std::ceil(a);
      case MathFunc::Round: return std::round(a);
      case MathFunc::Fmin: return std::fmin(a, b);
      case MathFunc::Fmax: return std::fmax(a, b);
      case MathFunc::Fmod: return std::fmod(a, b);
      case MathFunc::Hypot: return std::hypot(a, b);
      case MathFunc::Mad: return a * b + c;
      case MathFunc::Fma: return std::fma(a, b, c);
      case MathFunc::Copysign: return std::copysign(a, b);
      case MathFunc::FClamp: return std::fmin(std::fmax(a, b), c);
      default:
        SOFF_ASSERT(false, "evalMathF: not a float function");
    }
    return 0.0;
}

} // namespace

uint64_t
evalAtomicOp(AtomicOp op, const Type *type, uint64_t current,
             uint64_t operand)
{
    int64_t sc = signedValue(type, current);
    int64_t so = signedValue(type, operand);
    uint64_t result = 0;
    switch (op) {
      case AtomicOp::Add: result = current + operand; break;
      case AtomicOp::Sub: result = current - operand; break;
      case AtomicOp::And: result = current & operand; break;
      case AtomicOp::Or: result = current | operand; break;
      case AtomicOp::Xor: result = current ^ operand; break;
      case AtomicOp::SMin:
        result = static_cast<uint64_t>(sc < so ? sc : so);
        break;
      case AtomicOp::SMax:
        result = static_cast<uint64_t>(sc > so ? sc : so);
        break;
      case AtomicOp::UMin: result = current < operand ? current : operand;
        break;
      case AtomicOp::UMax: result = current > operand ? current : operand;
        break;
      case AtomicOp::Xchg: result = operand; break;
    }
    return normalizeInt(type, result);
}

RtValue
evalPure(const Instruction *inst, const RtValue *ops, size_t count,
         const WorkItemCtx &wi)
{
    SOFF_ASSERT(count == inst->numOperands(),
                std::string("evalPure: operand count mismatch for ") +
                    opcodeName(inst->op()));
    const Type *ty = inst->type();
    auto iv = [&](size_t k) { return ops[k].i; };
    auto fv = [&](size_t k) { return ops[k].f; };
    // Signed view of operand k, using that operand's static type.
    auto sv = [&](size_t k) {
        return signedValue(inst->operand(k)->type(), ops[k].i);
    };
    auto retInt = [&](uint64_t v) {
        return RtValue::makeInt(normalizeInt(ty, v));
    };
    auto retFloat = [&](double v) {
        return RtValue::makeFloat(roundToType(ty, v));
    };

    switch (inst->op()) {
      case Opcode::Add: return retInt(iv(0) + iv(1));
      case Opcode::Sub: return retInt(iv(0) - iv(1));
      case Opcode::Mul: return retInt(iv(0) * iv(1));
      case Opcode::SDiv: {
        int64_t d = sv(1);
        return retInt(d == 0 ? 0 : static_cast<uint64_t>(sv(0) / d));
      }
      case Opcode::UDiv: {
        uint64_t d = iv(1);
        return retInt(d == 0 ? 0 : iv(0) / d);
      }
      case Opcode::SRem: {
        int64_t d = sv(1);
        return retInt(d == 0 ? 0 : static_cast<uint64_t>(sv(0) % d));
      }
      case Opcode::URem: {
        uint64_t d = iv(1);
        return retInt(d == 0 ? 0 : iv(0) % d);
      }
      case Opcode::And: return retInt(iv(0) & iv(1));
      case Opcode::Or: return retInt(iv(0) | iv(1));
      case Opcode::Xor: return retInt(iv(0) ^ iv(1));
      case Opcode::Shl: return retInt(iv(0) << (iv(1) & 63));
      case Opcode::LShr: return retInt(iv(0) >> (iv(1) & 63));
      case Opcode::AShr:
        return retInt(static_cast<uint64_t>(sv(0) >>
                                            static_cast<int>(iv(1) & 63)));
      case Opcode::FAdd: return retFloat(fv(0) + fv(1));
      case Opcode::FSub: return retFloat(fv(0) - fv(1));
      case Opcode::FMul: return retFloat(fv(0) * fv(1));
      case Opcode::FDiv: return retFloat(fv(0) / fv(1));
      case Opcode::FRem: return retFloat(std::fmod(fv(0), fv(1)));
      case Opcode::Neg: return retInt(0 - iv(0));
      case Opcode::Not: return retInt(~iv(0));
      case Opcode::FNeg: return retFloat(-fv(0));
      case Opcode::ICmp: {
        bool r = false;
        switch (inst->icmpPred()) {
          case ICmpPred::EQ: r = iv(0) == iv(1); break;
          case ICmpPred::NE: r = iv(0) != iv(1); break;
          case ICmpPred::SLT: r = sv(0) < sv(1); break;
          case ICmpPred::SLE: r = sv(0) <= sv(1); break;
          case ICmpPred::SGT: r = sv(0) > sv(1); break;
          case ICmpPred::SGE: r = sv(0) >= sv(1); break;
          case ICmpPred::ULT: r = iv(0) < iv(1); break;
          case ICmpPred::ULE: r = iv(0) <= iv(1); break;
          case ICmpPred::UGT: r = iv(0) > iv(1); break;
          case ICmpPred::UGE: r = iv(0) >= iv(1); break;
        }
        return RtValue::makeInt(r ? 1 : 0);
      }
      case Opcode::FCmp: {
        bool r = false;
        switch (inst->fcmpPred()) {
          case FCmpPred::OEQ: r = fv(0) == fv(1); break;
          case FCmpPred::ONE: r = fv(0) != fv(1) &&
              !std::isnan(fv(0)) && !std::isnan(fv(1)); break;
          case FCmpPred::OLT: r = fv(0) < fv(1); break;
          case FCmpPred::OLE: r = fv(0) <= fv(1); break;
          case FCmpPred::OGT: r = fv(0) > fv(1); break;
          case FCmpPred::OGE: r = fv(0) >= fv(1); break;
        }
        return RtValue::makeInt(r ? 1 : 0);
      }
      case Opcode::Select:
        return iv(0) ? ops[1] : ops[2];
      case Opcode::Trunc:
      case Opcode::ZExt:
        return retInt(iv(0));
      case Opcode::SExt:
        return retInt(static_cast<uint64_t>(sv(0)));
      case Opcode::FPTrunc:
      case Opcode::FPExt:
        return retFloat(fv(0));
      case Opcode::FPToSI:
        return retInt(static_cast<uint64_t>(static_cast<int64_t>(fv(0))));
      case Opcode::FPToUI:
        return retInt(static_cast<uint64_t>(fv(0)));
      case Opcode::SIToFP:
        return retFloat(static_cast<double>(sv(0)));
      case Opcode::UIToFP:
        return retFloat(static_cast<double>(iv(0)));
      case Opcode::Bitcast: {
        // Only int<->float bit reinterpretation of equal width.
        if (ty->isFloat() && ops[0].isInt()) {
            if (ty->bits() == 32) {
                float f;
                uint32_t b = static_cast<uint32_t>(iv(0));
                static_assert(sizeof(f) == sizeof(b));
                __builtin_memcpy(&f, &b, sizeof(f));
                return RtValue::makeFloat(f);
            }
            double d;
            uint64_t b = iv(0);
            __builtin_memcpy(&d, &b, sizeof(d));
            return RtValue::makeFloat(d);
        }
        if (ty->isIntOrBool() && ops[0].isFloat()) {
            const Type *src = inst->operand(0)->type();
            if (src->bits() == 32) {
                float f = static_cast<float>(fv(0));
                uint32_t b;
                __builtin_memcpy(&b, &f, sizeof(b));
                return retInt(b);
            }
            double d = fv(0);
            uint64_t b;
            __builtin_memcpy(&b, &d, sizeof(b));
            return retInt(b);
        }
        return ops[0];
      }
      case Opcode::PtrToInt:
      case Opcode::IntToPtr:
        return retInt(iv(0));
      case Opcode::PtrAdd:
        return RtValue::makeInt(iv(0) + iv(1));
      case Opcode::LocalAddr:
        return RtValue::makeInt(
            localPtrEncode(inst->localVar()->index()));
      case Opcode::ArrayExtract:
        return ops[0].element(iv(1));
      case Opcode::ArrayInsert: {
        RtValue a = ops[0];
        a.setElement(iv(1), ops[2]);
        return a;
      }
      case Opcode::ArraySplat: {
        RtValue a = RtValue::makeArray(ty->count());
        for (uint64_t k = 0; k < ty->count(); ++k)
            a.setElement(k, ops[0]);
        return a;
      }
      case Opcode::WorkItemInfo: {
        uint64_t dim = count == 0 ? 0 : iv(0);
        return retInt(wiQueryValue(inst->wiQuery(), wi, dim));
      }
      case Opcode::MathCall: {
        MathFunc f = inst->mathFunc();
        switch (f) {
          case MathFunc::SMin: {
            int64_t a = sv(0), b = sv(1);
            return retInt(static_cast<uint64_t>(a < b ? a : b));
          }
          case MathFunc::SMax: {
            int64_t a = sv(0), b = sv(1);
            return retInt(static_cast<uint64_t>(a > b ? a : b));
          }
          case MathFunc::UMin:
            return retInt(iv(0) < iv(1) ? iv(0) : iv(1));
          case MathFunc::UMax:
            return retInt(iv(0) > iv(1) ? iv(0) : iv(1));
          case MathFunc::SAbs: {
            int64_t a = sv(0);
            return retInt(static_cast<uint64_t>(a < 0 ? -a : a));
          }
          case MathFunc::SClamp: {
            int64_t x = sv(0), lo = sv(1), hi = sv(2);
            int64_t r = x < lo ? lo : (x > hi ? hi : x);
            return retInt(static_cast<uint64_t>(r));
          }
          case MathFunc::UClamp: {
            uint64_t x = iv(0), lo = iv(1), hi = iv(2);
            return retInt(x < lo ? lo : (x > hi ? hi : x));
          }
          default: {
            double a = fv(0);
            double b = count > 1 && ops[1].isFloat() ? fv(1) : 0.0;
            double c = count > 2 && ops[2].isFloat() ? fv(2) : 0.0;
            // For f32, evaluate at float precision so the simulator and
            // a host float reference agree.
            if (ty->bits() == 32) {
                return retFloat(evalMathF(
                    f, static_cast<float>(a), static_cast<float>(b),
                    static_cast<float>(c)));
            }
            return retFloat(evalMathF(f, a, b, c));
          }
        }
      }
      default:
        SOFF_ASSERT(false, std::string("evalPure: unsupported opcode ") +
                    opcodeName(inst->op()));
    }
    return RtValue();
}

} // namespace soff::ir
