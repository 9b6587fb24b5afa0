/**
 * @file
 * Tokens that flow through the simulated circuit, and the NDRange /
 * launch context they are interpreted against.
 */
#pragma once

#include <cstdint>
#include <map>

#include "ir/eval.hpp"
#include "ir/kernel.hpp"
#include "sim/smallvec.hpp"

namespace soff::sim
{

using Cycle = uint64_t;

/** An OpenCL NDRange (paper §II-B1). */
struct NDRange
{
    uint64_t globalSize[3] = {1, 1, 1};
    uint64_t localSize[3] = {1, 1, 1};
    int workDim = 1;

    uint64_t
    totalWorkItems() const
    {
        return globalSize[0] * globalSize[1] * globalSize[2];
    }
    uint64_t
    groupSize() const
    {
        return localSize[0] * localSize[1] * localSize[2];
    }
    uint64_t numGroups(int d) const { return globalSize[d] / localSize[d]; }
    uint64_t
    totalGroups() const
    {
        return numGroups(0) * numGroups(1) * numGroups(2);
    }
    /**
     * A launch's generous work budget: the simulated cycle cap without
     * a watchdog, and the reference interpreter's instruction cap. A
     * launch that spends it is taken not to terminate.
     */
    uint64_t
    workBudget() const
    {
        return 1000000ull + totalWorkItems() * 50000ull;
    }

    /** Full work-item context of a linear global id (row-major). */
    ir::WorkItemCtx
    ctxOf(uint64_t gid) const
    {
        ir::WorkItemCtx wi;
        wi.workDim = workDim;
        uint64_t rest = gid;
        for (int d = 0; d < 3; ++d) {
            wi.globalId[d] = rest % globalSize[d];
            rest /= globalSize[d];
            wi.globalSize[d] = globalSize[d];
            wi.localSize[d] = localSize[d];
            wi.numGroups[d] = numGroups(d);
            wi.localId[d] = wi.globalId[d] % localSize[d];
            wi.groupId[d] = wi.globalId[d] / localSize[d];
        }
        return wi;
    }

    /** Linear work-group id of a linear global id. */
    uint64_t
    groupOf(uint64_t gid) const
    {
        uint64_t gx = gid % globalSize[0];
        uint64_t rest = gid / globalSize[0];
        uint64_t gy = rest % globalSize[1];
        uint64_t gz = rest / globalSize[1];
        return (gx / localSize[0]) +
               numGroups(0) * ((gy / localSize[1]) +
                               numGroups(1) * (gz / localSize[2]));
    }

    /** Linear global id of (linear group, linear local) coordinates. */
    uint64_t
    gidOf(uint64_t group, uint64_t local) const
    {
        uint64_t wgx = group % numGroups(0);
        uint64_t rest_g = group / numGroups(0);
        uint64_t wgy = rest_g % numGroups(1);
        uint64_t wgz = rest_g / numGroups(1);
        uint64_t lx = local % localSize[0];
        uint64_t rest_l = local / localSize[0];
        uint64_t ly = rest_l % localSize[1];
        uint64_t lz = rest_l / localSize[1];
        uint64_t x = wgx * localSize[0] + lx;
        uint64_t y = wgy * localSize[1] + ly;
        uint64_t z = wgz * localSize[2] + lz;
        return x + globalSize[0] * (y + globalSize[1] * z);
    }
};

/** Kernel launch parameters shared by every functional unit. */
struct LaunchContext
{
    NDRange ndrange;
    /** Argument values (buffer base addresses / scalars). */
    std::map<const ir::Argument *, ir::RtValue> args;

    const ir::RtValue &
    argValue(const ir::Argument *arg) const
    {
        auto it = args.find(arg);
        return it->second;
    }
};

/** A value token on a basic-pipeline edge. */
struct Flit
{
    uint64_t wi = 0; ///< Linear global work-item id.
    ir::RtValue val;
};

static_assert(sizeof(Flit) == 24,
              "a Flit is a work-item id plus one 16-byte RtValue");

/**
 * A live-variable bundle on an inter-pipeline channel. Live sets are
 * short (§IV-B live-variable layouts), so up to eight values stay
 * inline in the token (160 bytes) — moving a WiToken through a channel
 * does not allocate unless its layout is wider.
 */
struct WiToken
{
    uint64_t wi = 0;
    SmallVec<ir::RtValue, 8> live;
};

/** A memory request from a functional unit / cache. */
struct MemReq
{
    enum class Op { Load, Store, AtomicRMW, AtomicCmpXchg };

    Op op = Op::Load;
    uint64_t addr = 0;
    uint32_t size = 4;       ///< Access width in bytes (1..8).
    uint64_t data = 0;       ///< Store data / atomic operand.
    uint64_t data2 = 0;      ///< Cmpxchg desired value.
    ir::AtomicOp aop = ir::AtomicOp::Add;
    const ir::Type *type = nullptr; ///< Element type (atomics).
    uint32_t slot = 0;       ///< Work-group slot (local memory).
};

/** A memory response (loads return data; stores return an ack). */
struct MemResp
{
    uint64_t data = 0;
};

} // namespace soff::sim
