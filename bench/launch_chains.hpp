/**
 * @file
 * The launch-chain harness shared by bench/launch_throughput and
 * bench/launch_soak: six small kernels, their variants (kernel,
 * NDRange, scalar), deterministic host inputs, the write -> launch ->
 * read chain's input transfers, and a reference-interpreter oracle per
 * variant. Each bench picks its own variant set and schedule.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"

namespace launch_chains
{

using soff::rt::Buffer;
using soff::rt::CommandQueue;
using soff::rt::Context;
using soff::rt::Event;
using soff::rt::KernelHandle;

constexpr const char *kKernels = R"CL(
__kernel void vadd(__global float* A, __global float* B,
                   __global float* C) {
  int g = get_global_id(0);
  C[g] = A[g] + B[g];
}
__kernel void saxpy(__global float* X, __global float* Y, float a) {
  int g = get_global_id(0);
  Y[g] = a * X[g] + Y[g];
}
__kernel void smooth(__global float* A, __global float* B, int iters) {
  __local float tile[16];
  int l = get_local_id(0);
  int g = get_global_id(0);
  tile[l] = A[g];
  for (int t = 0; t < iters; t++) {
    barrier(CLK_LOCAL_MEM_FENCE);
    float left = tile[l == 0 ? 0 : l - 1];
    float right = tile[l == 15 ? 15 : l + 1];
    barrier(CLK_LOCAL_MEM_FENCE);
    tile[l] = 0.5f * tile[l] + 0.25f * (left + right);
  }
  B[g] = tile[l];
}
__kernel void histo(__global int* A, __global int* H) {
  int g = get_global_id(0);
  atomic_add(&H[A[g] & 15], 1);
}
__kernel void stencil(__global float* A, __global float* C, int n) {
  int g = get_global_id(0);
  float left = g == 0 ? A[0] : A[g - 1];
  float right = g == n - 1 ? A[n - 1] : A[g + 1];
  C[g] = 0.25f * left + 0.5f * A[g] + 0.25f * right;
}
__kernel void reduce(__global float* A, __global float* R, int lsz) {
  __local float sc[32];
  int l = get_local_id(0);
  sc[l] = A[get_global_id(0)];
  barrier(CLK_LOCAL_MEM_FENCE);
  if (l == 0) {
    float s = 0.0f;
    for (int i = 0; i < lsz; i++) s += sc[i];
    R[get_group_id(0)] = s;
  }
}
)CL";

constexpr int kNumApps = 6;
constexpr const char *kAppNames[kNumApps] = {
    "vadd", "saxpy", "smooth", "histo", "stencil", "reduce"};
constexpr uint64_t kSlotBytes = 64 * 4; ///< Largest NDRange is 64.

/** One kernel variant: everything that shapes a launch except the
 *  buffer slot it lands in. Inputs are a pure function of the id. */
struct Variant
{
    int app = 0;
    uint32_t n = 0;
    uint32_t local = 0;
    int32_t scalar = 0;
    int id = 0;

    uint64_t
    outBytes() const
    {
        if (app == 3)
            return 16 * 4; // histogram bins
        if (app == 5)
            return n / local * 4; // one sum per group
        return n * 4;
    }
};

/** Host-side input images per variant (stable storage: enqueueWrite
 *  keeps raw pointers until the DMA command executes). */
struct VariantInputs
{
    std::vector<float> a;
    std::vector<float> b;       ///< saxpy Y / vadd B.
    std::vector<int32_t> ints;  ///< histo values.
    std::vector<int32_t> zeros; ///< histo bin reset.
};

inline std::vector<VariantInputs>
makeInputs(const std::vector<Variant> &variants)
{
    std::vector<VariantInputs> inputs(variants.size());
    for (const Variant &v : variants) {
        VariantInputs &in = inputs[static_cast<size_t>(v.id)];
        const uint32_t id = static_cast<uint32_t>(v.id);
        in.a.resize(v.n);
        in.b.resize(v.n);
        for (uint32_t i = 0; i < v.n; ++i) {
            in.a[i] = static_cast<float>((id * 7 + i) % 13) * 0.5f;
            in.b[i] = static_cast<float>((id * 3 + i) % 9) * 0.25f;
        }
        if (v.app == 3) {
            in.ints.resize(v.n);
            for (uint32_t i = 0; i < v.n; ++i)
                in.ints[i] = static_cast<int32_t>((id * 7 + i) % 13);
            in.zeros.assign(16, 0);
        }
    }
    return inputs;
}

/** Binds a variant's arguments against a slot's buffers. */
inline soff::sim::NDRange
bindVariant(const Variant &v, KernelHandle &kernel, const Buffer &in0,
            const Buffer &in1, const Buffer &out)
{
    switch (v.app) {
      case 0:
        kernel.setArg(0, in0);
        kernel.setArg(1, in1);
        kernel.setArg(2, out);
        break;
      case 1:
        kernel.setArg(0, in0);
        kernel.setArg(1, out);
        kernel.setArg(2, static_cast<float>(v.scalar));
        break;
      case 3:
        kernel.setArg(0, in0);
        kernel.setArg(1, out);
        break;
      case 4:
        kernel.setArg(0, in0);
        kernel.setArg(1, out);
        kernel.setArg(2, static_cast<int32_t>(v.n));
        break;
      default: // smooth / reduce
        kernel.setArg(0, in0);
        kernel.setArg(1, out);
        kernel.setArg(2, v.scalar);
        break;
    }
    soff::sim::NDRange nd;
    nd.globalSize[0] = v.n;
    nd.localSize[0] = v.local;
    return nd;
}

/** One host->device transfer of a launch's inputs. */
struct InputWrite
{
    const Buffer *buffer;
    const void *src;
    uint64_t bytes;
};

/** The input transfers of one launch of `v` into a slot, in the
 *  order they are enqueued. */
inline std::vector<InputWrite>
inputWrites(const Variant &v, const VariantInputs &in, const Buffer &in0,
            const Buffer &in1, const Buffer &out)
{
    const uint64_t bytes = v.n * 4;
    switch (v.app) {
      case 0:
        return {{&in0, in.a.data(), bytes}, {&in1, in.b.data(), bytes}};
      case 1:
        return {{&in0, in.a.data(), bytes}, {&out, in.b.data(), bytes}};
      case 3:
        return {{&in0, in.ints.data(), bytes},
                {&out, in.zeros.data(), 16 * 4}};
      default:
        return {{&in0, in.a.data(), bytes}};
    }
}

/** Enqueues the input-transfer commands of one launch, each waiting
 *  on `slot_free`; returns the events the launch must wait on. */
inline std::vector<Event>
enqueueInputs(CommandQueue &queue, const Variant &v,
              const VariantInputs &in, const Buffer &in0,
              const Buffer &in1, const Buffer &out,
              const std::vector<Event> &slot_free)
{
    std::vector<Event> done;
    for (const InputWrite &w : inputWrites(v, in, in0, in1, out)) {
        Event e;
        queue.enqueueWrite(*w.buffer, w.src, w.bytes, slot_free, &e);
        done.push_back(e);
    }
    return done;
}

/** Reference-interpreter oracle per variant, computed in a side
 *  context (independent memory, no circuits). */
inline std::vector<std::vector<uint8_t>>
makeOracles(const std::vector<Variant> &variants,
            const std::vector<VariantInputs> &inputs)
{
    Context ctx;
    soff::rt::Program program = ctx.buildProgram(kKernels);
    std::vector<KernelHandle> kernels;
    for (const char *name : kAppNames)
        kernels.push_back(program.createKernel(name));
    Buffer in0 = ctx.createBuffer(kSlotBytes);
    Buffer in1 = ctx.createBuffer(kSlotBytes);
    Buffer out = ctx.createBuffer(kSlotBytes);
    std::vector<std::vector<uint8_t>> oracles(variants.size());
    for (const Variant &v : variants) {
        const VariantInputs &in = inputs[static_cast<size_t>(v.id)];
        for (const InputWrite &w : inputWrites(v, in, in0, in1, out))
            ctx.writeBuffer(*w.buffer, w.src, w.bytes);
        KernelHandle &kernel = kernels[static_cast<size_t>(v.app)];
        soff::sim::NDRange nd = bindVariant(v, kernel, in0, in1, out);
        ctx.enqueueNDRange(kernel, nd, soff::rt::ExecutionMode::Reference);
        std::vector<uint8_t> bytes(v.outBytes());
        ctx.readBuffer(out, bytes.data(), bytes.size());
        oracles[static_cast<size_t>(v.id)] = std::move(bytes);
    }
    return oracles;
}

/** 1, 2, hardware_concurrency — deduplicated and sorted. */
inline std::vector<int>
workerCounts()
{
    std::vector<int> counts = {
        1, 2,
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()))};
    std::sort(counts.begin(), counts.end());
    counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
    return counts;
}

} // namespace launch_chains
