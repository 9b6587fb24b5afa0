/**
 * @file
 * The launch_mix kernels: six small kernels and 54 variants (kernel,
 * NDRange, scalar), the same mix bench/launch_throughput drives. Inputs
 * are a pure function of the variant id.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/runtime.hpp"

namespace perfbench
{

constexpr int kLaunchApps = 6;
extern const char *const kLaunchAppNames[kLaunchApps];
constexpr uint64_t kSlotBytes = 64 * 4; ///< Largest NDRange is 64.

struct Variant
{
    int app = 0;
    uint32_t n = 0;
    uint32_t local = 0;
    int32_t scalar = 0;
    int id = 0;

    uint64_t outBytes() const;
};

/** Host input images of one variant (stable storage: enqueueWrite
 *  keeps raw pointers until the DMA command executes). */
struct VariantInputs
{
    std::vector<float> a;
    std::vector<float> b;       ///< saxpy Y / vadd B.
    std::vector<int32_t> ints;  ///< histo values.
    std::vector<int32_t> zeros; ///< histo bin reset.
};

std::vector<Variant> makeVariants();
std::vector<VariantInputs> makeInputs(const std::vector<Variant> &variants);

/** Binds a variant's arguments against a slot's buffers. */
soff::sim::NDRange bindVariant(const Variant &v,
                               soff::rt::KernelHandle &kernel,
                               const soff::rt::Buffer &in0,
                               const soff::rt::Buffer &in1,
                               const soff::rt::Buffer &out);

/** Writes a variant's inputs with immediate (unqueued) DMA. */
void writeInputs(soff::rt::Context &ctx, const Variant &v,
                 const VariantInputs &in, const soff::rt::Buffer &in0,
                 const soff::rt::Buffer &in1, const soff::rt::Buffer &out);

} // namespace perfbench
