/**
 * @file
 * Privatized histogram — the datacenter-analytics pattern (paper §I
 * motivates FPGAs with exactly such workloads). Exercises the features
 * that break the commercial baselines in Table II: local memory,
 * work-group barriers, and atomics on both local and global memory,
 * all running on the simulated SOFF datapath.
 */
#include <cstdio>
#include <vector>

#include "runtime/runtime.hpp"
#include "support/rng.hpp"

int
main()
{
    const char *source = R"CL(
#define BINS 16
__kernel void histogram(__global int* data, __global int* hist, int n) {
  __local int local_hist[BINS];
  int l = get_local_id(0);
  if (l < BINS) local_hist[l] = 0;
  barrier(CLK_LOCAL_MEM_FENCE);
  int i = get_global_id(0);
  if (i < n) {
    int bin = (data[i] % BINS + BINS) % BINS;
    atomic_add(&local_hist[bin], 1);
  }
  barrier(CLK_LOCAL_MEM_FENCE);
  if (l < BINS) atomic_add(&hist[l], local_hist[l]);
}
)CL";

    const int n = 2048, bins = 16;

    soff::rt::Context ctx;
    soff::rt::Program program = ctx.buildProgram(source);
    soff::rt::KernelHandle kernel = program.createKernel("histogram");

    std::vector<int32_t> data(n);
    std::vector<int32_t> expect(bins, 0);
    soff::SplitMix64 rng(7);
    for (int32_t &v : data) {
        v = rng.nextInt(-1000, 1000);
        ++expect[((v % bins) + bins) % bins];
    }
    std::vector<int32_t> hist(bins, 0);

    soff::rt::Buffer bdata = ctx.createBuffer(n * 4);
    soff::rt::Buffer bhist = ctx.createBuffer(bins * 4);
    ctx.writeBuffer(bdata, data.data(), n * 4);
    ctx.writeBuffer(bhist, hist.data(), bins * 4);

    kernel.setArg(0, bdata);
    kernel.setArg(1, bhist);
    kernel.setArg(2, n);
    soff::sim::NDRange ndrange;
    ndrange.globalSize[0] = n;
    ndrange.localSize[0] = 64;
    auto result = ctx.enqueueNDRange(kernel, ndrange);

    ctx.readBuffer(bhist, hist.data(), bins * 4);

    std::printf("histogram of %d values in %llu cycles "
                "(%d datapath instances):\n", n,
                static_cast<unsigned long long>(result.cycles),
                result.instances);
    bool ok = true;
    for (int b = 0; b < bins; ++b) {
        std::printf("  bin %2d: %5d %s\n", b, hist[b],
                    hist[b] == expect[b] ? "" : "<- MISMATCH");
        ok &= hist[b] == expect[b];
    }
    std::printf("local memory accesses: %llu (bank conflicts: %llu)\n",
                static_cast<unsigned long long>(
                    result.statsReport->localAccesses),
                static_cast<unsigned long long>(
                    result.statsReport->localBankConflicts));
    return ok ? 0 : 1;
}
