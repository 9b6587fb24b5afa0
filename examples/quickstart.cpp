/**
 * @file
 * Quickstart: compile and run an OpenCL kernel on the simulated SOFF
 * platform in ~40 lines.
 *
 * The flow mirrors a real OpenCL host program: build a program, create
 * buffers, set kernel arguments, enqueue an NDRange, read results —
 * except the "FPGA" is SOFF's cycle-level circuit simulator, so the
 * launch also reports cycles, datapath instances, and cache behavior.
 */
#include <cstdio>
#include <vector>

#include "runtime/runtime.hpp"

int
main()
{
    const char *source = R"CL(
__kernel void saxpy(__global float* X, __global float* Y, float a) {
  int i = get_global_id(0);
  Y[i] = a * X[i] + Y[i];
}
)CL";

    // A context on the default device (a simulated Intel Arria 10).
    soff::rt::Context ctx;
    soff::rt::Program program = ctx.buildProgram(source);
    soff::rt::KernelHandle kernel = program.createKernel("saxpy");

    const uint64_t n = 1024;
    std::vector<float> x(n), y(n);
    for (uint64_t i = 0; i < n; ++i) {
        x[i] = static_cast<float>(i) * 0.5f;
        y[i] = 1.0f;
    }
    soff::rt::Buffer bx = ctx.createBuffer(n * sizeof(float));
    soff::rt::Buffer by = ctx.createBuffer(n * sizeof(float));
    ctx.writeBuffer(bx, x.data(), n * sizeof(float));
    ctx.writeBuffer(by, y.data(), n * sizeof(float));

    kernel.setArg(0, bx);
    kernel.setArg(1, by);
    kernel.setArg(2, 2.0f);

    soff::sim::NDRange ndrange;
    ndrange.globalSize[0] = n;
    ndrange.localSize[0] = 64;
    soff::rt::LaunchResult result = ctx.enqueueNDRange(kernel, ndrange);

    ctx.readBuffer(by, y.data(), n * sizeof(float));

    std::printf("saxpy over %llu work-items:\n",
                static_cast<unsigned long long>(n));
    std::printf("  datapath instances : %d\n", result.instances);
    std::printf("  cycles             : %llu\n",
                static_cast<unsigned long long>(result.cycles));
    std::printf("  estimated fmax     : %.0f MHz\n", result.fmaxMhz);
    std::printf("  kernel time        : %.4f ms\n", result.timeMs);
    std::printf("  cache hits/misses  : %llu / %llu\n",
                static_cast<unsigned long long>(
                    result.statsReport->cacheHits),
                static_cast<unsigned long long>(
                    result.statsReport->cacheMisses));
    std::printf("  y[10] = %.1f (expected %.1f)\n", y[10],
                2.0f * x[10] + 1.0f);
    return y[10] == 2.0f * x[10] + 1.0f ? 0 : 1;
}
