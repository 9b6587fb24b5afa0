#include "benchsuite/bench_context.hpp"

#include "support/error.hpp"

namespace soff::benchsuite
{

const char *
engineName(Engine engine)
{
    switch (engine) {
      case Engine::SoffSim: return "SOFF";
      case Engine::Reference: return "Reference";
      case Engine::IntelLike: return "Intel-like";
      case Engine::XilinxLike: return "Xilinx-like";
    }
    return "?";
}

sim::NDRange
range1d(uint64_t global, uint64_t local)
{
    sim::NDRange nd;
    nd.globalSize[0] = global;
    nd.localSize[0] = local;
    return nd;
}

sim::NDRange
range2d(uint64_t gx, uint64_t gy, uint64_t lx, uint64_t ly)
{
    sim::NDRange nd;
    nd.workDim = 2;
    nd.globalSize[0] = gx;
    nd.globalSize[1] = gy;
    nd.localSize[0] = lx;
    nd.localSize[1] = ly;
    return nd;
}

namespace
{

datapath::FpgaSpec
fpgaFor(Engine engine)
{
    // System A (Arria 10) for SOFF and Intel; System B (VU9P) for
    // Xilinx (paper Table I).
    if (engine == Engine::XilinxLike)
        return datapath::FpgaSpec::vu9p();
    return datapath::FpgaSpec::arria10();
}

} // namespace

BenchContext::BenchContext(Engine engine)
    : engine_(engine), ctx_(fpgaFor(engine))
{}

void
BenchContext::build(const std::string &source)
{
    program_.emplace(ctx_.buildProgram(source, options_));
}

rt::Buffer
BenchContext::createBuffer(uint64_t size)
{
    return ctx_.createBuffer(size);
}

void
BenchContext::write(const rt::Buffer &buffer, const void *src,
                    uint64_t size)
{
    ctx_.writeBuffer(buffer, src, size);
}

void
BenchContext::read(const rt::Buffer &buffer, void *dst, uint64_t size)
{
    ctx_.readBuffer(buffer, dst, size);
}

int
BenchContext::baselineInstances(const core::CompiledKernel &kernel) const
{
    // Fig. 11: "we manually insert the num_compute_units(N) attribute
    // in every application to also maximally replicate datapath
    // instances in Intel OpenCL" — the baseline gets the same
    // resource-model-derived replication as SOFF.
    return std::max(1, kernel.maxInstancesAlone);
}

void
BenchContext::launch(const std::string &kernel,
                     const sim::NDRange &ndrange,
                     const std::vector<Arg> &args)
{
    SOFF_ASSERT(program_.has_value(), "launch before build()");
    rt::KernelHandle handle = program_->createKernel(kernel);
    for (size_t i = 0; i < args.size(); ++i) {
        std::visit([&](auto &&v) { handle.setArg(i, v); }, args[i]);
    }
    ++metrics_.launches;

    switch (engine_) {
      case Engine::SoffSim: {
        rt::LaunchResult result = ctx_.enqueueNDRange(
            handle, ndrange, rt::ExecutionMode::Simulate, platform_,
            instanceOverride_);
        metrics_.timeMs += result.timeMs;
        metrics_.cycles += result.cycles;
        metrics_.instances = result.instances;
        const sim::StatsReport &report = *result.statsReport;
        metrics_.cacheHits += report.cacheHits;
        metrics_.cacheMisses += report.cacheMisses;
        metrics_.cacheEvictions += report.cacheEvictions;
        metrics_.dramTransfers += report.dramTransfers;
        metrics_.dramBytes += report.dramBytes;
        metrics_.componentSteps += result.sched.componentSteps;
        metrics_.cyclesActive += result.sched.cyclesActive;
        metrics_.channelCommits += result.sched.channelCommits;
        metrics_.statsReports.push_back(result.statsReport);
        return;
      }
      case Engine::Reference: {
        ctx_.enqueueNDRange(handle, ndrange,
                            rt::ExecutionMode::Reference);
        return;
      }
      case Engine::IntelLike:
      case Engine::XilinxLike: {
        const core::CompiledKernel &ck = handle.compiled();
        baseline::StaticPipelineConfig cfg =
            engine_ == Engine::IntelLike
                ? baseline::StaticPipelineConfig::intelLike(
                      baselineInstances(ck))
                : baseline::StaticPipelineConfig::xilinxLike();
        if (engine_ == Engine::IntelLike) {
            // Maximal replication costs the baseline the same timing
            // closure the resource model charges SOFF for.
            cfg.fmaxMhz = datapath::estimateFmaxMhz(
                ctx_.device().fpga(),
                ck.resourcesPerInstance.scaled(cfg.numInstances));
        }
        sim::LaunchContext launch_ctx;
        launch_ctx.ndrange = ndrange;
        launch_ctx.args = handle.argValues();
        baseline::StaticPipelineResult result =
            baseline::runStaticPipeline(*ck.kernel, launch_ctx,
                                        ctx_.device().globalMemory(),
                                        cfg);
        metrics_.timeMs += result.timeMs;
        metrics_.cycles += result.cycles;
        metrics_.instances = cfg.numInstances;
        metrics_.cacheHits += result.cacheHits;
        metrics_.cacheMisses += result.cacheMisses;
        return;
      }
    }
}

} // namespace soff::benchsuite
