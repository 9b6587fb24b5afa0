/**
 * @file
 * The benchmark execution harness: one host-program API that can run an
 * application on any of the four engines the evaluation compares —
 * SOFF's cycle-level circuit simulation, the reference interpreter, and
 * the Intel-like / Xilinx-like compile-time-pipelining baselines
 * (paper §VI, Table I/II, Fig. 11/12).
 */
#pragma once

#include <optional>
#include <variant>

#include "baseline/static_pipeline.hpp"
#include "runtime/runtime.hpp"

namespace soff::benchsuite
{

/** Which execution engine a BenchContext drives. */
enum class Engine
{
    SoffSim,    ///< SOFF on the (simulated) Intel Arria 10 (System A).
    Reference,  ///< Functional oracle (no timing).
    IntelLike,  ///< Intel-FPGA-SDK-like baseline on System A.
    XilinxLike, ///< Xilinx-SDAccel-like baseline on System B (VU9P).
};

const char *engineName(Engine engine);

/** A kernel launch argument. */
using Arg = std::variant<rt::Buffer, int32_t, uint32_t, int64_t,
                         uint64_t, float, double>;

/** 1-D NDRange helper. */
sim::NDRange range1d(uint64_t global, uint64_t local);
/** 2-D NDRange helper. */
sim::NDRange range2d(uint64_t gx, uint64_t gy, uint64_t lx, uint64_t ly);

/** Per-run metrics accumulated over all launches of one application. */
struct RunMetrics
{
    double timeMs = 0.0;
    uint64_t cycles = 0;
    int instances = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    uint64_t cacheEvictions = 0;
    uint64_t dramTransfers = 0;
    uint64_t dramBytes = 0;
    int launches = 0;
    /** Scheduler work (SoffSim engine only; see bench/sim_throughput). */
    uint64_t componentSteps = 0;
    uint64_t cyclesActive = 0;
    uint64_t channelCommits = 0;
    /** Per-launch architectural counter reports (SoffSim engine only). */
    std::vector<std::shared_ptr<const sim::StatsReport>> statsReports;
};

/** The engine-dispatching host context used by every application. */
class BenchContext
{
  public:
    explicit BenchContext(Engine engine);

    Engine engine() const { return engine_; }

    /** Compiler/planner knobs (ablation benches); set before build(). */
    void setCompilerOptions(const core::CompilerOptions &options)
    {
        options_ = options;
    }
    /** Forces a datapath instance count (0 = resource-model maximum). */
    void setInstanceOverride(int instances)
    {
        instanceOverride_ = instances;
    }
    /** Platform timing/scheduler knobs for the SoffSim engine. */
    void setPlatformConfig(const sim::PlatformConfig &platform)
    {
        platform_ = platform;
    }

    /** Compiles the application's OpenCL C program. */
    void build(const std::string &source);

    rt::Buffer createBuffer(uint64_t size);
    void write(const rt::Buffer &buffer, const void *src, uint64_t size);
    void read(const rt::Buffer &buffer, void *dst, uint64_t size);

    /** Launches a kernel; accumulates engine-dependent timing. */
    void launch(const std::string &kernel, const sim::NDRange &ndrange,
                const std::vector<Arg> &args);

    const RunMetrics &metrics() const { return metrics_; }
    const core::CompiledProgram &compiled() const
    {
        return program_->compiled();
    }
    /** The program the last build() made (its template pool holds the
     *  circuits its launches ran). */
    const rt::Program &program() const { return *program_; }
    rt::Context &context() { return ctx_; }

  private:
    int baselineInstances(const core::CompiledKernel &kernel) const;

    Engine engine_;
    rt::Context ctx_;
    core::CompilerOptions options_;
    sim::PlatformConfig platform_;
    int instanceOverride_ = 0;
    std::optional<rt::Program> program_;
    RunMetrics metrics_;
};

} // namespace soff::benchsuite
