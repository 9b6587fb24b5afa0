/**
 * @file
 * suite: Table II traffic. Each op takes one of the 34 benchsuite apps
 * from OpenCL C source to a verified result (BenchContext::build, then
 * App::host: write, launch, simulate, read back, host oracle) on the
 * default platform. One client; one device context per pass of 34 ops,
 * opened outside any op, because opening one zero-fills 256 MiB.
 */
#include "workload.hpp"

using namespace soff;
using namespace soff::benchsuite;

namespace perfbench
{

namespace
{

class Suite : public Workload
{
  public:
    explicit Suite(uint64_t seed) : seed_(seed), apps_(allApps()) {}

    void
    setup(Tracer &tracer) override
    {
        golden_ = goldenCycles();
        for (const auto &[name, cycles] : golden_) {
            if (findApp(name) == nullptr)
                throw std::runtime_error("golden row for unknown app " +
                                         name);
        }
        Tracer::Scope s(tracer, "runtime.context_open");
        ctx_ = std::make_unique<BenchContext>(Engine::SoffSim);
    }

    OpLog
    run(const Budget &budget, Tracer &tracer) override
    {
        OpLog log;
        // A time-bounded run stops only at a pass boundary, so every
        // run carries the same app mix whatever its op count.
        while (budget.more(log.attempted)) {
            if (ctxPasses_++ > 0) {
                // Apps never release their buffers, and the context keeps
                // every launch's StatsReport: on one context device and
                // host memory grow with the op count. Each pass gets a
                // fresh context, opened between passes (outside any op)
                // like the first one in setup.
                ctx_.reset();
                ctx_ = std::make_unique<BenchContext>(Engine::SoffSim);
            }
            for (size_t i : seededPermutation(seed_ ^ (pass_++ << 32),
                                              apps_.size())) {
                runOp(i, log, tracer);
                if (budget.fixedOps > 0 && !budget.more(log.attempted))
                    break;
            }
        }
        return log;
    }

    uint64_t cycleOps() const override { return apps_.size(); }

    Summary
    summary(const OpLog &log) const override
    {
        // Each app runs only ~10 times a run: its minimum caught a fast
        // moment in more runs than its second best did.
        return summarizeByKind(log, 0.0);
    }

    void
    plantFault() override
    {
        for (auto &[name, cycles] : golden_)
            ++cycles;
    }

  private:
    /** Runs app `index`; the app is the op's kind. */
    void
    runOp(size_t index, OpLog &log, Tracer &tracer)
    {
        const App &app = apps_[index];
        alignLikeFreshContext(ctx_->context());
        Tracer::Scope op(tracer, "op", nextOp_++);
        int64_t t0 = nowNs();
        uint64_t cycles0 = ctx_->metrics().cycles;
        bool ok = false;
        std::string why = "wrong verdict";
        try {
            {
                Tracer::Scope s(tracer, "runtime.build");
                ctx_->build(app.source);
            }
            Tracer::Scope s(tracer, "benchsuite.host_cold");
            ok = app.host(*ctx_) && !app.expectInsufficientResources;
        } catch (const rt::OpenClError &e) {
            ok = app.expectInsufficientResources &&
                 e.status() == ClStatus::OutOfResources;
            why = e.what();
        } catch (const std::exception &e) {
            why = e.what();
        }
        uint64_t cycles = ctx_->metrics().cycles - cycles0;
        auto golden = golden_.find(app.name);
        if (ok && golden != golden_.end() && golden->second != cycles) {
            ok = false;
            why = "cycles " + std::to_string(cycles) + " != golden " +
                  std::to_string(golden->second);
        }
        if (!ok)
            std::fprintf(stderr, "suite: %s failed: %s\n", app.name.c_str(),
                         why.c_str());
        log.simCycles += cycles;
        log.record(t0, nowNs(), ok, index);
    }

    uint64_t seed_;
    const std::vector<App> &apps_;
    std::map<std::string, uint64_t> golden_;
    std::unique_ptr<BenchContext> ctx_;
    uint64_t pass_ = 0;
    uint64_t ctxPasses_ = 0; ///< Passes started on the current setup.
    int64_t nextOp_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeSuite(uint64_t seed)
{
    return std::make_unique<Suite>(seed);
}

} // namespace perfbench
