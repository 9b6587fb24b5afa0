/**
 * @file
 * compile: compiler traffic. Each op runs one of the 34 app sources
 * through core::Compiler::compile, then emits Verilog for every kernel
 * at its planned instance count. A seeded quarter of the ops compile a
 * copy truncated inside its last kernel body instead; the unclosed body
 * brace makes CompileError the known verdict.
 */
#include "support/rng.hpp"
#include "verilog/emit.hpp"
#include "workload.hpp"

using namespace soff;

namespace perfbench
{

namespace
{

/** Emits every kernel's RTL; returns a digest of it. */
size_t
emitAll(const core::CompiledProgram &program)
{
    size_t digest = 0;
    for (size_t k = 0; k < program.kernels.size(); ++k) {
        const datapath::KernelPlan &plan = *program.kernels[k].plan;
        int n = plannedInstances(program, k);
        std::string rtl =
            verilog::emitKernel(plan, n) + verilog::emitTop(plan, n);
        digest = digest * 1000003u ^ std::hash<std::string>()(rtl);
    }
    return digest;
}

class Compile : public Workload
{
  public:
    explicit Compile(uint64_t seed) : seed_(seed) {}

    void
    setup(Tracer &tracer) override
    {
        (void)tracer;
        const std::vector<benchsuite::App> &apps = benchsuite::allApps();
        // The reference output of every valid source: later ops must
        // reproduce its RTL exactly.
        for (const benchsuite::App &app : apps)
            expectDigest_.push_back(emitAll(*compiler_.compile(app.source)));
        // One schedule cycle: every app four times, one of them a copy
        // truncated at a seeded point, in seeded order. The cycle's mix
        // is the same for every seed, so seeds compare.
        SplitMix64 rng(seed_);
        std::vector<Op> ops;
        for (size_t i = 0; i < apps.size(); ++i) {
            for (int copy = 0; copy < 4; ++copy) {
                Op op;
                op.app = i;
                if (copy == 0) {
                    op.truncated = true;
                    op.expectCompile = false;
                    op.source = truncateLastKernel(apps[i].source,
                                                   rng.next());
                }
                ops.push_back(std::move(op));
            }
        }
        for (size_t i : seededPermutation(rng.next(), ops.size()))
            schedule_.push_back(ops[i]);
    }

    OpLog
    run(const Budget &budget, Tracer &tracer) override
    {
        OpLog log;
        while (budget.more(log.attempted)) {
            runOp(next_, log, tracer);
            next_ = (next_ + 1) % schedule_.size();
        }
        return log;
    }

    uint64_t cycleOps() const override { return schedule_.size(); }

    Summary
    summary(const OpLog &log) const override
    {
        return summarizeByKind(log, 0.1);
    }

    void
    plantFault() override
    {
        for (Op &op : schedule_)
            op.expectCompile = true;
    }

  private:
    struct Op
    {
        size_t app = 0;
        bool truncated = false;
        bool expectCompile = true; ///< The known verdict.
        std::string source;        ///< Truncated text (empty = app's).
    };

    /** Runs the schedule's op `slot`; the slot is the op's kind. */
    void
    runOp(size_t slot, OpLog &log, Tracer &tracer)
    {
        const Op &op = schedule_[slot];
        const benchsuite::App &app = benchsuite::allApps()[op.app];
        Tracer::Scope s(tracer, "op", nextOp_++);
        int64_t t0 = nowNs();
        bool ok = false;
        try {
            std::unique_ptr<core::CompiledProgram> program;
            {
                Tracer::Scope c(tracer, op.truncated ? "core.reject"
                                                     : "core.compile");
                program = compiler_.compile(op.truncated ? op.source
                                                         : app.source);
            }
            size_t digest;
            {
                Tracer::Scope e(tracer, "verilog.emit");
                digest = emitAll(*program);
            }
            ok = op.expectCompile && digest == expectDigest_[op.app];
        } catch (const CompileError &) {
            ok = !op.expectCompile;
        } catch (const std::exception &) {
            ok = false;
        }
        log.record(t0, nowNs(), ok, slot);
    }

    uint64_t seed_;
    core::Compiler compiler_;
    std::vector<size_t> expectDigest_;
    std::vector<Op> schedule_;
    size_t next_ = 0;
    int64_t nextOp_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeCompile(uint64_t seed)
{
    return std::make_unique<Compile>(seed);
}

} // namespace perfbench
