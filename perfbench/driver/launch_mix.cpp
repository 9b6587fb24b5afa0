/**
 * @file
 * launch_mix: multi-tenant runtime traffic. Write->launch->read chains
 * of the 54 small-kernel variants over two out-of-order queues served
 * by one launch worker, with a fixed window of outstanding chains
 * (closed loop: a slot takes its next chain only after the previous
 * one's read completed). An op runs from a chain's first enqueue to its
 * read completing; its bytes must equal the interpreter oracle.
 */
#include <atomic>
#include <optional>
#include <thread>

#include "launch_kernels.hpp"
#include "support/rng.hpp"
#include "workload.hpp"

using namespace soff;
using namespace soff::rt;

namespace perfbench
{

const char *const kLaunchKernels = R"CL(
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

const char *const kLaunchAppNames[kLaunchApps] = {
    "vadd", "saxpy", "smooth", "histo", "stencil", "reduce"};

uint64_t
Variant::outBytes() const
{
    if (app == 3)
        return 16 * 4; // histogram bins
    if (app == 5)
        return n / local * 4; // one sum per group
    return n * 4;
}

std::vector<Variant>
makeVariants()
{
    std::vector<Variant> variants;
    const uint32_t sizes[3] = {16, 32, 64};
    int id = 0;
    for (int app = 0; app < kLaunchApps; ++app) {
        for (uint32_t n : sizes) {
            for (int32_t s = 1; s <= 3; ++s) {
                Variant v;
                v.app = app;
                v.n = n;
                if (app == 2) {
                    v.local = 16;
                    v.scalar = s;
                } else if (app == 5) {
                    v.local = n >= 32 ? 32 : 16;
                    v.scalar = static_cast<int32_t>(v.local);
                } else {
                    v.local = n >= 32 ? 16 : 8;
                    v.scalar = s;
                }
                v.id = id++;
                variants.push_back(v);
            }
        }
    }
    return variants;
}

std::vector<VariantInputs>
makeInputs(const std::vector<Variant> &variants)
{
    std::vector<VariantInputs> inputs(variants.size());
    for (const Variant &v : variants) {
        VariantInputs &in = inputs[static_cast<size_t>(v.id)];
        uint32_t id = static_cast<uint32_t>(v.id);
        for (uint32_t i = 0; i < v.n; ++i) {
            in.a.push_back(static_cast<float>((id * 7 + i) % 13) * 0.5f);
            in.b.push_back(static_cast<float>((id * 3 + i) % 9) * 0.25f);
        }
        if (v.app == 3) {
            for (uint32_t i = 0; i < v.n; ++i)
                in.ints.push_back(static_cast<int32_t>((id * 7 + i) % 13));
            in.zeros.assign(16, 0);
        }
    }
    return inputs;
}

sim::NDRange
bindVariant(const Variant &v, KernelHandle &kernel, const Buffer &in0,
            const Buffer &in1, const Buffer &out)
{
    kernel.setArg(0, in0);
    switch (v.app) {
      case 0:
        kernel.setArg(1, in1);
        kernel.setArg(2, out);
        break;
      case 1:
        kernel.setArg(1, out);
        kernel.setArg(2, static_cast<float>(v.scalar));
        break;
      case 3:
        kernel.setArg(1, out);
        break;
      case 4:
        kernel.setArg(1, out);
        kernel.setArg(2, static_cast<int32_t>(v.n));
        break;
      default: // smooth / reduce
        kernel.setArg(1, out);
        kernel.setArg(2, v.scalar);
        break;
    }
    sim::NDRange nd;
    nd.globalSize[0] = v.n;
    nd.localSize[0] = v.local;
    return nd;
}

namespace
{

/** (buffer, data, bytes) of each input write a variant needs. */
struct InputWrite
{
    const Buffer *buffer;
    const void *data;
    uint64_t bytes;
};

std::vector<InputWrite>
inputWrites(const Variant &v, const VariantInputs &in, const Buffer &in0,
            const Buffer &in1, const Buffer &out)
{
    uint64_t n = v.n * 4;
    switch (v.app) {
      case 0: return {{&in0, in.a.data(), n}, {&in1, in.b.data(), n}};
      case 1: return {{&in0, in.a.data(), n}, {&out, in.b.data(), n}};
      case 3:
        return {{&in0, in.ints.data(), n}, {&out, in.zeros.data(), 64}};
      default: return {{&in0, in.a.data(), n}};
    }
}

} // namespace

void
writeInputs(Context &ctx, const Variant &v, const VariantInputs &in,
            const Buffer &in0, const Buffer &in1, const Buffer &out)
{
    for (const InputWrite &w : inputWrites(v, in, in0, in1, out))
        ctx.writeBuffer(*w.buffer, w.data, w.bytes);
}

namespace
{

constexpr size_t kWindow = 16; ///< Outstanding chains (closed loop).
/// Launch workers; +1 enqueuing thread. With 2, throughput jumped ~40%
/// for seconds at a time whenever the shared host left the threads a
/// core each, so runs of the same code disagreed by more than the bound.
constexpr int kWorkers = 1;

class LaunchMix : public Workload
{
  public:
    explicit LaunchMix(uint64_t seed) : rng_(seed) {}

    ~LaunchMix() override
    {
        // Drain before the queues, program and buffers go away.
        for (Slot &slot : slots_) {
            if (slot.busy) {
                try {
                    slot.read.wait();
                } catch (...) {
                }
            }
        }
    }

    void
    setup(Tracer &tracer) override
    {
        variants_ = makeVariants();
        inputs_ = makeInputs(variants_);
        makeOracles(tracer);
        {
            Tracer::Scope s(tracer, "runtime.context_open");
            ctx_ = std::make_unique<Context>();
        }
        {
            Tracer::Scope s(tracer, "runtime.build");
            program_.emplace(ctx_->buildProgram(kLaunchKernels));
        }
        for (const char *name : kLaunchAppNames)
            kernels_.push_back(program_->createKernel(name));
        slots_ = std::vector<Slot>(kWindow);
        for (Slot &slot : slots_) {
            slot.in0 = ctx_->createBuffer(kSlotBytes);
            slot.in1 = ctx_->createBuffer(kSlotBytes);
            slot.out = ctx_->createBuffer(kSlotBytes);
        }
        QueueOptions options;
        options.outOfOrder = true;
        options.workers = kWorkers;
        queues_[0] = std::make_unique<CommandQueue>(*ctx_, options);
        queues_[1] = std::make_unique<CommandQueue>(*ctx_, options);
    }

    OpLog
    run(const Budget &budget, Tracer &tracer) override
    {
        OpLog log;
        TemplatePoolStats pool0 = program_->templatePoolStats();
        uint64_t failed0 = commandsFailed();
        uint64_t issued = 0;
        size_t busy = 0;
        for (size_t next = 0;; next = (next + 1) % kWindow) {
            Slot &slot = slots_[next];
            if (slot.busy) {
                complete(slot, log, tracer);
                --busy;
            }
            if (budget.more(issued)) {
                issue(slot, tracer);
                ++issued;
                ++busy;
            } else if (busy == 0) {
                break;
            }
        }
        TemplatePoolStats pool = program_->templatePoolStats();
        tracer.count("runtime.pool_hits",
                     static_cast<double>(pool.hits - pool0.hits));
        tracer.count("runtime.pool_misses",
                     static_cast<double>(pool.misses - pool0.misses));
        tracer.count("runtime.pool_steals",
                     static_cast<double>(pool.steals - pool0.steals));
        tracer.count("runtime.commands_failed",
                     static_cast<double>(commandsFailed() - failed0));
        return log;
    }

    uint64_t cycleOps() const override { return 5 * variants_.size(); }

    Summary
    summary(const OpLog &log) const override
    {
        return summarize(log, cycleOps());
    }

    void
    plantFault() override
    {
        for (std::vector<uint8_t> &bytes : oracles_)
            bytes[0] ^= 1;
    }

  private:
    struct Slot
    {
        Buffer in0, in1, out;
        bool busy = false;
        int variant = 0;
        int64_t op = 0;
        int64_t startNs = 0;
        std::atomic<int64_t> doneNs{0};
        Event launched;
        Event read;
        std::vector<uint8_t> result;
    };

    void
    makeOracles(Tracer &tracer)
    {
        // Reference interpreter in a side context: independent memory,
        // no circuits.
        std::unique_ptr<Context> ctx;
        {
            Tracer::Scope s(tracer, "runtime.context_open");
            ctx = std::make_unique<Context>();
        }
        std::optional<Program> program;
        {
            Tracer::Scope s(tracer, "runtime.build");
            program.emplace(ctx->buildProgram(kLaunchKernels));
        }
        Buffer in0 = ctx->createBuffer(kSlotBytes);
        Buffer in1 = ctx->createBuffer(kSlotBytes);
        Buffer out = ctx->createBuffer(kSlotBytes);
        oracles_.assign(variants_.size(), {});
        for (const Variant &v : variants_) {
            Tracer::Scope s(tracer, "baseline.oracle");
            const VariantInputs &in = inputs_[static_cast<size_t>(v.id)];
            writeInputs(*ctx, v, in, in0, in1, out);
            KernelHandle kernel =
                program->createKernel(kLaunchAppNames[v.app]);
            sim::NDRange nd = bindVariant(v, kernel, in0, in1, out);
            ctx->enqueueNDRange(kernel, nd, ExecutionMode::Reference);
            std::vector<uint8_t> &bytes =
                oracles_[static_cast<size_t>(v.id)];
            bytes.resize(v.outBytes());
            ctx->readBuffer(out, bytes.data(), bytes.size());
        }
    }

    uint64_t
    commandsFailed() const
    {
        return queues_[0]->reliabilityStats().failed +
               queues_[1]->reliabilityStats().failed;
    }

    void
    issue(Slot &slot, Tracer &tracer)
    {
        // Each cycle runs every variant five times in seeded order, so the
        // mix is the same for every seed.
        if (cyclePos_ == cycle_.size()) {
            cycle_ = seededPermutation(rng_.next(), cycleOps());
            cyclePos_ = 0;
        }
        slot.variant =
            static_cast<int>(cycle_[cyclePos_++] % variants_.size());
        const Variant &v = variants_[static_cast<size_t>(slot.variant)];
        const VariantInputs &in = inputs_[static_cast<size_t>(v.id)];
        slot.op = nextOp_++;
        slot.busy = true;
        slot.doneNs.store(0, std::memory_order_relaxed);
        slot.result.assign(v.outBytes(), 0);
        CommandQueue &queue = *queues_[slot.op % 2];
        KernelHandle &kernel = kernels_[static_cast<size_t>(v.app)];
        slot.startNs = nowNs();
        {
            Tracer::Scope s(tracer, "runtime.enqueue", slot.op);
            std::vector<Event> inputs_done;
            for (const InputWrite &w :
                 inputWrites(v, in, slot.in0, slot.in1, slot.out)) {
                Event done;
                queue.enqueueWrite(*w.buffer, w.data, w.bytes, {}, &done);
                inputs_done.push_back(done);
            }
            sim::NDRange nd =
                bindVariant(v, kernel, slot.in0, slot.in1, slot.out);
            queue.enqueueNDRange(kernel, nd, inputs_done, &slot.launched);
            queue.enqueueRead(slot.out, slot.result.data(),
                              slot.result.size(), {slot.launched},
                              &slot.read);
        }
        Slot *p = &slot;
        slot.read.onComplete([p] {
            p->doneNs.store(nowNs(), std::memory_order_release);
        });
    }

    /** Waits for a slot's chain and checks it. */
    void
    complete(Slot &slot, OpLog &log, Tracer &tracer)
    {
        bool ok = true;
        {
            Tracer::Scope s(tracer, "runtime.wait", slot.op);
            try {
                slot.read.wait();
            } catch (const std::exception &) {
                ok = false;
            }
        }
        // The completion callback runs just after waiters are woken.
        int64_t done = 0;
        while ((done = slot.doneNs.load(std::memory_order_acquire)) == 0)
            std::this_thread::yield();
        ok = ok && slot.result == oracles_[static_cast<size_t>(slot.variant)];
        if (std::shared_ptr<const sim::StatsReport> st =
                slot.launched.stats())
            log.simCycles += st->cycles;
        else
            ok = false;
        slot.busy = false;
        log.record(slot.startNs, done, ok);
    }

    SplitMix64 rng_;
    std::vector<size_t> cycle_;
    size_t cyclePos_ = 0;
    int64_t nextOp_ = 0;
    std::vector<Variant> variants_;
    std::vector<VariantInputs> inputs_;
    std::vector<std::vector<uint8_t>> oracles_;
    // Declaration order is teardown order in reverse: queues go first,
    // then the slots' events, kernels, program and context.
    std::unique_ptr<Context> ctx_;
    std::optional<Program> program_;
    std::vector<KernelHandle> kernels_;
    std::vector<Slot> slots_;
    std::unique_ptr<CommandQueue> queues_[2];
};

} // namespace

std::unique_ptr<Workload>
makeLaunchMix(uint64_t seed)
{
    return std::make_unique<LaunchMix>(seed);
}

} // namespace perfbench
