/**
 * @file
 * The SOFF runtime (paper §III-C1): an OpenCL-style host API over the
 * simulated target platform of Fig. 2.
 *
 * "The runtime is a user-level library that implements OpenCL API
 * functions invoked by the host program. It configures the
 * reconfigurable region with the pre-built bitstream, requests data
 * transfers between the main memory and the FPGA's global memory, and
 * executes kernels on the FPGA" — here against the cycle-level circuit
 * simulator. The Device models the board (global memory + allocator +
 * the argument/trigger/completion/kernel-pointer registers' behavior);
 * Context/Buffer/Program/KernelHandle/CommandQueue mirror the OpenCL
 * host object model.
 *
 * Multi-tenant launch engine (DESIGN.md "Launch concurrency"): a
 * CommandQueue is a real queue object — in-order or out-of-order —
 * whose commands carry event wait lists forming a dependency DAG. A
 * per-context worker pool executes *independent* launches concurrently,
 * each on its own Simulator rearmed from the Program's circuit-template
 * pool; commands retire (complete their events, stamp profiling) in
 * enqueue order per queue, so results, StatsReports, and profiling
 * timestamps are bit-identical to serial in-order execution.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "memsys/global_memory.hpp"
#include "sim/circuit.hpp"
#include "support/error.hpp"

namespace soff::sim
{
struct DeadlockReport;
} // namespace soff::sim

namespace soff::rt
{

/**
 * A RuntimeError carrying the OpenCL status code a real clXxx() call
 * would have returned, plus — for deadlocks and timeouts — the
 * structured DeadlockReport describing who waits on whom.
 */
class OpenClError : public RuntimeError
{
  public:
    OpenClError(ClStatus status, const std::string &message,
                std::shared_ptr<const sim::DeadlockReport> report = nullptr)
        : RuntimeError(message), status_(status), report_(std::move(report))
    {}

    ClStatus status() const { return status_; }
    const char *statusName() const { return clStatusName(status_); }
    /** Non-null only for deadlock/timeout errors. */
    const std::shared_ptr<const sim::DeadlockReport> &report() const
    {
        return report_;
    }

  private:
    ClStatus status_;
    std::shared_ptr<const sim::DeadlockReport> report_;
};

/** Classes of transient runtime faults (injectable via the launch-
 *  visible SOFF_FAULTS knobs; see sim/fault.hpp). */
enum class TransientFaultKind
{
    LaunchAbort,  ///< Injected mid-run launch abort (abortevery).
    DmaTransfer,  ///< Injected DMA transfer failure (dmaevery).
    PoolCheckout, ///< Injected template-pool checkout failure (poolevery).
};

/**
 * A transiently failed command attempt: retry-eligible under the
 * queue's RetryPolicy. Surfaces as SOFF_TRANSIENT_FAULT when the retry
 * budget is exhausted (or no policy is configured).
 */
class TransientFault : public OpenClError
{
  public:
    TransientFault(TransientFaultKind kind, const std::string &message)
        : OpenClError(ClStatus::SoffTransientFault, message), kind_(kind)
    {}

    TransientFaultKind kind() const { return kind_; }

  private:
    TransientFaultKind kind_;
};

/**
 * The simulated accelerator board. Thread-safe: the allocator, DMA
 * engine, and reconfiguration registers are guarded by one board mutex
 * so concurrent launches and transfers never corrupt the block list.
 * (Kernel-side accesses during simulation are *not* serialized against
 * DMA — as on a real board, host transfers overlapping a running
 * kernel's buffers must be ordered through events.)
 */
class Device
{
  public:
    explicit Device(datapath::FpgaSpec fpga = datapath::FpgaSpec::arria10(),
                    uint64_t global_mem_bytes = 256ull << 20);

    memsys::GlobalMemory &globalMemory() { return memory_; }
    const datapath::FpgaSpec &fpga() const { return fpga_; }

    /** Global-memory allocator (§III-C1: "a simple memory allocator"). */
    uint64_t allocate(uint64_t bytes);
    void release(uint64_t addr);

    /** Host->device DMA (serialized against other DMA and alloc). */
    void dmaWrite(uint64_t addr, uint64_t size, const void *src);
    /** Device->host DMA. */
    void dmaRead(uint64_t addr, uint64_t size, void *dst) const;

    /** Partial reconfigurations performed so far (§III-B). */
    int reconfigurations() const;

    /**
     * Atomically makes `kernel` the resident bitstream if it is not
     * already (check-then-reconfigure under the board mutex). A no-op
     * when `all_fit` — every kernel of the program shares the region.
     * Returns true if a partial reconfiguration was performed.
     */
    bool ensureResident(const std::string &kernel, bool all_fit);

    const std::string &residentKernel() const { return resident_; }

  private:
    datapath::FpgaSpec fpga_;
    memsys::GlobalMemory memory_;
    struct Block
    {
        uint64_t addr;
        uint64_t size;
        bool used;
    };
    std::vector<Block> blocks_;
    int reconfigurations_ = 0;
    std::string resident_;
    /** Guards blocks_, reconfigurations_, resident_, and DMA. */
    mutable std::mutex mutex_;
};

/** A device global-memory buffer (cl_mem). */
class Buffer
{
  public:
    Buffer() = default;
    Buffer(uint64_t addr, uint64_t size) : addr_(addr), size_(size) {}

    uint64_t deviceAddress() const { return addr_; }
    uint64_t size() const { return size_; }
    bool valid() const { return addr_ != 0; }

  private:
    uint64_t addr_ = 0;
    uint64_t size_ = 0;
};

/** How enqueueNDRange executes the kernel. */
enum class ExecutionMode
{
    Simulate,  ///< Cycle-level circuit simulation (the real thing).
    Reference, ///< Reference interpreter (fast functional check).
};

/** Result of one kernel execution. */
struct LaunchResult
{
    uint64_t cycles = 0;
    double timeMs = 0.0;
    double fmaxMhz = 0.0;
    int instances = 0;
    bool deadlock = false;
    /** Scheduler-side counters (mode-dependent; not cross-checked). */
    sim::SchedulerStats sched;
    /** Full architectural counter report (null for Reference mode). */
    std::shared_ptr<const sim::StatsReport> statsReport;
};

/** clGetEventProfilingInfo parameter names (values match cl.h). */
enum class ClProfilingInfo : int
{
    CommandQueued = 0x1280, ///< CL_PROFILING_COMMAND_QUEUED
    CommandSubmit = 0x1281, ///< CL_PROFILING_COMMAND_SUBMIT
    CommandStart = 0x1282,  ///< CL_PROFILING_COMMAND_START
    CommandEnd = 0x1283,    ///< CL_PROFILING_COMMAND_END
};

/** clGetEventInfo(CL_EVENT_COMMAND_EXECUTION_STATUS) values (cl.h). */
enum class CommandStatus : int
{
    Complete = 0x0,  ///< CL_COMPLETE
    Running = 0x1,   ///< CL_RUNNING
    Submitted = 0x2, ///< CL_SUBMITTED
    Queued = 0x3,    ///< CL_QUEUED
};

namespace detail
{
struct EventState;
struct Command;
struct CorePlan;
class LaunchEngine;
} // namespace detail

/**
 * An event attached to an enqueued command (cl_event).
 *
 * An Event is a shared handle: copies observe the same underlying
 * command. Queue commands move Queued -> Submitted -> Running ->
 * Complete; completion is observable via status()/wait()/onComplete()
 * and releases every command whose wait list contains the event.
 * User events (Context::createUserEvent) start Submitted and complete
 * only when setComplete() is called — the host-side join primitive.
 *
 * Profiling timestamps are nanoseconds on the simulated device
 * timeline: each queue advances a device clock by every command's
 * simulated duration (cycles through the resource model's fmax
 * estimate) *in enqueue order*, so QUEUED <= SUBMIT <= START <= END
 * always holds, commands tile the per-queue timeline without overlap,
 * and the stamps are bit-identical to serial in-order execution no
 * matter how many launch workers ran the commands.
 */
class Event
{
  public:
    Event() = default;

    /** True once profiling timestamps are available (launch retired). */
    bool valid() const;

    /** clGetEventProfilingInfo: one timestamp in nanoseconds. */
    uint64_t profilingInfo(ClProfilingInfo info) const;

    uint64_t queuedNs() const;
    uint64_t submitNs() const;
    uint64_t startNs() const;
    uint64_t endNs() const;

    /** The launch's StatsReport (null for Reference-mode launches). */
    std::shared_ptr<const sim::StatsReport> stats() const;

    /** clGetEventInfo: the command's execution status. */
    CommandStatus status() const;
    /**
     * The raw cl.h execution-status value: CommandStatus while the
     * command progresses, and the *negative error code* once it has
     * completed with a failure (CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_
     * WAIT_LIST for dependency-skipped commands, the SOFF extension
     * codes for transient faults / cancellation / watchdog trips).
     */
    int executionStatus() const;
    /** True iff the command (or user event) has completed. */
    bool isComplete() const;

    /**
     * clWaitForEvents: blocks until the command completes. Rethrows
     * the command's failure, if any (a failed launch completes its
     * event with the error attached).
     */
    void wait() const;

    /**
     * clSetEventCallback(CL_COMPLETE): runs `fn` when the event
     * completes (immediately, on the calling thread, if it already
     * has). Queue callbacks run on the retiring worker thread, in
     * retirement order — i.e. enqueue order per queue. On either path
     * a throw from `fn` is swallowed and counted in the producing
     * queue's ReliabilityStats::callbackExceptions.
     */
    void onComplete(std::function<void()> fn) const;

    /** User events only: marks the event complete, releasing waiters. */
    void setComplete() const;

    /**
     * Best-effort cancellation. An unstarted command is failed without
     * executing; a running launch is stopped cooperatively at the next
     * cycle boundary; an already-complete event is left untouched (no
     * error). A cancelled command completes its event with
     * SOFF_COMMAND_CANCELLED and fails dependents the same way any
     * failed command does (containment, not silent skipping). On a
     * user event, cancel() completes it with the same error.
     */
    void cancel() const;

    /** True if this handle is attached to any command or user event. */
    bool attached() const { return state_ != nullptr; }

  private:
    friend class Context;
    friend class CommandQueue;
    friend std::shared_ptr<const sim::StatsReport>
    soffGetKernelStats(const Event &event);

    explicit Event(std::shared_ptr<detail::EventState> state)
        : state_(std::move(state))
    {}

    std::shared_ptr<detail::EventState> state_;
};

/**
 * SOFF extension ("soff_kernel_stats"): the per-launch architectural
 * counter report behind an event. Null when the launch ran on the
 * reference interpreter (no circuit, no counters).
 */
std::shared_ptr<const sim::StatsReport>
soffGetKernelStats(const Event &event);

class Program;

/** A kernel object with bound arguments (cl_kernel). */
class KernelHandle
{
  public:
    KernelHandle(Program *program, const core::CompiledKernel *compiled)
        : program_(program), compiled_(compiled)
    {}

    const std::string &name() const;
    size_t numArgs() const;

    void setArg(size_t index, const Buffer &buffer);
    void setArg(size_t index, int32_t v);
    void setArg(size_t index, uint32_t v);
    void setArg(size_t index, int64_t v);
    void setArg(size_t index, uint64_t v);
    void setArg(size_t index, float v);
    void setArg(size_t index, double v);

    const core::CompiledKernel &compiled() const { return *compiled_; }
    Program *program() const { return program_; }
    /** Builds the launch-time argument map; throws if any arg unset. */
    std::map<const ir::Argument *, ir::RtValue> argValues() const;
    /** Device spans of the currently bound buffer arguments (captured
     *  at enqueue time for the retry layer's pristine-memory rerun). */
    std::vector<std::pair<uint64_t, uint64_t>> bufferSpans() const;

  private:
    void checkIndex(size_t index, bool is_buffer) const;

    Program *program_;
    const core::CompiledKernel *compiled_;
    std::map<size_t, ir::RtValue> args_;
    /** (device address, size) of each bound buffer argument. */
    std::map<size_t, std::pair<uint64_t, uint64_t>> bufferArgs_;
};

/** Cross-launch circuit-template pool counters (per Program). */
struct TemplatePoolStats
{
    uint64_t hits = 0;      ///< Checkout served from a parked template.
    uint64_t misses = 0;    ///< Cold: the key had never been built.
    uint64_t steals = 0;    ///< Key known but every template checked out
                            ///< by a concurrent launch (duplicate built).
    uint64_t returns = 0;   ///< Templates parked back after a run.
};

/** A built OpenCL program (cl_program; offline compilation §III-C). */
class Program
{
  public:
    Program(Device &device, std::unique_ptr<core::CompiledProgram> compiled)
        : device_(&device), compiled_(std::move(compiled))
    {}
    // Movable (fresh mutex): moving a Program under concurrent launch
    // is a user error, as for every cl_ handle type.
    Program(Program &&other) noexcept
        : device_(other.device_), compiled_(std::move(other.compiled_)),
          circuitPool_(std::move(other.circuitPool_)),
          poolStats_(other.poolStats_)
    {}
    Program &operator=(Program &&other) noexcept
    {
        device_ = other.device_;
        compiled_ = std::move(other.compiled_);
        circuitPool_ = std::move(other.circuitPool_);
        poolStats_ = other.poolStats_;
        return *this;
    }

    KernelHandle createKernel(const std::string &name);
    const core::CompiledProgram &compiled() const { return *compiled_; }
    Device &device() { return *device_; }

    /** Instance count used when launching this kernel (§III-B/C). */
    int instancesFor(const core::CompiledKernel &kernel) const;
    /** True if launching this kernel requires partial reconfiguration. */
    bool needsReconfiguration(const core::CompiledKernel &kernel) const;

    /** Parked circuit templates (tests observe pool behavior). */
    size_t circuitCacheSize() const;
    /** Cross-launch template-pool counters. */
    TemplatePoolStats templatePoolStats() const;

  private:
    friend class Context;
    friend struct detail::Command;

    /**
     * Circuit-template pool. Building a KernelCircuit walks the whole
     * plan tree and allocates the component/channel arena; in a launch
     * loop (the common host pattern) that dominates small-kernel
     * runtimes. A circuit whose structure is fully determined by
     * (plan, instance count, structural platform knobs) is parked here
     * after a successful run and rearmed via KernelCircuit::relaunch()
     * on the next matching launch — bit-identical to a cold build.
     *
     * Concurrent launches of the same kernel each need a template of
     * their own, so every key parks each template returned to it
     * (checkout/return under the pool mutex) and checkout pops the
     * most recently returned one (warm caches of the host's working
     * set). A checkout that finds a known key empty because all of its
     * templates are out with concurrent launches counts as a *steal* —
     * the launch builds a duplicate that grows the pool when returned.
     * A template is built only then, so a key never holds more
     * templates than the number of its launches that ever ran at once:
     * the host's own concurrency bounds the pool, and nothing is
     * evicted.
     *
     * The pool lives in the Program — not the Context — because a
     * parked circuit holds raw pointers into the plan's IR, which this
     * Program owns: parking it anywhere that can outlive the Program
     * would dangle. Launches with fault injection, tracing, or
     * cross-check bypass the pool.
     */
    struct PoolKey
    {
        PoolKey() = default;
        PoolKey(PoolKey &&) = default;
        PoolKey &operator=(PoolKey &&) = default;

        const datapath::KernelPlan *plan = nullptr;
        int instances = 0;
        sim::PlatformConfig platform;
        /** Parked templates, most recently returned last. */
        std::vector<std::unique_ptr<sim::KernelCircuit>> parked;
    };

    /** Checks a matching template out of the pool (null on miss/steal). */
    std::unique_ptr<sim::KernelCircuit>
    takeCachedCircuit(const datapath::KernelPlan *plan, int instances,
                      const sim::PlatformConfig &platform);
    /** Parks a template back in the pool. */
    void storeCachedCircuit(const datapath::KernelPlan *plan,
                            int instances,
                            const sim::PlatformConfig &platform,
                            std::unique_ptr<sim::KernelCircuit> circuit);

    Device *device_;
    std::unique_ptr<core::CompiledProgram> compiled_;
    std::vector<PoolKey> circuitPool_;
    TemplatePoolStats poolStats_;
    mutable std::mutex poolMutex_;
};

/**
 * Per-queue retry policy for *transiently* failed commands (injected
 * launch aborts, DMA faults, pool-checkout faults, scheduler-internal
 * errors). Deadlocks, watchdog timeouts, and validation errors are
 * permanent and never retried. Retries re-run the command on pristine
 * memory: an NDRange launch snapshots its buffer-argument spans before
 * the first attempt and restores them before each retry, then rebuilds
 * or re-checks-out a circuit from the template pool. Backoff is
 * *simulated* time — retry k (1-based) adds 4 µs << (k-1) to the
 * command's device-timeline duration; no wall-clock sleeping — so
 * profiling stamps stay deterministic for a fixed fault seed.
 */
struct RetryPolicy
{
    /** Max re-execution attempts after the first failure. */
    int attempts = 0;
};

/** Per-queue reliability counters (CommandQueue::reliabilityStats). */
struct ReliabilityStats
{
    uint64_t retired = 0;         ///< Commands retired, any outcome.
    uint64_t failed = 0;          ///< Retired with an error attached.
    uint64_t depSkipped = 0;      ///< Failed: wait-list dependency failed.
    uint64_t cancelled = 0;       ///< Failed: cancel() / cancelAll().
    uint64_t watchdogTrips = 0;   ///< Failed: watchdog budget expired.
    uint64_t retries = 0;         ///< Re-execution attempts performed.
    uint64_t faultsInjected = 0;  ///< Transient faults observed.
    uint64_t faultsRetriedAway = 0; ///< ... on ultimately-successful cmds.
    uint64_t faultsSurfaced = 0;  ///< ... on commands that retired failed.
    uint64_t callbackExceptions = 0; ///< User callbacks that threw.
};

/** Context-wide injected-fault counters (Context::injectedFaults):
 *  ground truth for the soak harness's accounting invariant —
 *  total() must equal faultsRetriedAway + faultsSurfaced summed over
 *  every queue of the context. */
struct InjectedFaultCounters
{
    uint64_t launchAborts = 0;
    uint64_t dmaTransfers = 0;
    uint64_t poolCheckouts = 0;

    uint64_t total() const
    {
        return launchAborts + dmaTransfers + poolCheckouts;
    }
};

/** CommandQueue creation options (clCreateCommandQueue properties). */
struct QueueOptions
{
    /**
     * CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE: commands run as soon as
     * their wait lists resolve, on any launch worker. In-order queues
     * chain every command onto its predecessor instead. Either way
     * commands *retire* in enqueue order (deterministic completion and
     * profiling).
     */
    bool outOfOrder = false;
    /**
     * Launch workers for this context's engine (first queue wins; 0 =
     * hardware_concurrency).
     */
    int workers = 0;
    /**
     * Admission bound: enqueue blocks while this many commands of the
     * whole context are in flight (0 = 4x workers, min 16).
     */
    int maxInFlight = 0;
    /**
     * Watchdog: per-launch cycle budget. A launch still running after
     * this many simulated cycles is aborted cooperatively at a cycle
     * boundary and fails with SOFF_LAUNCH_TIMEOUT plus DeadlockReport
     * forensics naming the stalled components. 0 = no watchdog: the
     * generous NDRange-derived heuristic cap applies and a trip
     * surfaces as CL_OUT_OF_RESOURCES.
     */
    uint64_t launchTimeoutCycles = 0;
    /** Retry policy for transiently failed commands. */
    RetryPolicy retry;
    /**
     * Runtime-level fault injection for this queue's commands: DMA
     * commands consult it directly, and NDRange launches whose
     * PlatformConfig carries no fault config inherit it. Unset (the
     * default) falls back to SOFF_FAULTS.
     */
    sim::FaultConfig faults;
};

class Context;

/**
 * A real command queue (cl_command_queue). Enqueue entry points
 * validate eagerly (NDRange shape, unset args, wait-list attachment)
 * on the calling thread, then hand the command to the context's launch
 * engine; execution is asynchronous. `finish()` (or Event::wait) joins.
 */
class CommandQueue
{
  public:
    CommandQueue(Context &context, QueueOptions options = {});
    ~CommandQueue();
    CommandQueue(const CommandQueue &) = delete;
    CommandQueue &operator=(const CommandQueue &) = delete;

    /**
     * Enqueues a kernel launch. The wait list may contain events from
     * any queue of the process plus user events; every entry must be
     * attached (CL_INVALID_EVENT_WAIT_LIST otherwise — the only way a
     * dependency cycle could be expressed is waiting on an event no
     * enqueued command produces, and that is exactly an unattached
     * event). Arguments are captured at enqueue time; the handle may
     * be re-bound immediately after.
     */
    void enqueueNDRange(KernelHandle &kernel, const sim::NDRange &ndrange,
                        const std::vector<Event> &wait_list = {},
                        Event *event = nullptr,
                        ExecutionMode mode = ExecutionMode::Simulate,
                        const sim::PlatformConfig &platform = {},
                        int instance_override = 0);

    /** Host->device DMA as a queued command (`src` must stay alive). */
    void enqueueWrite(const Buffer &buffer, const void *src,
                      uint64_t size,
                      const std::vector<Event> &wait_list = {},
                      Event *event = nullptr);
    /** Device->host DMA as a queued command (`dst` must stay alive). */
    void enqueueRead(const Buffer &buffer, void *dst, uint64_t size,
                     const std::vector<Event> &wait_list = {},
                     Event *event = nullptr);

    /** clFinish: blocks until every enqueued command has retired.
     *  Rethrows the first failed command's error, if any. */
    void finish();

    /**
     * Cancels every enqueued-but-unretired command of this queue
     * (best-effort, see Event::cancel) and waits for the queue to
     * drain. Unlike finish() it does not rethrow — teardown wants
     * "stop everything" to succeed even on a queue full of failures.
     */
    void cancelAll();

    /** Per-queue reliability counters (snapshot). */
    ReliabilityStats reliabilityStats() const;

    bool outOfOrder() const { return options_.outOfOrder; }
    Context &context() { return context_; }

  private:
    friend struct detail::Command;
    friend class detail::LaunchEngine;

    void enqueueCommand(std::shared_ptr<detail::Command> cmd,
                        const std::vector<Event> &wait_list,
                        Event *event);
    /** Resolves the queue's retry policy and a DMA command's fault
     *  plan on the enqueue thread (strict SOFF_FAULTS parsing). */
    void resolveReliability(detail::Command &cmd);
    /** Marks `cmd` executed; retires every consecutive executed
     *  command in enqueue order (profiling stamp + event completion). */
    void retire(detail::Command *cmd);

    Context &context_;
    QueueOptions options_;
    detail::LaunchEngine *engine_;

    mutable std::mutex mutex_;
    std::condition_variable drained_;
    /** Enqueued-but-unretired commands, in enqueue order. */
    std::deque<std::shared_ptr<detail::Command>> pending_;
    /** A worker is inside the retirement loop (its commands may be
     *  popped from pending_ but not yet completed/released); finish()
     *  treats the queue as drained only when this is false too. */
    bool retiring_ = false;
    /** Implicit in-order chaining: the previous command's event. */
    std::shared_ptr<detail::EventState> lastEvent_;
    uint64_t nextSeq_ = 0;
    /** In-order device timeline for event profiling (ns). */
    uint64_t clockNs_ = 0;
    std::exception_ptr firstError_;
    /** Reliability counters, folded in at retirement (under mutex_). */
    ReliabilityStats rstats_;
    /** Swallowed user-callback exceptions (any thread); shared with
     *  this queue's events, which may outlive it. */
    std::shared_ptr<std::atomic<uint64_t>> callbackExceptions_ =
        std::make_shared<std::atomic<uint64_t>>(0);
};

/** The context (simplified cl_context) plus a serial in-order enqueue
 *  path kept for single-launch hosts (Context::enqueueNDRange). */
class Context
{
  public:
    explicit Context(datapath::FpgaSpec fpga = datapath::FpgaSpec::arria10(),
                     uint64_t global_mem_bytes = 256ull << 20);
    ~Context();

    Device &device() { return device_; }

    Buffer createBuffer(uint64_t size);
    void releaseBuffer(Buffer &buffer);
    /** Host->device DMA (paper §III-A); immediate, not queued. */
    void writeBuffer(const Buffer &buffer, const void *src, uint64_t size);
    /** Device->host DMA; immediate, not queued. */
    void readBuffer(const Buffer &buffer, void *dst, uint64_t size);

    /** Compiles a program for this device (offline compilation). */
    Program buildProgram(const std::string &source,
                         const core::CompilerOptions &options = {});

    /** clCreateUserEvent: host-completed event (see Event). */
    Event createUserEvent();

    /**
     * Executes a kernel over an NDRange, synchronously, on the calling
     * thread (the legacy in-order path — CommandQueue is the
     * multi-tenant one). `instance_override` forces a specific
     * datapath instance count (0 = the resource model's maximum, the
     * paper's default behavior) — used by the instance-scaling
     * ablation bench. When `event` is non-null it is filled with the
     * launch's profiling timestamps and StatsReport.
     */
    LaunchResult enqueueNDRange(
        KernelHandle &kernel, const sim::NDRange &ndrange,
        ExecutionMode mode = ExecutionMode::Simulate,
        const sim::PlatformConfig &platform = {},
        int instance_override = 0, Event *event = nullptr);

    /** Context-wide injected-fault ground truth (see the struct). */
    InjectedFaultCounters injectedFaults() const;

  private:
    friend class CommandQueue;
    friend struct detail::Command;
    friend class detail::LaunchEngine;

    /**
     * The scheduler-independent core of a launch: env resolution has
     * already happened (enqueue thread); this runs the circuit (or
     * interpreter), consults the template pool, and returns the result
     * plus the command's duration on the device timeline. Thread-safe;
     * called concurrently by launch workers.
     */
    LaunchResult runLaunchCore(const detail::CorePlan &plan,
                               uint64_t *duration_ns,
                               const std::atomic<bool> *cancel = nullptr);
    /** Resolves env/platform/instances on the enqueue thread. */
    detail::CorePlan resolveLaunch(KernelHandle &kernel,
                                   const sim::NDRange &ndrange,
                                   ExecutionMode mode,
                                   const sim::PlatformConfig &platform,
                                   int instance_override);

    /** Lazily created launch worker pool shared by all queues. */
    detail::LaunchEngine &engine(const QueueOptions &options);

    /** Next command enqueue ordinal: the deterministic key for the
     *  launch-visible fault classes (assigned on the enqueue thread,
     *  so independent of worker count and execution interleaving). */
    uint64_t nextCommandOrdinal() { return cmdOrdinal_.fetch_add(1); }

    Device device_;
    /** In-order device timeline of the legacy serial path (ns). */
    uint64_t clockNs_ = 0;
    std::unique_ptr<detail::LaunchEngine> engine_;
    std::mutex engineMutex_;
    std::atomic<uint64_t> cmdOrdinal_{0};
    // Injected-fault ground truth, bumped at the injection sites.
    std::atomic<uint64_t> injLaunchAborts_{0};
    std::atomic<uint64_t> injDmaFaults_{0};
    std::atomic<uint64_t> injPoolFaults_{0};
};

} // namespace soff::rt
