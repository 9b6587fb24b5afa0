/**
 * @file
 * Internals of the multi-tenant launch engine, shared by runtime.cpp
 * (the launch core and the legacy serial path) and queue.cpp (command
 * queues, events, the worker pool). Not installed; everything here is
 * an implementation detail behind the runtime.hpp API.
 *
 * Lifecycle of a queued command:
 *
 *   enqueue (user thread)   validate + resolve env -> CorePlan; admit
 *                           against the in-flight bound; append to the
 *                           queue's pending deque; register on every
 *                           wait-list event (the dependency DAG).
 *   release                 the last wait-list event completing (or an
 *                           empty wait list) submits the command to the
 *                           engine's ready queue.          [Submitted]
 *   execute (worker)        run the simulation / DMA.        [Running]
 *   retire (worker)         the command's queue retires every leading
 *                           executed command *in enqueue order*:
 *                           profiling is stamped off the per-queue
 *                           device clock, the event completes,
 *                           callbacks fire, dependents are released.
 *                                                           [Complete]
 *
 * Retiring in enqueue order makes completion order — and therefore
 * profiling timestamps, callback order, and admission releases —
 * deterministic and identical to serial in-order execution, while the
 * *execution* of independent commands overlaps freely across workers.
 */
#pragma once

#include <atomic>
#include <thread>

#include "runtime/runtime.hpp"

namespace soff::rt::detail
{

/** Fixed queued->submit latency on the profiling timeline (ns). */
constexpr uint64_t kSubmitOverheadNs = 500;

/** Simulated backoff before retry k (1-based): kRetryBackoffNs << (k-1)
 *  on the profiling timeline (ns). */
constexpr uint64_t kRetryBackoffNs = 4000;

/**
 * A fully resolved launch: everything Context::runLaunchCore needs,
 * with every getenv() and validation already performed on the enqueue
 * thread (workers must not observe env mutations, and enqueue-time
 * errors must throw synchronously).
 */
struct CorePlan
{
    Program *program = nullptr;
    const core::CompiledKernel *ck = nullptr;
    sim::LaunchContext launch;
    ExecutionMode mode = ExecutionMode::Simulate;
    sim::PlatformConfig plat;
    int instances = 0;
    uint64_t maxCycles = 0;
    bool crosscheck = false;
    bool cacheable = false;
    /** Every kernel of the program fits the region together (§III-B). */
    bool allFit = false;

    // -- Reliability layer ------------------------------------------
    /** Watchdog cycle budget (QueueOptions::launchTimeoutCycles);
     *  0 = heuristic maxCycles cap only. */
    uint64_t timeoutCycles = 0;
    /** Enqueue ordinal: the launch-visible fault key (deterministic
     *  across worker counts — assigned on the enqueue thread). */
    uint64_t ordinal = 0;
    /** 0 on the first execution, k on the k-th retry; part of the
     *  fault key so retries re-roll. */
    int attempt = 0;
    /** Device spans of the buffer arguments (pristine-memory rerun). */
    std::vector<std::pair<uint64_t, uint64_t>> bufferSpans;
};

/** Shared state behind an Event handle (and a user event). */
struct EventState
{
    mutable std::mutex m;
    std::condition_variable cv;
    CommandStatus status = CommandStatus::Queued;
    bool userEvent = false;
    bool failed = false;
    /** Profiling timestamps stamped (command retired + profileable). */
    bool profiled = false;
    uint64_t queuedNs = 0;
    uint64_t submitNs = 0;
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    std::shared_ptr<const sim::StatsReport> stats;
    std::exception_ptr error;
    /** The error's ClStatus, captured at completion so
     *  Event::executionStatus() needs no rethrow. */
    ClStatus errStatus = ClStatus::Success;
    std::vector<std::function<void()>> callbacks;
    /** Commands whose wait lists contain this event (DAG out-edges). */
    std::vector<std::shared_ptr<Command>> dependents;
    /** The producing command (cancellation reaches it through the
     *  event handle); empty for user events. */
    std::weak_ptr<Command> command;
    /** The producing queue's swallowed-callback counter; null for
     *  user events. Shared, so a callback registered after the queue
     *  is gone still counts somewhere valid. */
    std::shared_ptr<std::atomic<uint64_t>> callbackExceptions;
};

/** One enqueued command (launch or DMA transfer). */
struct Command
{
    enum class Kind
    {
        NDRange,
        Write,
        Read,
    };

    Kind kind = Kind::NDRange;
    CommandQueue *queue = nullptr;
    uint64_t seq = 0;

    /** NDRange payload. */
    CorePlan plan;
    /** DMA payload. */
    uint64_t addr = 0;
    uint64_t size = 0;
    const void *src = nullptr;
    void *dst = nullptr;

    std::shared_ptr<EventState> event;
    /**
     * Unresolved wait-list entries plus one enqueue guard; the
     * decrement that reaches zero submits the command to the engine.
     */
    std::atomic<int> remainingDeps{1};
    /** A wait-list dependency completed with an error. */
    std::atomic<bool> depFailed{false};
    /** Exactly-once submission guard: set by the dependency release
     *  that wins, or by a cancel() force-submitting a gated command so
     *  it drains (as a failure) instead of waiting forever. */
    std::atomic<bool> submitted{false};

    // -- Reliability ------------------------------------------------
    /** Retry budget resolved on the enqueue thread. */
    int retryAttempts = 0;
    /** Launch-visible fault plan for DMA commands (NDRange launches
     *  carry theirs inside plan.plat.faults). */
    sim::FaultPlan dmaFaults;
    /** Enqueue ordinal for DMA fault keying (launches use plan.ordinal). */
    uint64_t ordinal = 0;
    /** Cancellation: flag polled by the simulator at cycle boundaries
     *  (heap-allocated so Event::cancel can latch it race-free). */
    std::shared_ptr<std::atomic<bool>> cancel =
        std::make_shared<std::atomic<bool>>(false);

    // Execution outcome (written by the worker, read at retirement
    // under the queue mutex; the executed flag orders the hand-off).
    bool executed = false;
    bool profileable = false;
    uint64_t durationNs = 0;
    std::exception_ptr error;
    /** The error's status (mirrors EventState::errStatus). */
    ClStatus errStatus = ClStatus::Success;
    /** Re-execution attempts actually performed. */
    int retriesUsed = 0;
    /** Transient faults observed across all attempts. */
    uint64_t transientFaults = 0;

    /** Runs the payload and retires through the owning queue. */
    void execute(Context &ctx);
};

/**
 * The per-context launch worker pool plus the admission valve: a plain
 * bounded task pool that schedules whole independent launches (each
 * simulation itself runs on the one worker that picked it up).
 */
class LaunchEngine
{
  public:
    LaunchEngine(Context &ctx, int workers, int max_in_flight);
    ~LaunchEngine();
    LaunchEngine(const LaunchEngine &) = delete;
    LaunchEngine &operator=(const LaunchEngine &) = delete;

    int workers() const { return static_cast<int>(workers_.size()); }
    int maxInFlight() const { return maxInFlight_; }

    /**
     * Admission/backpressure: blocks the enqueuing thread until the
     * in-flight count (enqueued, not yet retired) is under the bound,
     * then claims a slot. Workers never block here, so admission can
     * not deadlock the pool itself (it can, as in OpenCL, deadlock a
     * host that gates earlier commands on later host actions).
     */
    void admitOne();
    /** Releases an admission slot (command retired). */
    void releaseOne();

    /** Hands a dependency-free command to the workers.  [Submitted] */
    void submit(std::shared_ptr<Command> cmd);

    /**
     * Completes an event: status, error, callbacks, cv broadcast, and
     * the DAG release — every dependent whose remaining-dependency
     * count reaches zero is submitted to its own queue's engine.
     * The already-complete check happens atomically with the
     * transition; returns true (and does nothing else) when the event
     * was already Complete, so racing completers resolve to exactly
     * one winner. Static so user events (which belong to no engine)
     * share it.
     */
    static bool completeEvent(const std::shared_ptr<EventState> &state,
                              std::exception_ptr error);

    /**
     * Runs one user callback. A throw is swallowed and counted in
     * `exceptions` (when non-null): a host bug in a callback must not
     * kill the retirer that runs it, nor escape onComplete().
     */
    static void runCallback(const std::function<void()> &fn,
                            std::atomic<uint64_t> *exceptions);

    /**
     * Registers `cmd` on its wait list and releases the enqueue guard;
     * submits immediately when every dependency is already complete.
     */
    static void resolveDependencies(
        const std::shared_ptr<Command> &cmd,
        const std::vector<std::shared_ptr<EventState>> &waits);

    /**
     * Best-effort cancellation of one command (Event::cancel,
     * CommandQueue::cancelAll): latches the cancel flag (a running
     * launch stops at the next cycle boundary) and force-submits a
     * still-gated command so it drains as a failure instead of
     * waiting on dependencies that may never resolve.
     */
    static void cancelCommand(const std::shared_ptr<Command> &cmd);

  private:
    void workerMain();

    Context &ctx_;
    int maxInFlight_;
    std::mutex m_;
    std::condition_variable readyCv_;
    std::condition_variable admitCv_;
    std::deque<std::shared_ptr<Command>> ready_;
    int inFlight_ = 0;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

} // namespace soff::rt::detail
