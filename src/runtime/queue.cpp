/**
 * @file
 * The queued half of the runtime: Event, CommandQueue, user events, and
 * the per-context LaunchEngine worker pool. See launch_internal.hpp for
 * the command lifecycle and DESIGN.md "Launch concurrency" for the
 * determinism argument.
 */
#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "runtime/launch_internal.hpp"
#include "runtime/runtime.hpp"
#include "support/strings.hpp"

namespace soff::rt
{

namespace detail
{

int
parseEnvInt(const char *knob, const char *text, long lo, long hi)
{
    errno = 0;
    char *end = nullptr;
    long v = std::strtol(text, &end, 10);
    bool bare_digits = *text >= '0' && *text <= '9'; // no ws/sign
    if (!bare_digits || end == text || *end != '\0' || errno == ERANGE ||
        v < lo || v > hi) {
        throw OpenClError(ClStatus::InvalidValue, strFormat(
            "invalid %s '%s': expected an integer between %ld and %ld",
            knob, text, lo, hi));
    }
    return static_cast<int>(v);
}

uint64_t
parseEnvU64(const char *knob, const char *text, uint64_t lo, uint64_t hi)
{
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    bool bare_digits = *text >= '0' && *text <= '9'; // no ws/sign
    if (!bare_digits || end == text || *end != '\0' || errno == ERANGE ||
        v < lo || v > hi) {
        throw OpenClError(ClStatus::InvalidValue, strFormat(
            "invalid %s '%s': expected an integer between %llu and %llu",
            knob, text, static_cast<unsigned long long>(lo),
            static_cast<unsigned long long>(hi)));
    }
    return static_cast<uint64_t>(v);
}

namespace
{

/** The ClStatus behind an exception_ptr (CL_OUT_OF_RESOURCES for
 *  non-OpenCL errors — something still went wrong at runtime). */
ClStatus
statusOf(const std::exception_ptr &error)
{
    if (error == nullptr)
        return ClStatus::Success;
    try {
        std::rethrow_exception(error);
    } catch (const OpenClError &e) {
        return e.status();
    } catch (...) {
        return ClStatus::OutOfResources;
    }
}

} // namespace

// ----------------------------------------------------------------------
// Command
// ----------------------------------------------------------------------
void
Command::execute(Context &ctx)
{
    if (cancel->load(std::memory_order_acquire)) {
        // Cancelled before (or while) being gated: terminated without
        // running, like any failed command — dependents observe the
        // failure (containment, not silent skipping).
        error = std::make_exception_ptr(OpenClError(
            ClStatus::SoffCommandCancelled,
            "command cancelled before execution"));
    } else if (depFailed.load(std::memory_order_acquire)) {
        // OpenCL: a command whose wait list contains a failed event is
        // itself terminated without running.
        error = std::make_exception_ptr(OpenClError(
            ClStatus::ExecStatusErrorForEventsInWaitList,
            "command not executed: a wait-list dependency failed"));
    } else {
        // Pristine-memory guarantee for launch retries: device memory
        // an NDRange may have half-written on a failed attempt is
        // restored from a snapshot of its buffer-argument spans taken
        // before the first attempt. Only the spans this launch can
        // touch are saved, so concurrent launches are never disturbed
        // (a whole-memory snapshot would race with their writes).
        std::vector<std::vector<uint8_t>> pristine;
        bool snapshotted = false;
        if (kind == Kind::NDRange && retryAttempts > 0 &&
            plan.mode == ExecutionMode::Simulate) {
            pristine.reserve(plan.bufferSpans.size());
            for (const auto &span : plan.bufferSpans) {
                pristine.emplace_back(span.second);
                ctx.device().dmaRead(span.first, span.second,
                                     pristine.back().data());
            }
            snapshotted = true;
        }
        uint64_t backoff_total = 0;
        for (int att = 0;; ++att) {
            try {
                switch (kind) {
                  case Kind::NDRange: {
                    plan.attempt = att;
                    uint64_t ns = 0;
                    LaunchResult result =
                        ctx.runLaunchCore(plan, &ns, cancel.get());
                    // Simulated-time backoff: retries push the stamp
                    // window out deterministically; no wall sleeping.
                    durationNs = ns + backoff_total;
                    profileable = plan.mode == ExecutionMode::Simulate;
                    {
                        std::lock_guard<std::mutex> lock(event->m);
                        event->stats = result.statsReport;
                    }
                    break;
                  }
                  case Kind::Write:
                    if (dmaFaults.dmaFails(ordinal, att)) {
                        ctx.injDmaFaults_.fetch_add(1);
                        throw TransientFault(
                            TransientFaultKind::DmaTransfer,
                            "injected transient DMA write fault");
                    }
                    ctx.device().dmaWrite(addr, size, src);
                    durationNs = backoff_total;
                    profileable = true;
                    break;
                  case Kind::Read:
                    if (dmaFaults.dmaFails(ordinal, att)) {
                        ctx.injDmaFaults_.fetch_add(1);
                        throw TransientFault(
                            TransientFaultKind::DmaTransfer,
                            "injected transient DMA read fault");
                    }
                    ctx.device().dmaRead(addr, size, dst);
                    durationNs = backoff_total;
                    profileable = true;
                    break;
                }
                break; // Attempt succeeded.
            } catch (const TransientFault &) {
                ++transientFaults;
                if (att >= retryAttempts ||
                    cancel->load(std::memory_order_acquire)) {
                    error = std::current_exception();
                    break; // Retry budget exhausted (or cancelled).
                }
                ++retriesUsed;
                backoff_total += backoffNs << (retriesUsed - 1);
                if (snapshotted) {
                    for (size_t i = 0; i < plan.bufferSpans.size(); ++i) {
                        ctx.device().dmaWrite(plan.bufferSpans[i].first,
                                              plan.bufferSpans[i].second,
                                              pristine[i].data());
                    }
                }
            } catch (...) {
                error = std::current_exception(); // Permanent failure.
                break;
            }
        }
    }
    errStatus = statusOf(error);
    queue->retire(this);
}

// ----------------------------------------------------------------------
// LaunchEngine
// ----------------------------------------------------------------------
LaunchEngine::LaunchEngine(Context &ctx, int workers, int max_in_flight)
    : ctx_(ctx), maxInFlight_(max_in_flight)
{
    workers_.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerMain(); });
}

LaunchEngine::~LaunchEngine()
{
    {
        std::lock_guard<std::mutex> lock(m_);
        stop_ = true;
    }
    readyCv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
LaunchEngine::admitOne()
{
    std::unique_lock<std::mutex> lock(m_);
    admitCv_.wait(lock, [this] { return inFlight_ < maxInFlight_; });
    ++inFlight_;
}

void
LaunchEngine::releaseOne()
{
    {
        std::lock_guard<std::mutex> lock(m_);
        --inFlight_;
    }
    admitCv_.notify_one();
}

void
LaunchEngine::submit(std::shared_ptr<Command> cmd)
{
    {
        std::lock_guard<std::mutex> lock(cmd->event->m);
        cmd->event->status = CommandStatus::Submitted;
    }
    {
        std::lock_guard<std::mutex> lock(m_);
        ready_.push_back(std::move(cmd));
    }
    readyCv_.notify_one();
}

void
LaunchEngine::workerMain()
{
    for (;;) {
        std::shared_ptr<Command> cmd;
        {
            std::unique_lock<std::mutex> lock(m_);
            readyCv_.wait(lock,
                          [this] { return stop_ || !ready_.empty(); });
            if (ready_.empty())
                return; // stop_ and drained.
            cmd = std::move(ready_.front());
            ready_.pop_front();
        }
        {
            std::lock_guard<std::mutex> lock(cmd->event->m);
            cmd->event->status = CommandStatus::Running;
        }
        cmd->execute(ctx_);
    }
}

bool
LaunchEngine::completeEvent(const std::shared_ptr<EventState> &state,
                            std::exception_ptr error)
{
    std::vector<std::function<void()>> callbacks;
    std::vector<std::shared_ptr<Command>> dependents;
    CommandQueue *owner = nullptr;
    {
        std::lock_guard<std::mutex> lock(state->m);
        // The already-complete check and the Complete transition are
        // one critical section, so two racing completers (e.g. two
        // setComplete() calls on one user event) cannot both win.
        if (state->status == CommandStatus::Complete)
            return true;
        state->status = CommandStatus::Complete;
        state->failed = error != nullptr;
        state->error = error;
        state->errStatus = statusOf(error);
        callbacks.swap(state->callbacks);
        dependents.swap(state->dependents);
        owner = state->ownerQueue;
    }
    state->cv.notify_all();
    for (const std::function<void()> &fn : callbacks) {
        // Exception safety: a throwing user callback must not wedge
        // the single-retirer drain loop (the retirer would die with
        // `retiring_` latched and finish() would hang forever) —
        // swallow and record.
        try {
            fn();
        } catch (...) {
            if (owner != nullptr)
                owner->callbackExceptions_.fetch_add(1);
        }
    }
    for (const std::shared_ptr<Command> &d : dependents) {
        if (error != nullptr)
            d->depFailed.store(true, std::memory_order_release);
        if (d->remainingDeps.fetch_sub(1, std::memory_order_acq_rel) ==
                1 &&
            !d->submitted.exchange(true, std::memory_order_acq_rel))
            d->queue->engine_->submit(d);
    }
    return false;
}

void
LaunchEngine::resolveDependencies(
    const std::shared_ptr<Command> &cmd,
    const std::vector<std::shared_ptr<EventState>> &waits)
{
    for (const std::shared_ptr<EventState> &w : waits) {
        std::lock_guard<std::mutex> lock(w->m);
        if (w->status == CommandStatus::Complete) {
            if (w->failed)
                cmd->depFailed.store(true, std::memory_order_release);
            continue;
        }
        cmd->remainingDeps.fetch_add(1, std::memory_order_acq_rel);
        w->dependents.push_back(cmd);
    }
    // Release the enqueue guard; if every dependency already resolved
    // (or there were none), this submits. The `submitted` exchange
    // keeps the submit exactly-once against a concurrent cancel()
    // force-submitting the same command.
    if (cmd->remainingDeps.fetch_sub(1, std::memory_order_acq_rel) ==
            1 &&
        !cmd->submitted.exchange(true, std::memory_order_acq_rel))
        cmd->queue->engine_->submit(cmd);
}

void
LaunchEngine::cancelCommand(const std::shared_ptr<Command> &cmd)
{
    cmd->cancel->store(true, std::memory_order_release);
    // Force-submit a still-gated command so it drains (as a failure)
    // even if its dependencies never resolve — cancellation must free
    // a queue wedged on an abandoned user event. Later dependency
    // completions still decrement remainingDeps but the exchange above
    // keeps the submit exactly-once; a command already executed (or
    // executing) just observes a latched flag it no longer reads.
    if (!cmd->submitted.exchange(true, std::memory_order_acq_rel))
        cmd->queue->engine_->submit(cmd);
}

} // namespace detail

// ----------------------------------------------------------------------
// Event
// ----------------------------------------------------------------------
bool
Event::valid() const
{
    if (state_ == nullptr)
        return false;
    std::lock_guard<std::mutex> lock(state_->m);
    return state_->profiled;
}

uint64_t
Event::profilingInfo(ClProfilingInfo info) const
{
    if (state_ == nullptr) {
        throw OpenClError(ClStatus::ProfilingInfoNotAvailable,
                          "event is not attached to any command");
    }
    std::lock_guard<std::mutex> lock(state_->m);
    if (!state_->profiled) {
        throw OpenClError(
            ClStatus::ProfilingInfoNotAvailable,
            state_->status == CommandStatus::Complete
                ? "profiling info not available for this command"
                : "profiling info not available: command has not "
                  "completed");
    }
    switch (info) {
      case ClProfilingInfo::CommandQueued: return state_->queuedNs;
      case ClProfilingInfo::CommandSubmit: return state_->submitNs;
      case ClProfilingInfo::CommandStart: return state_->startNs;
      case ClProfilingInfo::CommandEnd: return state_->endNs;
    }
    throw OpenClError(ClStatus::InvalidValue,
                      "unknown profiling info parameter");
}

uint64_t
Event::queuedNs() const
{
    return profilingInfo(ClProfilingInfo::CommandQueued);
}

uint64_t
Event::submitNs() const
{
    return profilingInfo(ClProfilingInfo::CommandSubmit);
}

uint64_t
Event::startNs() const
{
    return profilingInfo(ClProfilingInfo::CommandStart);
}

uint64_t
Event::endNs() const
{
    return profilingInfo(ClProfilingInfo::CommandEnd);
}

std::shared_ptr<const sim::StatsReport>
Event::stats() const
{
    if (state_ == nullptr)
        return nullptr;
    std::lock_guard<std::mutex> lock(state_->m);
    return state_->stats;
}

CommandStatus
Event::status() const
{
    if (state_ == nullptr) {
        throw OpenClError(ClStatus::InvalidEvent,
                          "event is not attached to any command");
    }
    std::lock_guard<std::mutex> lock(state_->m);
    return state_->status;
}

int
Event::executionStatus() const
{
    if (state_ == nullptr) {
        throw OpenClError(ClStatus::InvalidEvent,
                          "event is not attached to any command");
    }
    std::lock_guard<std::mutex> lock(state_->m);
    if (state_->status == CommandStatus::Complete && state_->failed)
        return static_cast<int>(state_->errStatus);
    return static_cast<int>(state_->status);
}

bool
Event::isComplete() const
{
    return state_ != nullptr &&
           [this] {
               std::lock_guard<std::mutex> lock(state_->m);
               return state_->status == CommandStatus::Complete;
           }();
}

void
Event::wait() const
{
    if (state_ == nullptr) {
        throw OpenClError(ClStatus::InvalidEvent,
                          "event is not attached to any command");
    }
    std::unique_lock<std::mutex> lock(state_->m);
    state_->cv.wait(lock, [this] {
        return state_->status == CommandStatus::Complete;
    });
    if (state_->error != nullptr)
        std::rethrow_exception(state_->error);
}

void
Event::onComplete(std::function<void()> fn) const
{
    if (state_ == nullptr) {
        throw OpenClError(ClStatus::InvalidEvent,
                          "event is not attached to any command");
    }
    {
        std::lock_guard<std::mutex> lock(state_->m);
        if (state_->status != CommandStatus::Complete) {
            state_->callbacks.push_back(std::move(fn));
            return;
        }
    }
    fn(); // Already complete: run on the calling thread.
}

void
Event::setComplete() const
{
    if (state_ == nullptr || !state_->userEvent) {
        throw OpenClError(ClStatus::InvalidEvent,
                          "setComplete() requires a user event");
    }
    // completeEvent performs the already-complete check atomically with
    // the transition; a concurrent double-complete loses the race and
    // gets the CL_INVALID_OPERATION, never a second completion.
    if (detail::LaunchEngine::completeEvent(state_, nullptr)) {
        throw OpenClError(ClStatus::InvalidOperation,
                          "user event execution status was already set");
    }
}

void
Event::cancel() const
{
    if (state_ == nullptr) {
        throw OpenClError(ClStatus::InvalidEvent,
                          "event is not attached to any command");
    }
    bool user = false;
    std::shared_ptr<detail::Command> cmd;
    {
        std::lock_guard<std::mutex> lock(state_->m);
        if (state_->status == CommandStatus::Complete)
            return; // Nothing left to cancel; not an error.
        user = state_->userEvent;
        cmd = state_->command.lock();
    }
    if (user) {
        // Cancelling a user event completes it with the cancellation
        // error: waiters unblock and dependents are contained exactly
        // like dependents of a failed command.
        detail::LaunchEngine::completeEvent(
            state_, std::make_exception_ptr(OpenClError(
                        ClStatus::SoffCommandCancelled,
                        "user event cancelled")));
        return;
    }
    if (cmd != nullptr)
        detail::LaunchEngine::cancelCommand(cmd);
}

std::shared_ptr<const sim::StatsReport>
soffGetKernelStats(const Event &event)
{
    if (event.state_ == nullptr) {
        throw OpenClError(ClStatus::ProfilingInfoNotAvailable,
                          "event is not attached to any command");
    }
    return event.stats();
}

// ----------------------------------------------------------------------
// Context: user events + engine
// ----------------------------------------------------------------------
Context::Context(datapath::FpgaSpec fpga, uint64_t global_mem_bytes)
    : device_(std::move(fpga), global_mem_bytes)
{
}

Context::~Context() = default;

Event
Context::createUserEvent()
{
    auto state = std::make_shared<detail::EventState>();
    state->userEvent = true;
    // cl.h: user events start CL_SUBMITTED, not CL_QUEUED.
    state->status = CommandStatus::Submitted;
    return Event(std::move(state));
}

InjectedFaultCounters
Context::injectedFaults() const
{
    InjectedFaultCounters c;
    c.launchAborts = injLaunchAborts_.load();
    c.dmaTransfers = injDmaFaults_.load();
    c.poolCheckouts = injPoolFaults_.load();
    return c;
}

detail::LaunchEngine &
Context::engine(const QueueOptions &options)
{
    std::lock_guard<std::mutex> lock(engineMutex_);
    if (engine_ == nullptr) {
        int workers = options.workers;
        if (workers <= 0) {
            const char *env = std::getenv("SOFF_QUEUE_WORKERS");
            if (env != nullptr && *env != '\0') {
                workers =
                    detail::parseEnvInt("SOFF_QUEUE_WORKERS", env, 1,
                                        1024);
            } else {
                workers = static_cast<int>(
                    std::thread::hardware_concurrency());
                workers = std::max(workers, 1);
            }
        }
        int max_in_flight = options.maxInFlight;
        if (max_in_flight <= 0)
            max_in_flight = std::max(4 * workers, 16);
        engine_ = std::make_unique<detail::LaunchEngine>(*this, workers,
                                                         max_in_flight);
    }
    return *engine_;
}

// ----------------------------------------------------------------------
// CommandQueue
// ----------------------------------------------------------------------
CommandQueue::CommandQueue(Context &context, QueueOptions options)
    : context_(context), options_(options),
      engine_(&context.engine(options))
{
}

CommandQueue::~CommandQueue()
{
    try {
        finish();
    } catch (...) {
        // A failed command's error was already delivered through its
        // event (or a finish() the user called); destruction only
        // needs the drain.
    }
}

void
CommandQueue::enqueueNDRange(KernelHandle &kernel,
                             const sim::NDRange &ndrange,
                             const std::vector<Event> &wait_list,
                             Event *event, ExecutionMode mode,
                             const sim::PlatformConfig &platform,
                             int instance_override)
{
    auto cmd = std::make_shared<detail::Command>();
    cmd->kind = detail::Command::Kind::NDRange;
    // Validation and every getenv() happen here, on the calling
    // thread, synchronously.
    sim::PlatformConfig plat = platform;
    if (!plat.faults.enabled() && !plat.faults.checkInvariants &&
        options_.faults.enabled()) {
        // Queue-level fault injection: launches whose platform carries
        // no fault config inherit the queue's.
        plat.faults = options_.faults;
    }
    cmd->plan = context_.resolveLaunch(kernel, ndrange, mode, plat,
                                       instance_override);
    if (options_.launchTimeoutCycles > 0)
        cmd->plan.timeoutCycles = options_.launchTimeoutCycles;
    resolveReliability(*cmd);
    enqueueCommand(std::move(cmd), wait_list, event);
}

void
CommandQueue::enqueueWrite(const Buffer &buffer, const void *src,
                           uint64_t size,
                           const std::vector<Event> &wait_list,
                           Event *event)
{
    if (!buffer.valid() || size > buffer.size()) {
        throw OpenClError(ClStatus::InvalidValue,
                          "enqueueWrite: invalid buffer or size");
    }
    auto cmd = std::make_shared<detail::Command>();
    cmd->kind = detail::Command::Kind::Write;
    cmd->addr = buffer.deviceAddress();
    cmd->size = size;
    cmd->src = src;
    resolveReliability(*cmd);
    enqueueCommand(std::move(cmd), wait_list, event);
}

void
CommandQueue::enqueueRead(const Buffer &buffer, void *dst, uint64_t size,
                          const std::vector<Event> &wait_list,
                          Event *event)
{
    if (!buffer.valid() || size > buffer.size()) {
        throw OpenClError(ClStatus::InvalidValue,
                          "enqueueRead: invalid buffer or size");
    }
    auto cmd = std::make_shared<detail::Command>();
    cmd->kind = detail::Command::Kind::Read;
    cmd->addr = buffer.deviceAddress();
    cmd->size = size;
    cmd->dst = dst;
    resolveReliability(*cmd);
    enqueueCommand(std::move(cmd), wait_list, event);
}

void
CommandQueue::resolveReliability(detail::Command &cmd)
{
    int attempts = options_.retry.attempts;
    if (attempts < 0) {
        const char *env = std::getenv("SOFF_LAUNCH_RETRY");
        attempts = (env != nullptr && *env != '\0')
                       ? detail::parseEnvInt("SOFF_LAUNCH_RETRY", env, 0,
                                             16)
                       : 0;
    }
    cmd.retryAttempts = attempts;
    cmd.backoffNs = options_.retry.backoffNs;
    if (cmd.kind != detail::Command::Kind::NDRange) {
        // DMA commands consult the launch-visible fault plan directly
        // (launches carry theirs inside plan.plat.faults).
        sim::FaultConfig fc = options_.faults;
        if (!fc.enabled()) {
            const char *env = std::getenv("SOFF_FAULTS");
            if (env != nullptr && *env != '\0') {
                try {
                    fc = sim::FaultConfig::parse(env);
                } catch (const RuntimeError &e) {
                    throw OpenClError(ClStatus::InvalidValue, e.what());
                }
            }
        }
        cmd.dmaFaults = sim::FaultPlan(fc);
        cmd.ordinal = context_.nextCommandOrdinal();
    }
}

void
CommandQueue::enqueueCommand(std::shared_ptr<detail::Command> cmd,
                             const std::vector<Event> &wait_list,
                             Event *event)
{
    std::vector<std::shared_ptr<detail::EventState>> waits;
    waits.reserve(wait_list.size() + 1);
    for (const Event &e : wait_list) {
        if (!e.attached()) {
            throw OpenClError(
                ClStatus::InvalidEventWaitList,
                "wait list contains an event not attached to any "
                "command (no enqueued command can ever complete it — "
                "the one expressible dependency cycle)");
        }
        waits.push_back(e.state_);
    }
    // Backpressure: block the enqueuing thread while the context has
    // maxInFlight commands enqueued-but-unretired.
    engine_->admitOne();

    cmd->queue = this;
    cmd->event = std::make_shared<detail::EventState>();
    cmd->event->command = cmd;     // Cancellation back-pointer.
    cmd->event->ownerQueue = this; // Swallowed-callback accounting.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        cmd->seq = nextSeq_++;
        if (!options_.outOfOrder && lastEvent_ != nullptr)
            waits.push_back(lastEvent_); // Implicit in-order chain.
        lastEvent_ = cmd->event;
        pending_.push_back(cmd);
    }
    if (event != nullptr)
        *event = Event(cmd->event);
    detail::LaunchEngine::resolveDependencies(cmd, waits);
}

void
CommandQueue::retire(detail::Command *cmd)
{
    std::unique_lock<std::mutex> lock(mutex_);
    cmd->executed = true;
    // Single-retirer protocol: one worker at a time walks the
    // retirement loop; any other worker just marks its command
    // executed and leaves — the active retirer picks it up when it
    // re-locks. This serializes event completion strictly in enqueue
    // order even across workers, and `retiring_` keeps the queue
    // observably un-drained until completeEvent/releaseOne have run
    // for every popped command — finish() (and therefore
    // ~CommandQueue) cannot return while a retirer still dereferences
    // this queue.
    if (retiring_)
        return;
    retiring_ = true;
    while (!pending_.empty() && pending_.front()->executed) {
        std::shared_ptr<detail::Command> c = pending_.front();
        pending_.pop_front();
        // Stamp profiling off the per-queue device clock, in
        // enqueue order — identical to the serial path's tiling.
        if (c->error == nullptr && c->profileable) {
            std::lock_guard<std::mutex> elock(c->event->m);
            c->event->queuedNs = clockNs_;
            c->event->submitNs = clockNs_ + detail::kSubmitOverheadNs;
            c->event->startNs = c->event->submitNs;
            c->event->endNs = c->event->startNs + c->durationNs;
            c->event->profiled = true;
            clockNs_ = c->event->endNs;
        }
        if (c->error != nullptr && firstError_ == nullptr)
            firstError_ = c->error;
        // Fold the command's reliability outcome into the per-queue
        // counters (under mutex_, like the device clock).
        ++rstats_.retired;
        rstats_.retries += static_cast<uint64_t>(c->retriesUsed);
        rstats_.faultsInjected += c->transientFaults;
        if (c->error != nullptr) {
            ++rstats_.failed;
            rstats_.faultsSurfaced += c->transientFaults;
            switch (c->errStatus) {
              case ClStatus::ExecStatusErrorForEventsInWaitList:
                ++rstats_.depSkipped;
                break;
              case ClStatus::SoffCommandCancelled:
                ++rstats_.cancelled;
                break;
              case ClStatus::SoffLaunchTimeout:
                ++rstats_.watchdogTrips;
                break;
              default:
                break;
            }
        } else {
            rstats_.faultsRetriedAway += c->transientFaults;
        }
        // Event completion (callbacks + DAG release) and the admission
        // release run outside the queue mutex — callbacks may enqueue
        // into this very queue — but under `retiring_`, so the queue
        // stays un-drained across the unlock window.
        lock.unlock();
        detail::LaunchEngine::completeEvent(c->event, c->error);
        engine_->releaseOne();
        lock.lock();
    }
    retiring_ = false;
    if (pending_.empty())
        drained_.notify_all();
    // The notify happens while still holding mutex_, and nothing of
    // `this` is touched after the unlock below: once a finish()er
    // observes the drained predicate, destroying the queue is safe.
}

void
CommandQueue::finish()
{
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        drained_.wait(lock,
                      [this] { return pending_.empty() && !retiring_; });
        error = firstError_;
        firstError_ = nullptr;
    }
    if (error != nullptr)
        std::rethrow_exception(error);
}

void
CommandQueue::cancelAll()
{
    std::vector<std::shared_ptr<detail::Command>> snapshot;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        snapshot.assign(pending_.begin(), pending_.end());
    }
    for (const std::shared_ptr<detail::Command> &c : snapshot)
        detail::LaunchEngine::cancelCommand(c);
    // Drain without rethrowing: teardown wants "stop everything" to
    // succeed on a queue full of failures. The per-command errors were
    // delivered through the events; the queue-level first error (which
    // the cancellations themselves would now populate) is dropped.
    std::unique_lock<std::mutex> lock(mutex_);
    drained_.wait(lock,
                  [this] { return pending_.empty() && !retiring_; });
    firstError_ = nullptr;
}

ReliabilityStats
CommandQueue::reliabilityStats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ReliabilityStats s = rstats_;
    s.callbackExceptions = callbackExceptions_.load();
    return s;
}

} // namespace soff::rt
