/**
 * @file
 * Error handling primitives shared by every SOFF module.
 *
 * Following the gem5 convention, we distinguish two failure classes:
 *  - CompileError / RuntimeError: the *user's* input (kernel source, API
 *    usage) is at fault. These are reported as exceptions so the runtime
 *    can surface them as OpenCL-style error codes.
 *  - internal assertion failures (soffAssert): a SOFF bug; aborts.
 */
#pragma once

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace soff
{

/** Error raised when kernel source code fails to compile. */
class CompileError : public std::runtime_error
{
  public:
    explicit CompileError(const std::string &message)
        : std::runtime_error(message)
    {}
};

/** Error raised when a host-API call or a kernel execution misbehaves. */
class RuntimeError : public std::runtime_error
{
  public:
    explicit RuntimeError(const std::string &message)
        : std::runtime_error(message)
    {}
};

/**
 * OpenCL-style status codes the runtime attaches to its errors (the
 * subset this reproduction can raise; numeric values match cl.h).
 */
enum class ClStatus : int
{
    Success = 0,
    MemObjectAllocationFailure = -4,
    OutOfResources = -5,
    ProfilingInfoNotAvailable = -7,
    /** Propagated to an event whose wait list contains a failed event
     *  (cl.h: CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST). */
    ExecStatusErrorForEventsInWaitList = -14,
    InvalidValue = -30,
    InvalidKernelName = -46,
    InvalidArgIndex = -49,
    InvalidArgValue = -50,
    InvalidKernelArgs = -52,
    InvalidWorkGroupSize = -54,
    InvalidEventWaitList = -57,
    InvalidEvent = -58,
    InvalidOperation = -59,
    InvalidBufferSize = -61,

    // SOFF extension statuses (outside the cl.h range, like vendor
    // extensions): failure classes the reliability layer distinguishes
    // that core OpenCL folds into CL_OUT_OF_RESOURCES.
    /** An injected transient runtime fault exhausted its retry budget
     *  (or no retry policy was configured). */
    SoffTransientFault = -1100,
    /** The command was cancelled (Event::cancel / cancelAll). */
    SoffCommandCancelled = -1101,
    /** The per-launch watchdog cycle budget expired. */
    SoffLaunchTimeout = -1102,
};

/** The cl.h macro name for a status ("CL_OUT_OF_RESOURCES", ...). */
const char *clStatusName(ClStatus status);

namespace detail
{
[[noreturn]] void assertFail(const char *cond, const char *file, int line,
                             const std::string &message);
} // namespace detail

} // namespace soff

/**
 * Internal invariant check. Unlike standard assert(), this is always
 * compiled in: the simulator's correctness claims depend on these checks.
 */
#define SOFF_ASSERT(cond, msg)                                              \
    do {                                                                    \
        if (!(cond))                                                        \
            ::soff::detail::assertFail(#cond, __FILE__, __LINE__, (msg));   \
    } while (false)
