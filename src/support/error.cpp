#include "support/error.hpp"

#include <cstdio>

namespace soff
{

const char *
clStatusName(ClStatus status)
{
    switch (status) {
      case ClStatus::Success: return "CL_SUCCESS";
      case ClStatus::MemObjectAllocationFailure:
        return "CL_MEM_OBJECT_ALLOCATION_FAILURE";
      case ClStatus::OutOfResources: return "CL_OUT_OF_RESOURCES";
      case ClStatus::ProfilingInfoNotAvailable:
        return "CL_PROFILING_INFO_NOT_AVAILABLE";
      case ClStatus::ExecStatusErrorForEventsInWaitList:
        return "CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST";
      case ClStatus::InvalidValue: return "CL_INVALID_VALUE";
      case ClStatus::InvalidKernelName: return "CL_INVALID_KERNEL_NAME";
      case ClStatus::InvalidArgIndex: return "CL_INVALID_ARG_INDEX";
      case ClStatus::InvalidArgValue: return "CL_INVALID_ARG_VALUE";
      case ClStatus::InvalidKernelArgs: return "CL_INVALID_KERNEL_ARGS";
      case ClStatus::InvalidWorkGroupSize:
        return "CL_INVALID_WORK_GROUP_SIZE";
      case ClStatus::InvalidEventWaitList:
        return "CL_INVALID_EVENT_WAIT_LIST";
      case ClStatus::InvalidEvent: return "CL_INVALID_EVENT";
      case ClStatus::InvalidOperation: return "CL_INVALID_OPERATION";
      case ClStatus::InvalidBufferSize: return "CL_INVALID_BUFFER_SIZE";
      case ClStatus::SoffTransientFault: return "SOFF_TRANSIENT_FAULT";
      case ClStatus::SoffCommandCancelled:
        return "SOFF_COMMAND_CANCELLED";
      case ClStatus::SoffLaunchTimeout: return "SOFF_LAUNCH_TIMEOUT";
    }
    return "CL_UNKNOWN_ERROR";
}

} // namespace soff

namespace soff::detail
{

void
assertFail(const char *cond, const char *file, int line,
           const std::string &message)
{
    std::fprintf(stderr, "SOFF internal error: %s\n  condition: %s\n"
                 "  at %s:%d\n", message.c_str(), cond, file, line);
    std::abort();
}

} // namespace soff::detail
