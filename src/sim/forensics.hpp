/**
 * @file
 * Hang forensics: structured deadlock/timeout reports.
 *
 * When a run deadlocks (exact quiescence in the event-driven
 * schedulers, idle-window heuristic in the reference) or times out,
 * the simulator walks every component, asks it to describe why it
 * cannot make progress (Component::describeBlockage), builds the
 * wait-for graph over channels — who is valid-but-stalled on whom,
 * FIFO occupancies, in-flight memory requests, lock-table holders —
 * extracts a wait cycle, and renders a culprit chain through
 * support/diagnostics. The report distinguishes real circuit
 * deadlocks (a cyclic wait over full/empty channels, e.g. a §V-A
 * response window sized below L_F) from internal simulator/compiler
 * bugs flagged by invariant checkers (kind InvariantViolation).
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "support/error.hpp"

namespace soff::sim
{

/** Structured description of a hung (or invariant-violating) run. */
struct DeadlockReport
{
    HangKind kind = HangKind::Deadlock;
    Cycle cycle = 0;

    /** One component's unsatisfied progress condition. */
    struct Wait
    {
        enum class Reason
        {
            PopEmpty, ///< Waiting for a token on an empty channel.
            PushFull, ///< Waiting for space on a full channel.
            Lock,     ///< Waiting for a lock-table lock.
        };
        std::string component;
        Reason reason = Reason::PopEmpty;
        std::string channel; ///< "ch<id> [occ/cap]" descriptor.
        std::string detail;  ///< Unit-specific context (in-flight, ...).
        std::vector<std::string> blockers; ///< Who must act first.
    };

    std::vector<Wait> waits;
    /** The extracted wait-for cycle: "A --[waits ...]--> B" entries,
     *  closing back on the first component. Empty if no cycle exists
     *  (e.g. a timeout with work still in flight). */
    std::vector<std::string> waitCycle;
    /** Invariant-checker findings: these mean internal bug, not a
     *  legitimate circuit deadlock. */
    std::vector<std::string> invariants;
    /** Informational context (gate states, pipeline occupancies). */
    std::vector<std::string> notes;

    bool internalBug() const { return !invariants.empty(); }
    /** Renders the report through the diagnostics engine. */
    std::string render() const;
};

/**
 * Collector passed to Component::describeBlockage. Components declare
 * the channels their step() is gated on; the probe records only the
 * conditions that are actually unsatisfied (empty for a pop, full for
 * a push) and draws each wait-for edge to the channel's declared peer:
 * the producer of an empty channel, the consumer of a full one.
 */
class BlockageProbe
{
  public:
    BlockageProbe(DeadlockReport *report,
                  std::vector<const Component *> all_components)
        : report_(report), all_(std::move(all_components))
    {}

    /** diagnose() sets this before each component's describeBlockage. */
    void setCurrent(const Component *c) { current_ = c; }

    /** This component needs a token from `ch` (recorded iff empty). */
    void waitPop(const ChannelBase *ch, std::string detail = {});
    /** This component needs space on `ch` (recorded iff full). */
    void waitPush(const ChannelBase *ch, std::string detail = {});
    /** This component is spinning on a held lock-table lock. */
    void waitLock(int lock_index, const void *holder,
                  std::string detail = {});
    /** Informational context line (prefixed with the component name). */
    void note(const std::string &text);
    /** Invariant violation: flags the report as an internal bug. */
    void invariant(const std::string &text);

    /** Wait-for edge for cycle extraction. */
    struct Edge
    {
        const Component *from;
        const Component *to;
        std::string label;
    };
    const std::vector<Edge> &edges() const { return edges_; }

  private:
    void record(const ChannelBase *ch, DeadlockReport::Wait::Reason r,
                std::string detail);
    const Component *resolve(const void *addr) const;

    DeadlockReport *report_;
    std::vector<const Component *> all_;
    const Component *current_ = nullptr;
    std::vector<Edge> edges_;
};

/**
 * An internal simulator/compiler bug detected by an invariant checker
 * (barrier buffering overflow, §V-A L_F guard, ordered-select wedge)
 * — as opposed to a RuntimeError caused by the user's input. Carries
 * the forensic report; the runtime maps it to CL_OUT_OF_RESOURCES.
 */
class SimInternalError : public RuntimeError
{
  public:
    SimInternalError(const std::string &message,
                     std::shared_ptr<const DeadlockReport> report)
        : RuntimeError(message), report_(std::move(report))
    {}

    const std::shared_ptr<const DeadlockReport> &report() const
    {
        return report_;
    }

  private:
    std::shared_ptr<const DeadlockReport> report_;
};

} // namespace soff::sim
