/**
 * @file
 * Deterministic fault injection (robustness harness).
 *
 * Two fault families share the FaultPlan:
 *
 * 1. *Delay-only circuit faults* — consulted by the simulator, the
 *    channels, and the DRAM timing model; see the latency-insensitivity
 *    argument below. These perturb timing, never results.
 * 2. *Launch-visible transient faults* — consulted by the runtime
 *    launch layer, never by the circuit: launch-abort windows
 *    (abortevery), DMA transfer failures (dmaevery), and template-pool
 *    checkout failures (poolevery). These make the runtime's error and
 *    retry paths reachable on demand; they are keyed on the command's
 *    enqueue ordinal and attempt number, so a retry of the same command
 *    re-rolls deterministically. All default to off, so a bare seed
 *    still means "timing faults only" and existing bit-identity
 *    campaigns are unaffected. `FaultConfig::perturbsTiming()` vs
 *    `launchVisible()` is the split the runtime uses to keep
 *    launch-visible-only plans template-pool-cacheable.
 *
 * SOFF's generated circuits are latency-insensitive by construction:
 * every inter-unit link is an elastic valid/stall handshake (§IV-C),
 * FIFO sizing only affects throughput on the acyclic DFG (§IV-B), the
 * loop back-edge FIFOs are what the §IV-E deadlock-freedom argument
 * depends on, and the §V-A L_F response windows absorb the worst-case
 * in-flight memory requests. A *delay-only* fault — extra stall cycles
 * on a handshake, a DRAM latency spike, a backpressure storm on a
 * cache port, balancing slack removed from a DFG-edge FIFO — can
 * therefore never change results or terminateness; it can only slow
 * the circuit down. The FaultPlan injects exactly such faults, and the
 * fault campaign (tests/fault_test.cpp) checks the theorem: every
 * scheduler mode must produce bit-identical buffers under any plan.
 *
 * Determinism is load-bearing: the three schedulers must observe the
 * *same* faults at the same cycles or the cross-check would diverge by
 * construction rather than by bug. Every query is a pure function of
 * (seed, entity index, cycle) via stateless SplitMix64 hashing — no
 * mutable generator state, so queries are also safe from concurrent
 * threads and independent of query order.
 *
 * Never perturbed, by design:
 *  - loop back-edge FIFOs (`backEdgeFifo`): reducing them breaks the
 *    §IV-E deadlock-freedom precondition — that would inject a *bug*,
 *    not a delay;
 *  - channel base capacity (2, main + skid register): the handshake
 *    protocol itself requires it;
 *  - the §V-A response window (unless a test overrides it explicitly
 *    to demonstrate the resulting deadlock).
 */
#pragma once

#include <cstdint>
#include <string>

namespace soff::sim
{

/** Which stall-probability class a channel belongs to. */
enum class FaultClass : uint8_t
{
    Data = 0,   ///< Datapath handshake links.
    Memory = 1, ///< Memory request/response ports (backpressure storms).
};

/** Parsed fault-injection configuration (SOFF_FAULTS / PlatformConfig). */
struct FaultConfig
{
    /** 0 disables injection entirely (the default). */
    uint64_t seed = 0;
    /** Per-epoch probability of a stall window on a data channel. */
    double stallProb = 0.02;
    /** Per-epoch probability of a stall window on a memory port. */
    double memStallProb = 0.04;
    /** Maximum stall-window length in cycles (1..63). */
    int stallMax = 12;
    /** Roughly every Nth DRAM transfer takes a latency spike; 0 = off. */
    int dramSpikeEvery = 7;
    /** Extra latency cycles of a spiked DRAM transfer. */
    int dramSpikeCycles = 48;
    /** Max extra bus-occupancy cycles per transfer (burst jitter). */
    int dramJitterMax = 3;
    /** Max balancing-FIFO slack removed per DFG edge (never below the
     *  base capacity of 2, never from loop back edges). */
    int fifoSlackCut = 2;
    /** Opt-in §V-A invariant checker on every load/store unit. */
    bool checkInvariants = false;
    /** Roughly every Nth (launch ordinal, attempt) aborts mid-run at a
     *  seeded cycle; 0 = off. Launch-visible, runtime-injected. */
    int abortEvery = 0;
    /** Roughly every Nth queued DMA transfer attempt fails; 0 = off. */
    int dmaFailEvery = 0;
    /** Roughly every Nth template-pool checkout attempt fails; 0=off. */
    int poolFailEvery = 0;

    /** True if any fault class may be active (seed set). */
    bool enabled() const { return seed != 0; }

    /** True if any *circuit timing* perturbation is active — the
     *  condition under which the simulator must install the plan (and
     *  the runtime must bypass the template pool / compiled plan). */
    bool perturbsTiming() const
    {
        return enabled() &&
               (stallProb > 0.0 || memStallProb > 0.0 ||
                dramSpikeEvery > 0 || dramJitterMax > 0 ||
                fifoSlackCut > 0);
    }

    /** True if any launch-visible transient fault class is active. */
    bool launchVisible() const
    {
        return enabled() &&
               (abortEvery > 0 || dmaFailEvery > 0 || poolFailEvery > 0);
    }

    /**
     * Parses the SOFF_FAULTS grammar: either a bare integer seed, or a
     * comma-separated key=value list (seed=, stall=, memstall=,
     * stallmax=, dramevery=, dramspike=, dramjitter=, slack=, check=,
     * abortevery=, dmaevery=, poolevery=). Throws RuntimeError
     * with the valid keys on bad input.
     */
    static FaultConfig parse(const std::string &text);

    /** One-line human-readable summary of the active knobs. */
    std::string describe() const;
};

/**
 * Stateless query interface the simulator, channels, and DRAM timing
 * model consult. All queries are pure functions of the config and the
 * arguments; see the file comment for why that matters.
 */
class FaultPlan
{
  public:
    FaultPlan() = default;
    explicit FaultPlan(const FaultConfig &config) : cfg_(config) {}

    const FaultConfig &config() const { return cfg_; }
    bool enabled() const { return cfg_.enabled(); }
    bool checkInvariants() const { return cfg_.checkInvariants; }

    /** Cycles per hash window; stall windows start at epoch begin. */
    static constexpr uint64_t kEpochCycles = 64;

    /**
     * Is `channel` fault-stalled at cycle `now`? When true, *clear_at
     * receives the first cycle the window is over — the caller must
     * arm a retry wake there, or an event-driven scheduler could miss
     * the only wake that unblocks the component (see channel.hpp).
     */
    bool channelBlocked(uint32_t channel, FaultClass cls, uint64_t now,
                        uint64_t *clear_at) const;

    /**
     * Latency spike / burst jitter for the `transfer`-th DRAM line
     * transfer: *extra_latency delays the completion, *extra_occupancy
     * extends the bus busy time. Keyed on the transfer ordinal, which
     * is identical across schedulers (caches issue in cycle order).
     */
    void dramPerturb(uint64_t transfer, uint64_t *extra_latency,
                     uint64_t *extra_occupancy) const;

    /**
     * Reduced-but-still-legal balancing slack for the DFG-edge FIFO
     * that will get channel index `channel`: returns a value in
     * [max(0, planned - fifoSlackCut), planned]. The base capacity of
     * 2 is added by the caller and never reduced.
     */
    int balanceSlack(uint32_t channel, int planned) const;

    // -- Launch-visible transient faults (runtime layer only) --------
    // Keyed on the command's enqueue ordinal (assigned on the enqueue
    // thread, so identical across worker counts and queue shapes) and
    // the attempt number (so a retry re-rolls and can be re-hit).

    /**
     * Does attempt `attempt` of the launch with enqueue ordinal
     * `ordinal` suffer an injected mid-run abort? When true, *abort_at
     * receives the seeded cycle (>= 1) at which the runtime must stop
     * the simulation; a launch that completes before that cycle does
     * not observe the fault.
     */
    bool launchAborts(uint64_t ordinal, int attempt,
                      uint64_t *abort_at) const;

    /** Does attempt `attempt` of the DMA command with enqueue ordinal
     *  `ordinal` fail transiently? */
    bool dmaFails(uint64_t ordinal, int attempt) const;

    /** Does attempt `attempt` of a template-pool checkout for the
     *  launch with enqueue ordinal `ordinal` fail transiently? */
    bool poolCheckoutFails(uint64_t ordinal, int attempt) const;

  private:
    static uint64_t hash(uint64_t a, uint64_t b, uint64_t c);

    FaultConfig cfg_;
};

} // namespace soff::sim
