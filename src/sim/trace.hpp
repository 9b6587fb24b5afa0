/**
 * @file
 * Chrome trace-event exporter for the simulated circuit.
 *
 * When SOFF_TRACE is set the simulator feeds per-component activity
 * and per-channel occupancy into a TraceSink, which coalesces
 * consecutive active cycles into duration ("X") spans and channel
 * commits into counter ("C") samples, then writes the trace-event
 * JSON that chrome://tracing and Perfetto load directly. Timestamps
 * are simulated cycles (1 "us" per cycle in the viewer).
 *
 * The sink is cheap by construction: component/channel tracks are
 * preallocated vectors indexed by the simulator-assigned index, every
 * track has exactly one writer (the simulator that owns the sink), and
 * the [start, end) cycle window drops everything else before any
 * allocation happens. Tracing never feeds back into scheduling, so a
 * traced run is still bit-identical to an untraced one.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hpp"

namespace soff::sim
{

class TraceSink
{
  public:
    /**
     * `window` is [start, end) in cycles; pass 0 and ~0 for an
     * unbounded trace.
     */
    TraceSink(size_t numComponents, size_t numChannels,
              uint64_t windowStart, uint64_t windowEnd);

    bool inWindow(uint64_t cycle) const
    {
        return cycle >= windowStart_ && cycle < windowEnd_;
    }

    /** Marks `index` active at `cycle` (caller already window-checked). */
    void componentActive(uint32_t index, uint64_t cycle);

    /** Records committed occupancy of channel `index` at `cycle`. */
    void channelSample(uint32_t index, uint64_t cycle, uint64_t occupancy);

    /** Closes all open spans; call once after the run finishes. */
    void finalize();

    /** One display track per traced component. */
    struct TrackInfo
    {
        std::string name;
        ComponentKind kind = ComponentKind::Other;
    };

    /**
     * Writes the trace-event JSON. `tracks[i]` labels component i;
     * components that never became active inside the window are
     * omitted from the file.
     */
    void write(const std::string &path,
               const std::vector<TrackInfo> &tracks) const;

  private:
    struct Span
    {
        uint64_t start;
        uint64_t end; // exclusive
    };

    struct ComponentTrack
    {
        std::vector<Span> spans;
        uint64_t openStart = 0;
        uint64_t lastActive = 0;
        bool open = false;
    };

    struct CounterSample
    {
        uint64_t cycle;
        uint64_t occupancy;
    };

    struct ChannelTrack
    {
        std::vector<CounterSample> samples;
    };

    uint64_t windowStart_;
    uint64_t windowEnd_;
    std::vector<ComponentTrack> components_;
    std::vector<ChannelTrack> channels_;
    bool finalized_ = false;
};

} // namespace soff::sim
