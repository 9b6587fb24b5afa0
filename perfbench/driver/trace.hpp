/**
 * @file
 * In-memory span recorder for the traced run. Spans are opened and
 * closed around calls into SOFF's modules from the benchmark's own
 * files; nothing inside the program under test is instrumented.
 *
 * Only the thread that drives a workload records spans, so the open-
 * span stack needs no lock. A disabled tracer records nothing and its
 * Scope costs one branch.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic nanoseconds since an arbitrary epoch. */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Median of `v`; 0 for an empty vector. */
double median(std::vector<double> v);

/** One closed span. */
struct Span
{
    std::string name;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int parent = -1;  ///< Index into the span list; -1 for a root.
    int64_t op = -1;  ///< Op id the span belongs to; -1 outside ops.
    int64_t childNs = 0; ///< Time covered by direct children.

    double selfMs() const { return (endNs - startNs - childNs) / 1e6; }
};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** RAII span: opened on construction, closed on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, int64_t op = -1);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int index_ = -1;
    };

    /** Adds `v` to a named counter (no-op when disabled). */
    void
    count(const std::string &name, double v)
    {
        if (enabled_)
            counters_[name] += v;
    }

    const std::vector<Span> &spans() const { return spans_; }
    const std::map<std::string, double> &counters() const
    {
        return counters_;
    }

    /** Median self time (ms) of the spans called `name`; 0 if none. */
    double medianSelfMs(const std::string &name) const;

    /** Writes every span as one JSON document. */
    void writeJson(const std::string &path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::map<std::string, double> counters_;
};

} // namespace perfbench
