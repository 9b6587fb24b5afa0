#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "ir/kernel.hpp"
#include "support/rng.hpp"
#include "workload.hpp"

namespace perfbench
{

void
OpLog::merge(const OpLog &other)
{
    ops.insert(ops.end(), other.ops.begin(), other.ops.end());
    attempted += other.attempted;
    failed += other.failed;
    simCycles += other.simCycles;
}

namespace
{

/** Nearest-rank percentile `p` in [0,100] of the ops' latencies. */
double quantile(std::vector<double> v, double q);

double
latencyPercentile(std::vector<OpLog::Op>::const_iterator first,
                  std::vector<OpLog::Op>::const_iterator last, double p)
{
    std::vector<double> v;
    for (auto it = first; it != last; ++it)
        v.push_back(it->ms());
    return quantile(std::move(v), p / 100.0);
}

/** Nearest-rank quantile `q` in [0,1] of `v` (0 when empty). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
    return v[std::min(rank, v.size() - 1)];
}

} // namespace

Summary
summarize(const OpLog &log, uint64_t window_ops)
{
    std::vector<OpLog::Op> ops = log.ops;
    std::sort(ops.begin(), ops.end(),
              [](const OpLog::Op &a, const OpLog::Op &b) {
                  return a.endNs < b.endNs;
              });
    size_t n = std::max<size_t>(1, window_ops);
    size_t windows = std::max<size_t>(1, ops.size() / n);
    if (ops.size() < n)
        n = ops.size();
    std::vector<double> rate, p50, p90;
    int64_t prev_end = ops.empty() ? 0 : ops.front().startNs;
    for (size_t w = 0; w < windows && n > 0; ++w) {
        auto first = ops.begin() + static_cast<ptrdiff_t>(w * n);
        auto last = first + static_cast<ptrdiff_t>(n);
        int64_t end = (last - 1)->endNs;
        rate.push_back(end > prev_end ? 1e9 * static_cast<double>(n) /
                                            static_cast<double>(end - prev_end)
                                      : 0.0);
        prev_end = end;
        p50.push_back(latencyPercentile(first, last, 50));
        p90.push_back(latencyPercentile(first, last, 90));
    }
    Summary s;
    s.opsPerS = quantile(rate, 0.9);
    s.p50Ms = quantile(p50, 0.1);
    s.p90Ms = quantile(p90, 0.1);
    return s;
}

Summary
summarizeByKind(const OpLog &log, double q)
{
    std::map<size_t, std::vector<double>> by_kind;
    for (const OpLog::Op &op : log.ops)
        by_kind[op.kind].push_back(op.ms());
    std::vector<double> best;
    double cycle_ms = 0.0;
    for (auto &[kind, ms] : by_kind) {
        best.push_back(quantile(std::move(ms), q));
        cycle_ms += best.back();
    }
    Summary s;
    s.opsPerS = cycle_ms > 0.0
                    ? 1e3 * static_cast<double>(best.size()) / cycle_ms
                    : 0.0;
    s.p50Ms = quantile(best, 0.5);
    s.p90Ms = quantile(best, 0.9);
    return s;
}

std::vector<size_t>
seededPermutation(uint64_t seed, size_t n)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    soff::SplitMix64 rng(seed);
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBelow(i)]);
    return order;
}

void
alignLikeFreshContext(soff::rt::Context &ctx)
{
    constexpr uint64_t kFreshBase = 64;
    constexpr uint64_t kCachePeriod = 64 * 1024;
    soff::rt::Buffer probe = ctx.createBuffer(64);
    uint64_t pad = (kFreshBase + kCachePeriod -
                    probe.deviceAddress() % kCachePeriod) %
                   kCachePeriod;
    ctx.releaseBuffer(probe);
    if (pad > 0)
        ctx.createBuffer(pad);
}

const std::map<std::string, uint64_t> &
goldenCycles()
{
    static const std::map<std::string, uint64_t> golden = [] {
        // The committed Fig. 11 reference, read from the checkout root.
        std::ifstream in("BENCH_fig11.json");
        if (!in)
            throw std::runtime_error("cannot open BENCH_fig11.json");
        std::stringstream text;
        text << in.rdbuf();
        const std::string s = text.str();
        std::map<std::string, uint64_t> rows;
        const std::string app_key = "\"app\": \"";
        const std::string cycles_key = "\"cycles\": ";
        for (size_t at = s.find(app_key); at != std::string::npos;
             at = s.find(app_key, at + 1)) {
            size_t name_start = at + app_key.size();
            std::string name =
                s.substr(name_start, s.find('"', name_start) - name_start);
            size_t next = s.find(app_key, name_start);
            size_t c = s.find(cycles_key, name_start);
            if (c == std::string::npos || c > next)
                throw std::runtime_error("BENCH_fig11.json row '" + name +
                                         "' has no cycles counter");
            rows[name] = std::stoull(s.substr(c + cycles_key.size()));
        }
        if (rows.empty())
            throw std::runtime_error("BENCH_fig11.json has no rows");
        return rows;
    }();
    return golden;
}

std::string
truncateLastKernel(const std::string &source, uint64_t seed)
{
    size_t kernel = source.rfind("__kernel");
    size_t open = kernel == std::string::npos ? kernel
                                              : source.find('{', kernel);
    size_t close = source.rfind('}');
    if (open == std::string::npos || close == std::string::npos ||
        close <= open + 1)
        throw std::runtime_error("source has no kernel body to truncate");
    soff::SplitMix64 rng(seed);
    // Cut somewhere in (open, close): the body's '{' stays, its '}' goes.
    size_t cut = open + 1 + rng.nextBelow(close - open - 1);
    return source.substr(0, cut);
}

int
plannedInstances(const soff::core::CompiledProgram &program,
                 size_t kernel_index)
{
    // Mirrors rt::Program::instancesFor: the shared partition when every
    // kernel of a multi-kernel program fits, the solo maximum otherwise.
    bool all_fit = true;
    for (int n : program.sharedInstanceCounts)
        all_fit &= n > 0;
    int n = all_fit && program.kernels.size() > 1
                ? program.sharedInstanceCounts[kernel_index]
                : program.kernels[kernel_index].maxInstancesAlone;
    return std::max(1, n);
}

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

uint64_t
countInstructions(const soff::ir::Module &module)
{
    uint64_t n = 0;
    for (const auto &kernel : module.kernels()) {
        for (const auto &block : kernel->blocks())
            n += block->size();
    }
    return n;
}

} // namespace perfbench
