/** @file Observability-layer tests: the architectural StatsReport must
 *  be bit-identical across all three scheduler modes, the Chrome trace
 *  export must be structurally valid
 *  trace-event JSON, the SOFF_STATS export must parse, event profiling
 *  timestamps must be monotonic, and the SOFF_TRACE window grammar must
 *  reject malformed values. */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "benchsuite/suite.hpp"
#include "runtime/runtime.hpp"
#include "sim/stats.hpp"

#include "scoped_env.hpp"

namespace soff
{
namespace
{

/** Removes a file on scope exit (exports written by the tests). */
class ScopedFile
{
  public:
    explicit ScopedFile(std::string path) : path_(std::move(path)) {}
    ~ScopedFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }
    bool
    exists() const
    {
        std::ifstream in(path_);
        return in.good();
    }
    std::string
    contents() const
    {
        std::ifstream in(path_);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        return buffer.str();
    }

  private:
    std::string path_;
};

/**
 * Minimal recursive-descent JSON syntax checker — enough of RFC 8259
 * to verify our own exports end-to-end (structure, nesting, string
 * escapes, numbers) without depending on an external parser.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : text_(text) {}

    bool
    valid()
    {
        pos_ = 0;
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == text_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // control chars must be escaped
            if (c == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    return false;
                char esc = text_[pos_];
                if (esc == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos_;
                        if (pos_ >= text_.size() ||
                            !isxdigit(static_cast<unsigned char>(
                                text_[pos_])))
                            return false;
                    }
                } else if (std::string("\"\\/bfnrt").find(esc) ==
                           std::string::npos) {
                    return false;
                }
            }
            ++pos_;
        }
        return false; // unterminated
    }

    bool
    number()
    {
        size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        if (!digits())
            return false;
        if (peek() == '.') {
            ++pos_;
            if (!digits())
                return false;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            if (!digits())
                return false;
        }
        return pos_ > start;
    }

    bool
    digits()
    {
        size_t start = pos_;
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9')
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

    const std::string &text_;
    size_t pos_ = 0;
};

sim::NDRange
range1d(uint64_t global, uint64_t local)
{
    sim::NDRange nd;
    nd.globalSize[0] = global;
    nd.localSize[0] = local;
    return nd;
}

/** A small kernel with global loads and stores so the memory counters
 *  and channel occupancy tracks are all exercised. */
constexpr const char *kSmallSrc =
    "__kernel void t(__global int *X, __global int *Y) {\n"
    "  int i = get_global_id(0);\n"
    "  Y[i] = X[i] + X[(i + 1) % get_global_size(0)];\n"
    "}\n";

rt::LaunchResult
launchSmall(const sim::PlatformConfig &platform, rt::Event *event = nullptr,
            rt::Context *reuse = nullptr)
{
    rt::Context local_ctx;
    rt::Context &ctx = reuse != nullptr ? *reuse : local_ctx;
    rt::Program program = ctx.buildProgram(kSmallSrc);
    rt::KernelHandle kernel = program.createKernel("t");
    rt::Buffer x = ctx.createBuffer(64 * 4);
    rt::Buffer y = ctx.createBuffer(64 * 4);
    std::vector<int32_t> init(64, 3);
    ctx.writeBuffer(x, init.data(), 64 * 4);
    kernel.setArg(0, x);
    kernel.setArg(1, y);
    return ctx.enqueueNDRange(kernel, range1d(64, 16),
                              rt::ExecutionMode::Simulate, platform, 0,
                              event);
}

// --- StatsReport bit-identity across schedulers ------------------------

/** The first N runnable applications of Table II (IR apps excluded). */
std::vector<std::string>
statsAppNames()
{
    std::vector<std::string> names;
    for (const benchsuite::App &app : benchsuite::allApps()) {
        if (app.expectInsufficientResources)
            continue;
        names.push_back(app.name);
        if (names.size() == 10)
            break;
    }
    return names;
}

std::vector<std::shared_ptr<const sim::StatsReport>>
runForStats(const benchsuite::App &app, sim::SchedulerMode mode)
{
    benchsuite::BenchContext ctx(benchsuite::Engine::SoffSim);
    sim::PlatformConfig platform;
    platform.scheduler = mode;
    ctx.setPlatformConfig(platform);
    EXPECT_TRUE(benchsuite::runApp(app, ctx)) << app.name;
    return ctx.metrics().statsReports;
}

/** Every architectural counter — per-component busy/stall cycles and
 *  token counts, channel high-water marks, cache/DRAM/local counters,
 *  per-datapath retirement timing — must be bit-identical whichever
 *  simulation kernel produced it. */
class StatsIdentity : public ::testing::TestWithParam<std::string>
{};

TEST_P(StatsIdentity, BitIdenticalAcrossSchedulers)
{
    const benchsuite::App *app = benchsuite::findApp(GetParam());
    ASSERT_NE(app, nullptr);

    auto reference = runForStats(*app, sim::SchedulerMode::Reference);
    ASSERT_FALSE(reference.empty()) << "no launches recorded";

    std::vector<std::pair<std::string, std::vector<
        std::shared_ptr<const sim::StatsReport>>>> others;
    others.emplace_back(
        "event-driven",
        runForStats(*app, sim::SchedulerMode::EventDriven));
    others.emplace_back("compiled",
                        runForStats(*app, sim::SchedulerMode::Compiled));

    for (const auto &[label, reports] : others) {
        ASSERT_EQ(reports.size(), reference.size()) << label;
        for (size_t i = 0; i < reports.size(); ++i) {
            ASSERT_NE(reports[i], nullptr) << label;
            EXPECT_EQ(sim::diffStatsReports(*reference[i], *reports[i]),
                      "")
                << app->name << " launch " << i << " vs " << label;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Apps, StatsIdentity, ::testing::ValuesIn(statsAppNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

// --- StatsReport contents ----------------------------------------------

TEST(StatsReport, AttachedToLaunchResultWithSaneCounters)
{
    ScopedEnv sched("SOFF_SCHEDULER", nullptr);
    ScopedEnv trace("SOFF_TRACE", nullptr);
    ScopedEnv stats("SOFF_STATS", nullptr);
    rt::LaunchResult result = launchSmall({});
    ASSERT_NE(result.statsReport, nullptr);
    const sim::StatsReport &report = *result.statsReport;
    EXPECT_EQ(report.cycles, result.cycles);
    EXPECT_GT(report.busyCycles, 0u);
    EXPECT_FALSE(report.components.empty());
    EXPECT_FALSE(report.channels.empty());
    // The coarse CircuitStats rollup and the full report must agree.
    EXPECT_EQ(report.cacheHits, result.stats.cacheHits);
    EXPECT_EQ(report.cacheMisses, result.stats.cacheMisses);
    EXPECT_EQ(report.dramTransfers, result.stats.dramTransfers);
    EXPECT_GT(report.cacheHits + report.cacheMisses, 0u)
        << "the kernel loads global memory";
    EXPECT_GT(report.dramBytes, 0u);
    // busy + stalled <= cycles, per component (idle is the remainder).
    for (const sim::ComponentStats &c : report.components) {
        EXPECT_LE(c.busy + c.stalled, report.cycles) << c.name;
    }
    // Every retirement terminal retired work; II is finite.
    ASSERT_FALSE(report.datapaths.empty());
    uint64_t retired = 0;
    for (const sim::DatapathStats &dp : report.datapaths) {
        retired += dp.retired;
        if (dp.retired > 0) {
            EXPECT_LE(dp.firstRetire, dp.lastRetire);
            EXPECT_LT(dp.lastRetire, report.cycles);
        }
    }
    EXPECT_EQ(retired, 64u) << "all work-items retire exactly once";
}

// --- Chrome trace export -----------------------------------------------

TEST(TraceExport, ValidTraceEventJson)
{
    ScopedEnv sched("SOFF_SCHEDULER", nullptr);
    ScopedEnv trace_env("SOFF_TRACE", nullptr);
    ScopedEnv stats_env("SOFF_STATS", nullptr);
    ScopedFile file("stats_test_trace.json");
    sim::PlatformConfig platform;
    platform.tracePath = file.path();
    launchSmall(platform);
    ASSERT_TRUE(file.exists());
    std::string text = file.contents();
    JsonChecker checker(text);
    EXPECT_TRUE(checker.valid()) << "trace must be well-formed JSON";
    // Structural spot checks: the trace-event envelope, thread-name
    // metadata records, complete-event activity spans, and channel
    // occupancy counter records.
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\": \"M\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\": \"C\""), std::string::npos);
    EXPECT_NE(text.find("\"occupancy\""), std::string::npos);
    EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
}

TEST(TraceExport, CycleWindowReducesEventCount)
{
    ScopedEnv sched("SOFF_SCHEDULER", nullptr);
    ScopedEnv trace_env("SOFF_TRACE", nullptr);
    ScopedEnv stats_env("SOFF_STATS", nullptr);
    ScopedFile full("stats_test_trace_full.json");
    ScopedFile windowed("stats_test_trace_window.json");
    sim::PlatformConfig platform;
    platform.tracePath = full.path();
    launchSmall(platform);
    platform.tracePath = windowed.path();
    platform.traceStart = 0;
    platform.traceEnd = 20;
    launchSmall(platform);
    ASSERT_TRUE(full.exists());
    ASSERT_TRUE(windowed.exists());
    std::string windowed_text = windowed.contents();
    EXPECT_TRUE(JsonChecker(windowed_text).valid());
    EXPECT_LT(windowed_text.size(), full.contents().size())
        << "a 20-cycle window must record less than the full run";
}

// --- SOFF_STATS / SOFF_TRACE export through the environment ------------

TEST(StatsExport, ValidStructuredJson)
{
    ScopedEnv sched("SOFF_SCHEDULER", nullptr);
    ScopedEnv trace_env("SOFF_TRACE", nullptr);
    ScopedEnv stats_env("SOFF_STATS", nullptr);
    ScopedFile file("stats_test_stats.json");
    sim::PlatformConfig platform;
    platform.statsPath = file.path();
    launchSmall(platform);
    ASSERT_TRUE(file.exists());
    std::string text = file.contents();
    EXPECT_TRUE(JsonChecker(text).valid())
        << "stats export must be well-formed JSON";
    EXPECT_NE(text.find("\"soff-stats-v1\""), std::string::npos);
    EXPECT_NE(text.find("\"componentKinds\""), std::string::npos);
    EXPECT_NE(text.find("\"datapaths\""), std::string::npos);
    EXPECT_NE(text.find("\"hitRate\""), std::string::npos);
}

TEST(StatsExport, EnvironmentKnobsDriveBothExports)
{
    ScopedEnv sched("SOFF_SCHEDULER", nullptr);
    ScopedFile trace_file("stats_test_env_trace.json");
    ScopedFile stats_file("stats_test_env_stats.json");
    ScopedEnv trace_env("SOFF_TRACE",
                        "stats_test_env_trace.json:0:100");
    ScopedEnv stats_env("SOFF_STATS", "stats_test_env_stats.json");
    launchSmall({});
    ASSERT_TRUE(trace_file.exists());
    ASSERT_TRUE(stats_file.exists());
    EXPECT_TRUE(JsonChecker(trace_file.contents()).valid());
    EXPECT_TRUE(JsonChecker(stats_file.contents()).valid());
}

// --- Event profiling ---------------------------------------------------

TEST(Profiling, TimestampsMonotonicAndTiled)
{
    ScopedEnv sched("SOFF_SCHEDULER", nullptr);
    ScopedEnv trace_env("SOFF_TRACE", nullptr);
    ScopedEnv stats_env("SOFF_STATS", nullptr);
    rt::Context ctx;
    rt::Event first, second;
    rt::LaunchResult r1 = launchSmall({}, &first, &ctx);
    rt::LaunchResult r2 = launchSmall({}, &second, &ctx);
    ASSERT_TRUE(first.valid());
    ASSERT_TRUE(second.valid());

    uint64_t queued =
        first.profilingInfo(rt::ClProfilingInfo::CommandQueued);
    uint64_t submit =
        first.profilingInfo(rt::ClProfilingInfo::CommandSubmit);
    uint64_t start =
        first.profilingInfo(rt::ClProfilingInfo::CommandStart);
    uint64_t end = first.profilingInfo(rt::ClProfilingInfo::CommandEnd);
    EXPECT_LE(queued, submit);
    EXPECT_LE(submit, start);
    EXPECT_LE(start, end);
    EXPECT_LT(start, end) << "a real launch takes nonzero device time";

    // END - START is the cycle count through the fmax estimate.
    double expected_ns =
        static_cast<double>(r1.cycles) * 1000.0 / r1.fmaxMhz;
    double measured_ns = static_cast<double>(end - start);
    EXPECT_NEAR(measured_ns, expected_ns, 1.0);

    // The in-order queue tiles the timeline: the second command is
    // queued exactly where the first one ended.
    EXPECT_EQ(second.queuedNs(), end);
    EXPECT_LE(second.queuedNs(), second.submitNs());
    EXPECT_LE(second.startNs(), second.endNs());

    // soffGetKernelStats: the per-launch report rides on the event.
    auto stats = rt::soffGetKernelStats(first);
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->cycles, r1.cycles);
    EXPECT_EQ(stats.get(), r1.statsReport.get())
        << "same report as the LaunchResult";
    (void)r2;
}

TEST(Profiling, UnattachedEventReportsNotAvailable)
{
    rt::Event event;
    EXPECT_FALSE(event.valid());
    try {
        event.profilingInfo(rt::ClProfilingInfo::CommandStart);
        FAIL() << "profiling an unattached event must throw";
    } catch (const rt::OpenClError &e) {
        EXPECT_EQ(e.status(), ClStatus::ProfilingInfoNotAvailable);
    }
    EXPECT_THROW(rt::soffGetKernelStats(event), rt::OpenClError);
}

TEST(Profiling, UnknownParameterNameRejected)
{
    ScopedEnv sched("SOFF_SCHEDULER", nullptr);
    ScopedEnv trace_env("SOFF_TRACE", nullptr);
    ScopedEnv stats_env("SOFF_STATS", nullptr);
    rt::Event event;
    launchSmall({}, &event);
    ASSERT_TRUE(event.valid());
    try {
        event.profilingInfo(static_cast<rt::ClProfilingInfo>(0x9999));
        FAIL() << "unknown parameter names must be rejected";
    } catch (const rt::OpenClError &e) {
        EXPECT_EQ(e.status(), ClStatus::InvalidValue);
    }
}

// --- Strict SOFF_TRACE parsing -----------------------------------------

class TraceEnvParsing : public ::testing::Test
{
  protected:
    void
    launchTrivial()
    {
        rt::Context ctx;
        rt::Program program = ctx.buildProgram(
            "__kernel void t(__global int *X) "
            "{ X[get_global_id(0)] = 1; }");
        rt::KernelHandle kernel = program.createKernel("t");
        rt::Buffer b = ctx.createBuffer(64 * 4);
        kernel.setArg(0, b);
        ctx.enqueueNDRange(kernel, range1d(64, 64));
    }
};

TEST_F(TraceEnvParsing, RejectsMalformedWindows)
{
    ScopedEnv sched("SOFF_SCHEDULER", nullptr);
    ScopedEnv stats_env("SOFF_STATS", nullptr);
    for (const char *bad :
         {"trace.json:5", "trace.json:a:b", "trace.json:9:3",
          "trace.json:5:5", ":0:5", "trace.json::5", "trace.json:5:",
          "trace.json:-1:5", "trace.json: 1:5",
          "trace.json:99999999999999999999:999999999999999999999"}) {
        ScopedEnv trace_env("SOFF_TRACE", bad);
        try {
            launchTrivial();
            FAIL() << "SOFF_TRACE='" << bad << "' must be rejected";
        } catch (const rt::OpenClError &e) {
            EXPECT_EQ(e.status(), ClStatus::InvalidValue) << bad;
            EXPECT_NE(std::string(e.what()).find("SOFF_TRACE"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_FALSE(std::ifstream("trace.json").good())
            << "a rejected spec must not create '" << bad << "'";
    }
}

TEST_F(TraceEnvParsing, AcceptsPathAndWindowForms)
{
    ScopedEnv sched("SOFF_SCHEDULER", nullptr);
    ScopedEnv stats_env("SOFF_STATS", nullptr);
    {
        ScopedFile file("stats_test_plain.json");
        ScopedEnv trace_env("SOFF_TRACE", "stats_test_plain.json");
        EXPECT_NO_THROW(launchTrivial());
        EXPECT_TRUE(file.exists());
    }
    {
        ScopedFile file("stats_test_win.json");
        ScopedEnv trace_env("SOFF_TRACE", "stats_test_win.json:10:200");
        EXPECT_NO_THROW(launchTrivial());
        EXPECT_TRUE(file.exists());
    }
}

} // namespace
} // namespace soff
