#include "sim/fault.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace soff::sim
{

namespace
{

constexpr const char *kGrammar =
    "expected a bare integer seed or a comma-separated key=value list "
    "with keys: seed, stall, memstall, stallmax, dramevery, dramspike, "
    "dramjitter, slack, check, abortevery, dmaevery, poolevery";

uint64_t
parseU64(const std::string &key, const std::string &value)
{
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(value.c_str(), &end, 0);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
        value[0] == '-') {
        throw RuntimeError(strFormat(
            "invalid SOFF_FAULTS value '%s' for '%s': expected a "
            "non-negative integer", value.c_str(), key.c_str()));
    }
    return static_cast<uint64_t>(v);
}

double
parseProb(const std::string &key, const std::string &value)
{
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
        v < 0.0 || v > 1.0) {
        throw RuntimeError(strFormat(
            "invalid SOFF_FAULTS value '%s' for '%s': expected a "
            "probability in [0, 1]", value.c_str(), key.c_str()));
    }
    return v;
}

} // namespace

FaultConfig
FaultConfig::parse(const std::string &text)
{
    FaultConfig cfg;
    // Bare integer: just the seed, default everything else.
    if (text.find_first_of(",=") == std::string::npos) {
        cfg.seed = parseU64("seed", text);
        return cfg;
    }
    size_t pos = 0;
    while (pos < text.size()) {
        size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        std::string item = text.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        size_t eq = item.find('=');
        if (eq == std::string::npos) {
            throw RuntimeError(strFormat(
                "invalid SOFF_FAULTS item '%s': %s", item.c_str(),
                kGrammar));
        }
        std::string key = item.substr(0, eq);
        std::string value = item.substr(eq + 1);
        if (key == "seed") {
            cfg.seed = parseU64(key, value);
        } else if (key == "stall") {
            cfg.stallProb = parseProb(key, value);
        } else if (key == "memstall") {
            cfg.memStallProb = parseProb(key, value);
        } else if (key == "stallmax") {
            uint64_t v = parseU64(key, value);
            if (v < 1 || v >= FaultPlan::kEpochCycles) {
                throw RuntimeError(strFormat(
                    "invalid SOFF_FAULTS stallmax '%s': expected "
                    "1..%llu", value.c_str(),
                    static_cast<unsigned long long>(
                        FaultPlan::kEpochCycles - 1)));
            }
            cfg.stallMax = static_cast<int>(v);
        } else if (key == "dramevery") {
            cfg.dramSpikeEvery = static_cast<int>(
                std::min<uint64_t>(parseU64(key, value), 1u << 20));
        } else if (key == "dramspike") {
            cfg.dramSpikeCycles = static_cast<int>(
                std::min<uint64_t>(parseU64(key, value), 1u << 20));
        } else if (key == "dramjitter") {
            cfg.dramJitterMax = static_cast<int>(
                std::min<uint64_t>(parseU64(key, value), 1u << 20));
        } else if (key == "slack") {
            cfg.fifoSlackCut = static_cast<int>(
                std::min<uint64_t>(parseU64(key, value), 1u << 20));
        } else if (key == "check") {
            cfg.checkInvariants = parseU64(key, value) != 0;
        } else if (key == "abortevery") {
            cfg.abortEvery = static_cast<int>(
                std::min<uint64_t>(parseU64(key, value), 1u << 20));
        } else if (key == "dmaevery") {
            cfg.dmaFailEvery = static_cast<int>(
                std::min<uint64_t>(parseU64(key, value), 1u << 20));
        } else if (key == "poolevery") {
            cfg.poolFailEvery = static_cast<int>(
                std::min<uint64_t>(parseU64(key, value), 1u << 20));
        } else {
            throw RuntimeError(strFormat(
                "unknown SOFF_FAULTS key '%s': %s", key.c_str(),
                kGrammar));
        }
    }
    return cfg;
}

std::string
FaultConfig::describe() const
{
    if (!enabled() && !checkInvariants)
        return "faults off";
    return strFormat(
        "seed=%llu stall=%.3f memstall=%.3f stallmax=%d dramevery=%d "
        "dramspike=%d dramjitter=%d slack=%d check=%d "
        "abortevery=%d dmaevery=%d poolevery=%d",
        static_cast<unsigned long long>(seed), stallProb, memStallProb,
        stallMax, dramSpikeEvery, dramSpikeCycles, dramJitterMax,
        fifoSlackCut, checkInvariants ? 1 : 0, abortEvery, dmaFailEvery,
        poolFailEvery);
}

uint64_t
FaultPlan::hash(uint64_t a, uint64_t b, uint64_t c)
{
    // One SplitMix64 advance over a mixed key: stateless, so queries
    // are order- and thread-independent (see file comment).
    SplitMix64 g(a ^ (b + 1) * 0x9e3779b97f4a7c15ULL ^
                 (c + 1) * 0xc2b2ae3d27d4eb4fULL);
    return g.next();
}

bool
FaultPlan::channelBlocked(uint32_t channel, FaultClass cls, uint64_t now,
                          uint64_t *clear_at) const
{
    double prob = cls == FaultClass::Memory ? cfg_.memStallProb
                                            : cfg_.stallProb;
    if (!cfg_.enabled() || prob <= 0.0 || cfg_.stallMax < 1)
        return false;
    uint64_t epoch = now / kEpochCycles;
    uint64_t h = hash(cfg_.seed,
                      (static_cast<uint64_t>(channel) << 1) |
                          static_cast<uint64_t>(cls),
                      epoch);
    // Top bits select whether this (channel, epoch) has a stall window.
    if (static_cast<double>(h >> 11) >=
        prob * static_cast<double>(1ULL << 53))
        return false;
    uint64_t max_len = static_cast<uint64_t>(
        std::min<int>(cfg_.stallMax,
                      static_cast<int>(kEpochCycles) - 1));
    uint64_t len = 1 + (h & 0xffffffffu) % max_len;
    if (now % kEpochCycles >= len)
        return false;
    *clear_at = epoch * kEpochCycles + len;
    return true;
}

void
FaultPlan::dramPerturb(uint64_t transfer, uint64_t *extra_latency,
                       uint64_t *extra_occupancy) const
{
    *extra_latency = 0;
    *extra_occupancy = 0;
    if (!cfg_.enabled())
        return;
    uint64_t h = hash(cfg_.seed, 0x44524d44u /* 'DRMD' */, transfer);
    if (cfg_.dramSpikeEvery > 0 &&
        h % static_cast<uint64_t>(cfg_.dramSpikeEvery) == 0) {
        *extra_latency = static_cast<uint64_t>(cfg_.dramSpikeCycles);
    }
    if (cfg_.dramJitterMax > 0) {
        *extra_occupancy =
            (h >> 32) % static_cast<uint64_t>(cfg_.dramJitterMax + 1);
    }
}

bool
FaultPlan::launchAborts(uint64_t ordinal, int attempt,
                        uint64_t *abort_at) const
{
    if (!cfg_.enabled() || cfg_.abortEvery < 1)
        return false;
    uint64_t h = hash(cfg_.seed, 0x4142524bu /* 'ABRK' */,
                      ordinal * 31 + static_cast<uint64_t>(attempt));
    if (h % static_cast<uint64_t>(cfg_.abortEvery) != 0)
        return false;
    // A small seeded window: early enough that realistic launches are
    // still running, so the fault is actually observed.
    *abort_at = 1 + (h >> 32) % 1024;
    return true;
}

bool
FaultPlan::dmaFails(uint64_t ordinal, int attempt) const
{
    if (!cfg_.enabled() || cfg_.dmaFailEvery < 1)
        return false;
    uint64_t h = hash(cfg_.seed, 0x444d4146u /* 'DMAF' */,
                      ordinal * 31 + static_cast<uint64_t>(attempt));
    return h % static_cast<uint64_t>(cfg_.dmaFailEvery) == 0;
}

bool
FaultPlan::poolCheckoutFails(uint64_t ordinal, int attempt) const
{
    if (!cfg_.enabled() || cfg_.poolFailEvery < 1)
        return false;
    uint64_t h = hash(cfg_.seed, 0x504f4f4cu /* 'POOL' */,
                      ordinal * 31 + static_cast<uint64_t>(attempt));
    return h % static_cast<uint64_t>(cfg_.poolFailEvery) == 0;
}

int
FaultPlan::balanceSlack(uint32_t channel, int planned) const
{
    if (!cfg_.enabled() || cfg_.fifoSlackCut < 1 || planned < 1)
        return planned;
    uint64_t h = hash(cfg_.seed, 0x46494641u /* 'FIFA' */, channel);
    int cut = static_cast<int>(
        h % static_cast<uint64_t>(cfg_.fifoSlackCut + 1));
    return std::max(0, planned - cut);
}

} // namespace soff::sim
