#include "trace.hpp"

#include <algorithm>

#include "support/json.hpp"

namespace perfbench
{

Tracer::Scope::Scope(Tracer &tracer, const char *name, int64_t op)
    : tracer_(tracer)
{
    if (!tracer_.enabled_)
        return;
    Span span;
    span.name = name;
    span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
    span.op = op < 0 && span.parent >= 0
                  ? tracer_.spans_[static_cast<size_t>(span.parent)].op
                  : op;
    index_ = static_cast<int>(tracer_.spans_.size());
    tracer_.spans_.push_back(std::move(span));
    tracer_.open_.push_back(index_);
    // Stamp last so the bookkeeping above stays outside the span.
    tracer_.spans_.back().startNs = nowNs();
}

Tracer::Scope::~Scope()
{
    if (index_ < 0)
        return;
    int64_t end = nowNs();
    Span &span = tracer_.spans_[static_cast<size_t>(index_)];
    span.endNs = end;
    tracer_.open_.pop_back();
    if (span.parent >= 0) {
        tracer_.spans_[static_cast<size_t>(span.parent)].childNs +=
            end - span.startNs;
    }
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
Tracer::medianSelfMs(const std::string &name) const
{
    std::vector<double> v;
    for (const Span &s : spans_) {
        if (s.name == name)
            v.push_back(s.selfMs());
    }
    return median(std::move(v));
}

void
Tracer::writeJson(const std::string &path) const
{
    soff::support::JsonWriter w;
    w.beginObject();
    w.key("spans").beginArray();
    int64_t base = spans_.empty() ? 0 : spans_.front().startNs;
    for (const Span &s : spans_) {
        w.beginObject();
        w.field("name", s.name);
        w.field("startUs", (s.startNs - base) / 1e3);
        w.field("endUs", (s.endNs - base) / 1e3);
        w.field("parent", s.parent);
        w.field("op", static_cast<int64_t>(s.op));
        w.field("selfMs", s.selfMs());
        w.endObject();
    }
    w.endArray();
    w.key("counters").beginObject();
    for (const auto &[name, value] : counters_)
        w.field(name, value);
    w.endObject();
    w.endObject();
    w.writeFile(path);
}

} // namespace perfbench
