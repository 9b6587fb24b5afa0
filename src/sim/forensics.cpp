#include "sim/forensics.hpp"

#include <map>

#include "support/diagnostics.hpp"
#include "support/strings.hpp"

namespace soff::sim
{

namespace
{

const char *
reasonVerb(DeadlockReport::Wait::Reason r)
{
    switch (r) {
      case DeadlockReport::Wait::Reason::PopEmpty:
        return "waits for a token on";
      case DeadlockReport::Wait::Reason::PushFull:
        return "waits for space on";
      case DeadlockReport::Wait::Reason::Lock:
        return "waits for";
    }
    return "waits on";
}

/**
 * Finds one cycle in the wait-for graph by DFS and renders it into
 * report->waitCycle. Edges were appended in component-index order and
 * adjacency lists preserve that order, so the cycle found is
 * deterministic for a given circuit state.
 */
void
extractWaitCycle(const std::vector<BlockageProbe::Edge> &edges,
                 DeadlockReport *report)
{
    std::vector<const Component *> nodes;
    std::map<const Component *, std::vector<size_t>> adj;
    for (size_t i = 0; i < edges.size(); ++i) {
        auto [it, fresh] = adj.try_emplace(edges[i].from);
        if (fresh)
            nodes.push_back(edges[i].from);
        it->second.push_back(i);
    }
    std::map<const Component *, int> color; // 0 new, 1 on path, 2 done
    struct Frame
    {
        const Component *node;
        size_t next;   ///< Next adjacency position to explore.
        size_t inEdge; ///< Edge used to enter this node.
    };
    for (const Component *start : nodes) {
        if (color[start] != 0)
            continue;
        std::vector<Frame> stack{{start, 0, SIZE_MAX}};
        color[start] = 1;
        while (!stack.empty()) {
            Frame &f = stack.back();
            auto it = adj.find(f.node);
            if (it == adj.end() || f.next >= it->second.size()) {
                color[f.node] = 2;
                stack.pop_back();
                continue;
            }
            size_t ei = it->second[f.next++];
            const Component *to = edges[ei].to;
            int c = color[to];
            if (c == 0) {
                color[to] = 1;
                stack.push_back({to, 0, ei});
            } else if (c == 1) {
                // Back edge: the path from `to` to the stack top plus
                // this edge is a wait cycle.
                size_t base = stack.size();
                while (base > 0 && stack[base - 1].node != to)
                    --base;
                for (size_t j = base - 1; j < stack.size(); ++j) {
                    size_t e = j + 1 < stack.size()
                                   ? stack[j + 1].inEdge
                                   : ei;
                    report->waitCycle.push_back(
                        stack[j].node->name() + " --[" +
                        edges[e].label + "]--> " +
                        edges[e].to->name());
                }
                return;
            }
        }
    }
}

} // namespace

// ----------------------------------------------------------------------
// BlockageProbe
// ----------------------------------------------------------------------
void
BlockageProbe::record(const ChannelBase *ch,
                      DeadlockReport::Wait::Reason r, std::string detail)
{
    DeadlockReport::Wait w;
    w.component = current_->name();
    w.reason = r;
    w.channel = strFormat("ch%u [%zu/%zu]", ch->id(), ch->occupancy(),
                          ch->capacityTokens());
    w.detail = std::move(detail);
    // An empty channel waits on its producer, a full one on its
    // consumer.
    const Component *peer = r == DeadlockReport::Wait::Reason::PopEmpty
                                ? ch->producer()
                                : ch->consumer();
    if (peer != nullptr && peer != current_) {
        w.blockers.push_back(peer->name());
        edges_.push_back({current_, peer,
                          std::string(reasonVerb(r)) + " " + w.channel});
    }
    report_->waits.push_back(std::move(w));
}

void
BlockageProbe::waitPop(const ChannelBase *ch, std::string detail)
{
    if (ch == nullptr || current_ == nullptr || ch->occupancy() > 0)
        return;
    record(ch, DeadlockReport::Wait::Reason::PopEmpty,
           std::move(detail));
}

void
BlockageProbe::waitPush(const ChannelBase *ch, std::string detail)
{
    if (ch == nullptr || current_ == nullptr ||
        ch->occupancy() < ch->capacityTokens())
        return;
    record(ch, DeadlockReport::Wait::Reason::PushFull,
           std::move(detail));
}

void
BlockageProbe::waitLock(int lock_index, const void *holder,
                        std::string detail)
{
    if (current_ == nullptr)
        return;
    const Component *h = resolve(holder);
    DeadlockReport::Wait w;
    w.component = current_->name();
    w.reason = DeadlockReport::Wait::Reason::Lock;
    w.channel = strFormat("lock[%d]", lock_index);
    w.detail = std::move(detail);
    w.blockers.push_back(h != nullptr ? h->name() : "<unknown holder>");
    if (h != nullptr && h != current_) {
        edges_.push_back(
            {current_, h, strFormat("waits for lock[%d]", lock_index)});
    }
    report_->waits.push_back(std::move(w));
}

void
BlockageProbe::note(const std::string &text)
{
    report_->notes.push_back(
        current_ != nullptr ? current_->name() + ": " + text : text);
}

void
BlockageProbe::invariant(const std::string &text)
{
    report_->invariants.push_back(
        current_ != nullptr ? current_->name() + ": " + text : text);
}

const Component *
BlockageProbe::resolve(const void *addr) const
{
    for (const Component *c : all_) {
        if (static_cast<const void *>(c) == addr)
            return c;
    }
    return nullptr;
}

// ----------------------------------------------------------------------
// DeadlockReport
// ----------------------------------------------------------------------
std::string
DeadlockReport::render() const
{
    DiagnosticEngine diags;
    SourceLoc no_loc;
    const char *what = "deadlock";
    const char *why = "no component can ever make progress again";
    if (kind == HangKind::Timeout) {
        what = "timeout";
        why = "the cycle budget elapsed with work still pending";
    } else if (kind == HangKind::InvariantViolation) {
        what = "invariant violation";
        why = "an internal simulator/compiler invariant was broken";
    }
    diags.error(no_loc, strFormat("%s at cycle %llu: %s", what,
                                  static_cast<unsigned long long>(cycle),
                                  why));
    for (const std::string &inv : invariants)
        diags.error(no_loc, "invariant violated: " + inv);
    if (!waitCycle.empty()) {
        diags.note(no_loc,
                   strFormat("wait-for cycle (%zu edge(s)):",
                             waitCycle.size()));
        for (const std::string &hop : waitCycle)
            diags.note(no_loc, "  " + hop);
    }
    size_t shown = 0;
    for (const Wait &w : waits) {
        if (++shown > 32) {
            diags.note(no_loc,
                       strFormat("... and %zu more stalled component(s)",
                                 waits.size() - 32));
            break;
        }
        std::string line = "stalled: " + w.component + " " +
                           reasonVerb(w.reason) + " " + w.channel;
        if (!w.detail.empty())
            line += " (" + w.detail + ")";
        if (!w.blockers.empty())
            line += "; blocked on: " + strJoin(w.blockers, ", ");
        diags.note(no_loc, line);
    }
    for (const std::string &n : notes)
        diags.note(no_loc, n);
    return diags.report();
}

// ----------------------------------------------------------------------
// Simulator::diagnose (declared in simulator.hpp; lives here so the
// simulator core stays forensics-free on the hot path)
// ----------------------------------------------------------------------
std::shared_ptr<DeadlockReport>
Simulator::diagnose(HangKind kind) const
{
    auto report = std::make_shared<DeadlockReport>();
    report->kind = kind;
    report->cycle = now_;
    std::vector<const Component *> all;
    all.reserve(components_.size());
    for (const Component *c : components_)
        all.push_back(c);
    BlockageProbe probe(report.get(), std::move(all));
    for (const Component *c : components_) {
        probe.setCurrent(c);
        c->describeBlockage(probe);
    }
    extractWaitCycle(probe.edges(), report.get());
    return report;
}

} // namespace soff::sim
