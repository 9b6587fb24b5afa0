#include "sim/circuit.hpp"

#include <algorithm>

#include "sim/forensics.hpp"
#include "support/strings.hpp"

namespace soff::sim
{

using datapath::NodePlan;

KernelCircuit::KernelCircuit(const datapath::KernelPlan &plan,
                             const LaunchContext &launch,
                             memsys::GlobalMemory &memory,
                             int num_instances,
                             const PlatformConfig &platform)
    : plan_(plan), launch_(launch), memory_(memory),
      numInstances_(num_instances), platform_(platform),
      faultPlan_(platform.faults),
      sim_(platform.scheduler),
      dram_(platform.dramLatency, platform.dramCyclesPerLine)
{
    SOFF_ASSERT(num_instances >= 1, "need at least one datapath");
    if (faultPlan_.config().perturbsTiming()) {
        // Installed before any channel is created, so every channel
        // picks up the plan; off means a null pointer and zero cost.
        // Launch-visible fault classes (abortevery/dmaevery/poolevery)
        // are consulted by the runtime layer, never by the circuit, so
        // a launch-visible-only plan keeps the circuit clean — and
        // therefore compiled-plan- and template-pool-eligible.
        sim_.setFaultPlan(&faultPlan_);
        dram_.setFaultPlan(&faultPlan_);
    }
    board_ = std::make_unique<CompletionBoard>(launch.ndrange,
                                               num_instances);
    // Replicas must be layout-identical: instance i's components and
    // channels occupy the contiguous index range [i*K, (i+1)*K), which
    // the data-oriented core relies on for replica batching and the
    // flat watcher table. Any per-instance divergence in the build
    // would silently break that batching, so it is asserted here.
    size_t comps_per_instance = 0;
    size_t chans_per_instance = 0;
    for (int i = 0; i < num_instances; ++i) {
        size_t c0 = sim_.numComponents();
        size_t h0 = sim_.numChannels();
        buildInstance(i);
        size_t dc = sim_.numComponents() - c0;
        size_t dh = sim_.numChannels() - h0;
        if (i == 0) {
            comps_per_instance = dc;
            chans_per_instance = dh;
        } else {
            SOFF_ASSERT(dc == comps_per_instance &&
                            dh == chans_per_instance,
                        "replica layout mismatch: instance " +
                            std::to_string(i) +
                            " built a different component/channel "
                            "count than instance 0");
        }
    }
    buildMemorySubsystem();

    // Dispatcher limit: the §V-B work-group cap applies when the
    // datapath owns per-group state (local memory or barrier queues).
    int max_groups = 1 << 30;
    if (plan.usesLocalMemory || plan.usesBarrier)
        max_groups = plan.maxConcurrentGroups;
    Dispatcher *dispatcher = sim_.add<Dispatcher>(
        "dispatcher", &launch_, rootInputs_, board_.get(), max_groups);
    counter_ = sim_.add<WorkItemCounter>("counter", &launch_, terminals_,
                                         board_.get(), caches_);
    counter_->setDispatcher(dispatcher);

    dram_.setLineBytes(plan_.config.cacheLineBytes);
    // The trace sink is sized once the full circuit exists; tracing
    // never feeds back into scheduling, so a traced run stays
    // bit-identical to an untraced one.
    if (!platform_.tracePath.empty()) {
        traceSink_ = std::make_unique<TraceSink>(
            sim_.numComponents(), sim_.numChannels(),
            platform_.traceStart, platform_.traceEnd);
        sim_.setTraceSink(traceSink_.get());
    }
}

void
KernelCircuit::buildInstance(int instance)
{
    currentInstance_ = instance;
    std::string prefix = "dp" + std::to_string(instance) + ".";
    Channel<WiToken> *root_in = sim_.channel<WiToken>(2);
    Channel<WiToken> *terminal = sim_.channel<WiToken>(4);
    rootInputs_.push_back(root_in);
    terminals_.push_back(terminal);
    buildNode(*plan_.root, root_in, {}, prefix, instance);
}

void
KernelCircuit::buildNode(const NodePlan &node, Channel<WiToken> *in,
                         const std::vector<Channel<WiToken> *> &outs,
                         const std::string &prefix, int instance)
{
    switch (node.kind) {
      case NodePlan::Kind::BasicPipeline:
        buildLeaf(node, in, outs, prefix, instance);
        return;
      case NodePlan::Kind::Barrier:
        buildBarrier(node, in, outs, prefix, instance);
        return;
      case NodePlan::Kind::Region:
        buildRegion(node, in, outs, prefix, instance);
        return;
    }
}

namespace
{

int
indexOf(const std::vector<const ir::Value *> &layout, const ir::Value *v)
{
    for (size_t i = 0; i < layout.size(); ++i) {
        if (layout[i] == v)
            return static_cast<int>(i);
    }
    return -1;
}

} // namespace

void
KernelCircuit::buildLeaf(const NodePlan &node, Channel<WiToken> *in,
                         const std::vector<Channel<WiToken> *> &outs,
                         const std::string &prefix, int instance)
{
    const datapath::BasicPipelinePlan &bp = *node.pipeline;
    std::string base = prefix + bp.bb->name() + ".";

    // One channel per DFG edge. The balancing slack above the base
    // capacity of 2 only affects throughput on the acyclic DFG
    // (§IV-B), so the fault plan may legally remove some of it.
    std::vector<Channel<Flit> *> edge_ch;
    for (const datapath::FuEdgeSpec &e : bp.edges) {
        int slack = e.fifoDepth;
        if (platform_.balanceFifoCap >= 0)
            slack = std::min(slack, platform_.balanceFifoCap);
        slack = faultPlan_.balanceSlack(
            static_cast<uint32_t>(sim_.numChannels()), slack);
        edge_ch.push_back(sim_.channel<Flit>(
            2 + static_cast<size_t>(slack)));
    }

    Channel<WiToken> *sink_out = sim_.channel<WiToken>(2);

    // Units.
    std::vector<Component *> units(bp.fus.size(), nullptr);
    SourceUnit *source = sim_.add<SourceUnit>(base + "src", in);
    units[0] = source;
    SinkUnit *sink = sim_.add<SinkUnit>(base + "sink", sink_out,
                                        bp.sinkLayout.size());
    units[bp.fus.size() - 1] = sink;
    for (const datapath::FuSpec &fu : bp.fus) {
        if (fu.kind == datapath::FuSpec::Kind::Source ||
            fu.kind == datapath::FuSpec::Kind::Sink) {
            continue;
        }
        std::string uname = base + "fu" + std::to_string(fu.id) + "." +
                            ir::opcodeName(fu.inst->op());
        if (fu.kind == datapath::FuSpec::Kind::Compute) {
            units[static_cast<size_t>(fu.id)] = sim_.add<ComputeUnit>(
                uname, fu.inst, fu.latency, &launch_);
        } else {
            MemUnit *unit = sim_.add<MemUnit>(uname, fu.inst, fu.latency,
                                              &launch_);
            units[static_cast<size_t>(fu.id)] = unit;
            auto cache_it = plan_.cacheOf.find(fu.inst);
            if (cache_it != plan_.cacheOf.end()) {
                globalClients_[cache_it->second].push_back(
                    {unit, fu.inst, instance});
            } else {
                auto local_it = plan_.localBlockOf.find(fu.inst);
                SOFF_ASSERT(local_it != plan_.localBlockOf.end(),
                            "memory access with no assigned port");
                localClients_[local_it->second].push_back(
                    {unit, fu.inst, instance});
            }
        }
    }

    // Wire edges.
    for (size_t i = 0; i < bp.edges.size(); ++i) {
        const datapath::FuEdgeSpec &e = bp.edges[i];
        Channel<Flit> *ch = edge_ch[i];
        // Producer side.
        Component *producer = units[static_cast<size_t>(e.from)];
        if (e.from == bp.sourceFu()) {
            static_cast<SourceUnit *>(producer)->addOutput(
                ch, e.value != nullptr ? indexOf(bp.inLayout, e.value)
                                       : -1);
        } else if (auto *cu = dynamic_cast<ComputeUnit *>(producer)) {
            cu->addOutput(ch);
        } else {
            static_cast<MemUnit *>(producer)->addOutput(ch);
        }
        // Consumer side.
        Component *consumer = units[static_cast<size_t>(e.to)];
        if (e.to == bp.sinkFu()) {
            static_cast<SinkUnit *>(consumer)->addInput(
                ch, e.value != nullptr ? indexOf(bp.sinkLayout, e.value)
                                       : -1);
        } else if (auto *cu = dynamic_cast<ComputeUnit *>(consumer)) {
            cu->addInput(ch, e.value);
        } else {
            static_cast<MemUnit *>(consumer)->addInput(ch, e.value);
        }
    }

    // Branch glue / forwarder / terminal router.
    Router *router = sim_.add<Router>(base + "router", sink_out,
                                      &launch_);
    leafRouters_[&node] = router;
    if (node.outPorts.empty()) {
        router->addOutput(terminals_[static_cast<size_t>(instance)],
                          nullptr);
    } else {
        SOFF_ASSERT(outs.size() == node.outPorts.size(),
                    "leaf port/channel mismatch at " + bp.bb->name());
        for (size_t p = 0; p < node.outPorts.size(); ++p)
            router->addOutput(outs[p], &node.outPorts[p].projection);
        router->setCondIndex(node.condIndex);
        router->setCondValue(node.condValue);
    }
}

void
KernelCircuit::buildBarrier(const NodePlan &node, Channel<WiToken> *in,
                            const std::vector<Channel<WiToken> *> &outs,
                            const std::string &prefix, int instance)
{
    std::string base = prefix + node.ct->block()->name() + ".";
    Channel<WiToken> *mid = sim_.channel<WiToken>(2);
    BarrierUnit *barrier = sim_.add<BarrierUnit>(
        base + "barrier", in, mid, &launch_,
        plan_.maxConcurrentGroups + 2);
    barriers_.push_back(barrier);
    Router *router = sim_.add<Router>(base + "router", mid, &launch_);
    leafRouters_[&node] = router;
    if (node.outPorts.empty()) {
        router->addOutput(terminals_[static_cast<size_t>(instance)],
                          nullptr);
    } else {
        SOFF_ASSERT(outs.size() == node.outPorts.size(),
                    "barrier port/channel mismatch");
        for (size_t p = 0; p < node.outPorts.size(); ++p)
            router->addOutput(outs[p], &node.outPorts[p].projection);
    }
}

void
KernelCircuit::buildRegion(const NodePlan &node, Channel<WiToken> *in,
                           const std::vector<Channel<WiToken> *> &outs,
                           const std::string &prefix, int instance)
{
    std::string base = prefix + "r" +
                       std::to_string(regionCounter_++) + ".";
    bool gated = node.isLoop || node.swgr;

    std::shared_ptr<LoopGateState> gate;
    if (gated) {
        gate = std::make_shared<LoopGateState>();
        gate->nmax = node.nmax;
        gate->swgr = node.swgr;
    }

    // Channel for each wire. The entry wire comes from the region input
    // (through the entrance glue when gated); exit wires merge into the
    // region's output ports (through the exit glue when gated).
    std::vector<Channel<WiToken> *> wire_ch(node.wires.size(), nullptr);

    // Count wires per (child input) and per (region out port).
    std::map<size_t, std::vector<size_t>> wires_into_child;
    std::map<size_t, std::vector<size_t>> wires_to_port;
    for (size_t w = 0; w < node.wires.size(); ++w) {
        const NodePlan::Wire &wire = node.wires[w];
        if (wire.toChild == NodePlan::kExit)
            wires_to_port[wire.toPort].push_back(w);
        else
            wires_into_child[wire.toChild].push_back(w);
    }

    // Create channels: entry wire reuses `in` unless gated; exit wires
    // reuse outs[p] when they are the only wire of an ungated port.
    for (size_t w = 0; w < node.wires.size(); ++w) {
        const NodePlan::Wire &wire = node.wires[w];
        size_t cap = 2;
        if (wire.isBackEdge)
            cap += static_cast<size_t>(node.backEdgeFifo);
        if (wire.fromChild == NodePlan::kEntry) {
            bool only_into_child =
                wires_into_child[wire.toChild].size() == 1;
            if (!gated && only_into_child) {
                wire_ch[w] = in;
            } else {
                wire_ch[w] = sim_.channel<WiToken>(cap);
            }
            continue;
        }
        if (wire.toChild == NodePlan::kExit &&
            wires_to_port[wire.toPort].size() == 1 && !gated) {
            wire_ch[w] = outs[wire.toPort];
            continue;
        }
        wire_ch[w] = sim_.channel<WiToken>(cap);
    }

    // Entrance glue.
    if (gated) {
        // The entry wire's channel was freshly created above.
        size_t entry_wire = SIZE_MAX;
        for (size_t w = 0; w < node.wires.size(); ++w) {
            if (node.wires[w].fromChild == NodePlan::kEntry)
                entry_wire = w;
        }
        SOFF_ASSERT(entry_wire != SIZE_MAX, "region without entry wire");
        sim_.add<LoopEntrance>(base + "entrance", in,
                               wire_ch[entry_wire], gate, &launch_);
    }

    // Exit merging + exit glue.
    for (auto &[port, wires] : wires_to_port) {
        Channel<WiToken> *stream;
        std::vector<SelectUnit *> made;
        if (wires.size() == 1 && !gated) {
            continue; // already wired straight to outs[port]
        }
        if (wires.size() == 1) {
            stream = wire_ch[wires[0]];
        } else {
            stream = sim_.channel<WiToken>(2);
            SelectUnit *select = sim_.add<SelectUnit>(
                base + "exitsel" + std::to_string(port), stream,
                &launch_);
            for (size_t w : wires)
                select->addInput(wire_ch[w]);
            selects_.push_back(select);
        }
        if (gated) {
            sim_.add<LoopExit>(base + "exit" + std::to_string(port),
                               stream, outs[port], gate);
        } else {
            // Plain forwarder from merged stream to the port channel.
            Router *fwd = sim_.add<Router>(
                base + "fwd" + std::to_string(port), stream, &launch_);
            fwd->addOutput(outs[port], nullptr);
        }
        (void)made;
    }

    // Child input selects + recursion.
    size_t select_count_before = selects_.size();
    std::vector<SelectUnit *> region_selects;
    for (size_t c = 0; c < node.children.size(); ++c) {
        const auto &wires = wires_into_child[c];
        Channel<WiToken> *child_in;
        SOFF_ASSERT(!wires.empty(), "unreachable child in region");
        if (wires.size() == 1) {
            child_in = wire_ch[wires[0]];
        } else {
            child_in = sim_.channel<WiToken>(2);
            SelectUnit *select = sim_.add<SelectUnit>(
                base + "sel" + std::to_string(c), child_in, &launch_);
            for (size_t w : wires) {
                select->addInput(wire_ch[w],
                                 node.wires[w].isBackEdge);
            }
            selects_.push_back(select);
            region_selects.push_back(select);
        }
        std::vector<Channel<WiToken> *> child_outs(
            node.children[c]->numOutPorts(), nullptr);
        for (size_t w = 0; w < node.wires.size(); ++w) {
            if (node.wires[w].fromChild == c)
                child_outs[node.wires[w].fromPort] = wire_ch[w];
        }
        buildNode(*node.children[c], child_in, child_outs,
                  base + "c" + std::to_string(c) + ".", instance);
    }

    // Work-group-ordered select pairing (§IV-F1): in IfThen/IfThenElse
    // regions there is exactly one reconvergence select; its branch
    // counterpart is the entry child's router.
    if (node.orderedSelects) {
        std::vector<SelectUnit *> created;
        for (size_t i = select_count_before; i < selects_.size(); ++i)
            created.push_back(selects_[i]);
        const NodePlan *entry_node = node.children[node.entryChild].get();
        auto router_it = leafRouters_.find(entry_node);
        if (created.size() == 1 && router_it != leafRouters_.end()) {
            Channel<uint64_t> *fifo = sim_.channel<uint64_t>(512);
            router_it->second->setOrderFifo(fifo);
            created[0]->setOrderFifo(fifo);
        }
    }
}

void
KernelCircuit::relaunch(const LaunchContext &launch)
{
    // Components read the launch through the stable &launch_ pointer;
    // update the value before any reset() recomputes derived state
    // (dispatcher group counts, counter totals).
    launch_ = launch;
    *board_ = CompletionBoard(launch.ndrange, numInstances_);
    dram_.reset();
    for (auto &locks : lockTables_)
        locks->reset();
    sim_.setStopFlag(nullptr);
    sim_.resetForRerun();
}

void
KernelCircuit::buildMemorySubsystem()
{
    // The §V-A response-window size depends only on the instruction
    // (nearMaxLatency walks the plan's latency model), so with N
    // replicated instances it is memoized per instruction instead of
    // being recomputed once per replica port.
    std::map<const ir::Instruction *, size_t> window_memo;
    auto resp_window = [&](const ir::Instruction &inst) {
        auto it = window_memo.find(&inst);
        if (it == window_memo.end()) {
            size_t w = static_cast<size_t>(
                           plan_.config.latency.nearMaxLatency(inst)) +
                       2;
            it = window_memo.emplace(&inst, w).first;
        }
        return it->second;
    };

    // Global memory: per-buffer caches; shared across instances only
    // when atomics require consistency (§V-A).
    struct Group
    {
        std::vector<MemClient> clients;
        std::string name;
    };
    std::vector<Group> groups;
    for (auto &[cache_id, clients] : globalClients_) {
        if (plan_.usesAtomics) {
            Group g;
            g.clients = clients;
            g.name = "cache" + std::to_string(cache_id);
            groups.push_back(std::move(g));
        } else {
            for (int inst = 0; inst < numInstances_; ++inst) {
                Group g;
                for (const MemClient &c : clients) {
                    if (c.instance == inst)
                        g.clients.push_back(c);
                }
                if (g.clients.empty())
                    continue;
                g.name = "dp" + std::to_string(inst) + ".cache" +
                         std::to_string(cache_id);
                groups.push_back(std::move(g));
            }
        }
    }
    for (Group &g : groups) {
        auto *req = sim_.channel<MemReq>(2);
        auto *resp = sim_.channel<MemResp>(4);
        req->setFaultClass(FaultClass::Memory);
        resp->setFaultClass(FaultClass::Memory);
        memsys::Cache *cache = sim_.add<memsys::Cache>(
            g.name, memory_, dram_, plan_.config.cacheSizeBytes,
            plan_.config.cacheLineBytes, req, resp);
        caches_.push_back(cache);
        auto *arbiter = sim_.add<memsys::RRArbiter>(
            g.name + ".arb", req, resp);
        lockTables_.push_back(std::make_unique<memsys::LockTable>());
        memsys::LockTable *locks = lockTables_.back().get();
        for (const MemClient &client : g.clients) {
            // §V-A: the unit must never stall while holding <= L_F
            // pending requests, so its response buffer must absorb all
            // of them even when the unit's consumers are blocked —
            // otherwise the cache's in-order response queue head-of-
            // line-blocks and the datapath deadlocks.
            size_t window = resp_window(*client.inst);
            if (platform_.memRespWindowOverride > 0) {
                window = static_cast<size_t>(
                    platform_.memRespWindowOverride);
            }
            auto *ureq = sim_.channel<MemReq>(2);
            auto *uresp = sim_.channel<MemResp>(window);
            ureq->setFaultClass(FaultClass::Memory);
            uresp->setFaultClass(FaultClass::Memory);
            arbiter->addPort(ureq, uresp);
            client.unit->setMemPort(ureq, uresp);
            if (client.inst->isAtomic())
                client.unit->setLockTable(locks);
            if (platform_.faults.checkInvariants)
                client.unit->enableInvariantCheck();
            memUnits_.push_back(client.unit);
        }
    }

    // Local memory blocks: always per instance (§V-B).
    for (auto &[block_id, clients] : localClients_) {
        const datapath::LocalBlockPlan &lb =
            plan_.localBlocks[static_cast<size_t>(block_id)];
        for (int inst = 0; inst < numInstances_; ++inst) {
            std::vector<MemClient> mine;
            for (const MemClient &c : clients) {
                if (c.instance == inst)
                    mine.push_back(c);
            }
            if (mine.empty())
                continue;
            auto *block = sim_.add<memsys::LocalMemoryBlock>(
                "dp" + std::to_string(inst) + ".lmem." +
                    lb.var->name(),
                lb.var->sizeBytes(), lb.numBanks, lb.numSlots);
            localBlocks_.push_back(block);
            lockTables_.push_back(std::make_unique<memsys::LockTable>());
            memsys::LockTable *locks = lockTables_.back().get();
            for (const MemClient &client : mine) {
                size_t window = resp_window(*client.inst);
                if (platform_.memRespWindowOverride > 0) {
                    window = static_cast<size_t>(
                        platform_.memRespWindowOverride);
                }
                auto *ureq = sim_.channel<MemReq>(2);
                auto *uresp = sim_.channel<MemResp>(window);
                ureq->setFaultClass(FaultClass::Memory);
                uresp->setFaultClass(FaultClass::Memory);
                block->addPort(ureq, uresp);
                client.unit->setMemPort(ureq, uresp);
                client.unit->setNumSlots(lb.numSlots);
                if (client.inst->isAtomic())
                    client.unit->setLockTable(locks);
                if (platform_.faults.checkInvariants)
                    client.unit->enableInvariantCheck();
                memUnits_.push_back(client.unit);
            }
        }
    }
}

Simulator::RunResult
KernelCircuit::run(Cycle max_cycles, Cycle deadlock_window)
{
    auto result = sim_.run(counter_->completedFlag(), max_cycles,
                           deadlock_window);
    sim_.finalizePerfSpans();
    result.stats = buildStatsReport();
    // Internal-bug detectors. On a hang these findings are already in
    // the attached report (describeBlockage emits them), flagging it as
    // an internal bug rather than a legitimate circuit deadlock; on a
    // run that otherwise looks fine they must escalate to an error.
    for (BarrierUnit *barrier : barriers_) {
        if (barrier->overflowed() && result.report == nullptr) {
            auto report = sim_.diagnose(HangKind::InvariantViolation);
            throw SimInternalError(
                "barrier work-group buffering overflow in " +
                    barrier->name() + "\n" + report->render(),
                report);
        }
    }
    for (MemUnit *unit : memUnits_) {
        if (!unit->invariantViolation().empty() &&
            result.report == nullptr) {
            auto report = sim_.diagnose(HangKind::InvariantViolation);
            throw SimInternalError(unit->name() + ": " +
                                       unit->invariantViolation() +
                                       "\n" + report->render(),
                                   report);
        }
    }
    return result;
}

std::shared_ptr<StatsReport>
KernelCircuit::buildStatsReport() const
{
    auto report = std::make_shared<StatsReport>();
    report->cycles = sim_.now();
    report->instances = static_cast<uint32_t>(numInstances_);
    sim_.appendPerfStats(*report);
    for (const memsys::Cache *cache : caches_) {
        const memsys::CacheStats &cs = cache->stats();
        CacheReport cr;
        cr.name = cache->name();
        cr.hits = cs.hits;
        cr.misses = cs.misses;
        cr.evictions = cs.evictions;
        cr.writebacks = cs.writebacks;
        cr.atomics = cs.atomics;
        report->cacheHits += cs.hits;
        report->cacheMisses += cs.misses;
        report->cacheEvictions += cs.evictions;
        report->cacheWritebacks += cs.writebacks;
        report->cacheAtomics += cs.atomics;
        report->caches.push_back(std::move(cr));
    }
    for (const memsys::LocalMemoryBlock *block : localBlocks_) {
        report->localAccesses += block->stats().accesses;
        report->localBankConflicts += block->stats().bankConflicts;
    }
    report->dramTransfers = dram_.transfers();
    report->dramBytes = dram_.bytes();
    report->datapaths = counter_->datapathStats();
    return report;
}

void
KernelCircuit::writeTrace(const std::string &path) const
{
    if (traceSink_ == nullptr)
        return;
    std::vector<TraceSink::TrackInfo> tracks(sim_.numComponents());
    for (size_t i = 0; i < tracks.size(); ++i) {
        const Component &c = sim_.component(i);
        tracks[i] = {c.name(), c.kind()};
    }
    traceSink_->write(path, tracks);
}

} // namespace soff::sim
