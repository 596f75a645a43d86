#include "sim/network.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "check/invariant.h"
#include "router/generic/generic_router.h"
#include "router/pathsensitive/ps_router.h"
#include "router/roco/roco_router.h"

namespace noc {

std::unique_ptr<Router>
makeRouter(NodeId id, const SimConfig &cfg, const MeshTopology &topo,
           const RoutingAlgorithm &routing, const FaultMap *faults)
{
    switch (cfg.arch) {
      case RouterArch::Generic:
        return std::make_unique<GenericRouter>(id, cfg, topo, routing,
                                               faults);
      case RouterArch::PathSensitive:
        return std::make_unique<PathSensitiveRouter>(id, cfg, topo,
                                                     routing, faults);
      case RouterArch::Roco:
        return std::make_unique<RocoRouter>(id, cfg, topo, routing,
                                            faults);
    }
    NOC_ASSERT(false, "unknown router architecture");
    return nullptr;
}

Network::Network(const SimConfig &cfg, const std::vector<FaultSpec> &faults)
    : cfg_(cfg), topo_(cfg.meshWidth, cfg.meshHeight)
{
    cfg_.validate();
    routing_ = makeRouting(cfg_.routing, topo_);
    faults_ = std::make_unique<FaultMap>(topo_.numNodes(), cfg_.arch);
    build(faults);
}

Network::~Network() = default;

void
Network::build(const std::vector<FaultSpec> &faults)
{
    for (const FaultSpec &f : faults)
        faults_->apply(f);

    int n = topo_.numNodes();
    if (cfg_.traffic == TrafficKind::Trace) {
        trace_ = std::make_unique<TraceSchedule>(
            TraceSchedule::load(cfg_.traceFile, n));
    }

    // Idle-skip state: every live router starts awake; the step loops
    // clear flags as routers quiesce. A dead router (Generic/PS node
    // death) has no wake flag: its step is a no-op (see
    // RouterPipeline::step), so its flag stays clear and nothing sets
    // it, however long its stranded source queue. The env override
    // serves the equivalence tests and benchmarks (NOC_IDLE_SKIP=0
    // forces every step).
    idleSkip_ =
        envNumber<int>("NOC_IDLE_SKIP", cfg_.idleSkip ? 1 : 0, 0, 1) == 1;
    active_ = std::make_unique<std::atomic<std::uint8_t>[]>(
        static_cast<size_t>(n));
    auto wakeFlag = [&](NodeId id) -> std::atomic<std::uint8_t> * {
        return faults_->state(id).nodeDead ? nullptr : &active_[id];
    };
    for (NodeId id = 0; id < static_cast<NodeId>(n); ++id)
        active_[id].store(wakeFlag(id) ? 1 : 0, std::memory_order_relaxed);

    routers_.reserve(static_cast<size_t>(n));
    nics_.reserve(static_cast<size_t>(n));
    lanes_ = std::make_unique<InjectionLane[]>(static_cast<size_t>(n));
    allNodes_.resize(static_cast<size_t>(n));
    for (NodeId id = 0; id < static_cast<NodeId>(n); ++id) {
        allNodes_[id] = id;
        routers_.push_back(
            makeRouter(id, cfg_, topo_, *routing_, faults_.get()));
        nics_.push_back(std::make_unique<Nic>(id, cfg_, topo_, &lanes_[id]));
        routers_.back()->setNic(nics_.back().get());
        routers_.back()->setLedger(&ledger_);
        nics_.back()->setLedger(&ledger_);
        nics_.back()->setWakeFlag(wakeFlag(id));
        if (trace_)
            nics_.back()->attachTrace(*trace_);
    }
    drive_ = nics_.front()->drive();
    for (const auto &nic : nics_) {
        if (nic->drive() != drive_)
            drive_ = Nic::Drive::PerNode;
    }

    // One flit ring per link direction. A flit link models switch
    // traversal plus link propagation after the allocation cycle: a
    // flit granted at cycle t is received at t + hopDelay (one cycle of
    // ST, one of wire, landing in the input register). Credits need no
    // storage here: they travel as VC bits in the upstream router.
    const std::size_t slots =
        static_cast<std::size_t>(SlotClock(cfg_.hopDelay).slots());
    const int w = cfg_.meshWidth, h = cfg_.meshHeight;
    const std::size_t links =
        2 * static_cast<std::size_t>((w - 1) * h + w * (h - 1));
    linkSlots_.resize(links * slots);
    Flit *nextRing = linkSlots_.data();
    const Direction edgeDirs[2] = {Direction::East, Direction::North};
    for (NodeId a = 0; a < static_cast<NodeId>(n); ++a) {
        for (Direction d : edgeDirs) {
            auto b = topo_.neighbor(a, d);
            if (!b)
                continue;
            Flit *ab = nextRing; // flits a -> b
            Flit *ba = nextRing + slots; // flits b -> a
            nextRing += 2 * slots;
            routers_[a]->connectPort(d, PortIo{ba, ab});
            routers_[*b]->connectPort(opposite(d), PortIo{ab, ba});

            routers_[a]->setNeighbor(d, routers_[*b].get());
            routers_[*b]->setNeighbor(opposite(d), routers_[a].get());
            routers_[a]->setWakeFlag(d, wakeFlag(*b));
            routers_[*b]->setWakeFlag(opposite(d), wakeFlag(a));
        }
    }

    std::vector<NodeId> order;
    order.reserve(static_cast<std::size_t>(n));
    for (int ph = 0; ph < kNumStepPhases; ++ph) {
        phaseOfs_[ph] = static_cast<std::uint32_t>(order.size());
        for (NodeId id = 0; id < static_cast<NodeId>(n); ++id) {
            Coord c = topo_.coord(id);
            if (stepPhase(c.x, c.y) == ph)
                order.push_back(id);
        }
    }
    phaseOfs_[kNumStepPhases] = static_cast<std::uint32_t>(order.size());
    flatPhases_ = stepList(order);
}

std::vector<Network::StepEntry>
Network::stepList(std::span<const NodeId> nodes)
{
    std::vector<StepEntry> list;
    list.reserve(nodes.size());
    for (NodeId id : nodes)
        list.push_back({routers_[id].get(), &active_[id]});
    return list;
}

void
Network::bindNodeLedger(NodeId n, FlitLedger *l)
{
    FlitLedger *target = l != nullptr ? l : &ledger_;
    routers_[n]->setLedger(target);
    nics_[n]->setLedger(target);
}

void
Network::setObserver(obs::Recorder *obs)
{
    for (auto &r : routers_)
        r->setObserver(obs);
    for (auto &nic : nics_)
        nic->setObserver(obs);
}

std::uint64_t
Network::generateTraffic(std::span<const NodeId> nodes, Cycle now,
                         bool generationEnabled, bool measured)
{
    // Sources draw from their streams every cycle while traffic is
    // generated, and disappear in the drain phase, except that service
    // endpoints must still pump scheduled replies and expire MSHRs
    // (with request generation off) or the closed loop would truncate.
    std::uint64_t made = 0;
    InjectionLane *const lanes = lanes_.get();
    switch (drive_) {
      case Nic::Drive::Lane:
        if (!generationEnabled)
            return 0;
        // The draw Nic::generate would make, without visiting the NIC:
        // at low load all but a few percent of draws do not fire.
        for (NodeId n : nodes) {
            if (lanes[n].fires())
                made += static_cast<std::uint64_t>(
                    nics_[n]->fire(now, measured));
        }
        break;
      case Nic::Drive::ServiceLane:
        // Nic::generate's arrival draw, then the NIC only if the draw
        // arrived or its endpoint has something due.
        for (NodeId n : nodes) {
            InjectionLane &lane = lanes[n];
            const bool arrived = generationEnabled && lane.fires();
            if (arrived || lane.due <= now)
                made += static_cast<std::uint64_t>(
                    nics_[n]->serve(now, measured, arrived));
        }
        break;
      case Nic::Drive::PerNode:
        if (generationEnabled || cfg_.svc.enabled) {
            for (NodeId n : nodes)
                made += static_cast<std::uint64_t>(
                    nics_[n]->generate(now, measured, generationEnabled));
        }
        break;
    }
    return made;
}

Cycle
Network::nextDue() const
{
    Cycle due = kNever;
    for (NodeId n = 0; n < static_cast<NodeId>(numNodes()); ++n)
        due = std::min(due, lanes_[n].due);
    return due;
}

std::uint64_t
Network::step(Cycle now, bool generationEnabled, bool measured)
{
    generatedBase1_ +=
        generateTraffic(allNodes_, now, generationEnabled, measured);
    const std::span<const StepEntry> all(flatPhases_);
    std::uint64_t executed = 0;
    for (int ph = 0; ph < kNumStepPhases; ++ph) {
        // One shard: every node is interior (no other shard exists).
        executed += stepRouters(
            all.subspan(phaseOfs_[ph], phaseOfs_[ph + 1] - phaseOfs_[ph]),
            now, ph, 0, true);
    }
    stepsExecuted_ += executed;
    stepsScheduled_ += flatPhases_.size();
    return executed;
}

int
Network::flitsInFlight() const
{
    int n = 0;
    for (const auto &r : routers_)
        n += r->bufferedFlits() + r->flitsInbound();
    return n;
}

std::uint64_t
Network::totalInjected() const
{
    std::uint64_t n = 0;
    for (const auto &nic : nics_)
        n += nic->injectedPackets();
    return n;
}

std::uint64_t
Network::totalInjectedMeasured() const
{
    std::uint64_t n = 0;
    for (const auto &nic : nics_)
        n += nic->injectedMeasured();
    return n;
}

std::uint64_t
Network::totalDelivered() const
{
    std::uint64_t n = 0;
    for (const auto &nic : nics_)
        n += nic->deliveredPackets();
    return n;
}

std::uint64_t
Network::totalDeliveredMeasured() const
{
    std::uint64_t n = 0;
    for (const auto &nic : nics_)
        n += nic->deliveredMeasured();
    return n;
}

bool
Network::traceExhausted() const
{
    if (!trace_)
        return false;
    for (const auto &nic : nics_) {
        if (!nic->traceExhausted())
            return false;
    }
    return true;
}

ActivityCounters
Network::totalActivity() const
{
    ActivityCounters sum;
    for (const auto &r : routers_)
        sum += r->activity();
    return sum;
}

void
Network::resetActivity()
{
    for (auto &r : routers_)
        r->resetActivity();
}

void
Network::resetContention()
{
    for (auto &r : routers_)
        r->resetContention();
}

void
Network::checkProtocolInvariants(Cycle now) const
{
    if (!check::invariantsEnabled())
        return;

    // Per-class credit conservation: the class counters decompose the
    // aggregate ledger exactly, and no class may retire more than it
    // created — a class-routing bug (flit delivered under the wrong
    // class byte) breaks one of these before it can cancel out in the
    // aggregate created/retired identity.
    {
        std::uint64_t createdSum = 0;
        std::uint64_t retiredSum = 0;
        for (int c = 0; c < kNumMsgClasses; ++c) {
            createdSum += ledger_.createdByClass[c];
            retiredSum += ledger_.retiredByClass[c];
            NOC_INVARIANT(ledger_.retiredByClass[c] <=
                              ledger_.createdByClass[c],
                          check::InvariantKind::CreditConservation, now,
                          0, Direction::Invalid, c,
                          std::string("class ") + msgClassName(
                              static_cast<MsgClass>(c)) +
                              " retired more flits than it created");
        }
        NOC_INVARIANT(createdSum == ledger_.created &&
                          retiredSum == ledger_.retired,
                      check::InvariantKind::CreditConservation, now, 0,
                      Direction::Invalid, -1,
                      "per-class ledger counters do not decompose the "
                      "aggregate created/retired totals");
    }

    std::uint64_t held = 0; // flits in source queues, buffers and links
    std::vector<int> flits, credits;
    for (NodeId n = 0; n < static_cast<NodeId>(numNodes()); ++n) {
        const Router &u = *routers_[n];
        const int buffered = u.bufferedFlits();
        held += nics_[n]->queuedFlits() +
                static_cast<std::uint64_t>(buffered + u.flitsInbound());

        // Idle-skip work counter: a count that drifts from the real
        // buffer occupancy would silently freeze (or spin) a router.
        NOC_INVARIANT(u.workItems() == buffered,
                      check::InvariantKind::StageMask, now, n,
                      Direction::Invalid, -1,
                      "idle-skip work counter " +
                          std::to_string(u.workItems()) +
                          " != buffered flits " + std::to_string(buffered));

        // Fault-state consistency (Table 3): RoCo recycles per
        // component and never goes whole-node dead through apply();
        // the unified designs collapse every fault to node death.
        const NodeFaultState &fs = u.faultState();
        if (cfg_.arch == RouterArch::Roco) {
            NOC_INVARIANT(!fs.nodeDead,
                          check::InvariantKind::FaultConsistency, now, n,
                          Direction::Invalid, -1,
                          "RoCo node marked whole-node dead; faults must "
                          "recycle per component");
            for (const DeadVc &dv : fs.deadVcs) {
                NOC_INVARIANT(
                    dv.portIndex >= 0 &&
                        dv.portIndex < check::kPortsPerModule &&
                        dv.vcIndex >= 0 && dv.vcIndex < cfg_.vcsPerPort,
                    check::InvariantKind::FaultConsistency, now, n,
                    Direction::Invalid, dv.vcIndex,
                    "retired VC index outside the Table 1 pool");
            }
        } else {
            NOC_INVARIANT(!fs.anyModuleDead() && !fs.rcFaulty &&
                              !fs.saDegraded[0] && !fs.saDegraded[1] &&
                              fs.deadVcs.empty(),
                          check::InvariantKind::FaultConsistency, now, n,
                          Direction::Invalid, -1,
                          "unified router carries component-level fault "
                          "state; any fault must collapse to node death");
        }

        // Stage masks: the bits the pipeline keeps are a cache of the
        // bits the VC state calls for.
        const StageMasks have = u.stageMasks();
        const StageMasks want = u.stageMasksFromState();
        for (const auto &[mask, name] :
             {std::pair{&StageMasks::vaWait, "VA-wait"},
              std::pair{&StageMasks::saReady, "SA-ready"},
              std::pair{&StageMasks::drainReady, "drain-ready"}}) {
            for (std::uint64_t bad = have.*mask ^ want.*mask; bad;
                 bad &= bad - 1) {
                const int vc = std::countr_zero(bad);
                NOC_INVARIANT(false, check::InvariantKind::StageMask, now,
                              n, Direction::Invalid, vc,
                              std::string(name) + " bit of input VC " +
                                  std::to_string(vc) +
                                  (have.*mask >> vc & 1 ? " is set"
                                                        : " is clear") +
                                  " against the VC's state");
            }
        }

        // Credit conservation: for every (link, slot), the upstream
        // credits plus traffic in flight plus downstream occupancy
        // equal the buffer depth. Each receiver reports what is in
        // flight toward it: flits to the downstream, credits to u.
        for (int d = 0; d < kNumCardinal; ++d) {
            Direction dir = static_cast<Direction>(d);
            auto nb = topo_.neighbor(n, dir);
            if (!nb)
                continue;
            const Router &down = *routers_[*nb];
            down.countFlitsIn(opposite(dir), flits);
            u.countCreditsIn(dir, credits);
            for (int s = 0; s < u.outputSlotCount(); ++s) {
                const OutputVc &o = u.outputVcAt(dir, s);
                int held = down.inputVcOccupancy(opposite(dir), s);
                int lhs = o.credits + flits[s] + credits[s] + held;
                NOC_INVARIANT(
                    lhs == u.outputVcDepth(),
                    check::InvariantKind::CreditConservation, now, n, dir,
                    s,
                    "credits " + std::to_string(o.credits) +
                        " + flits in flight " + std::to_string(flits[s]) +
                        " + credits in flight " +
                        std::to_string(credits[s]) +
                        " + downstream occupancy " + std::to_string(held) +
                        " != depth " + std::to_string(u.outputVcDepth()));
                NOC_INVARIANT(
                    o.credits + o.outstanding == u.outputVcDepth(),
                    check::InvariantKind::CreditConservation, now, n, dir,
                    s,
                    "credits " + std::to_string(o.credits) +
                        " + outstanding " + std::to_string(o.outstanding) +
                        " != depth " + std::to_string(u.outputVcDepth()));
            }
        }
    }

    // Flit conservation: the incremental ledger behind quiescent() must
    // count exactly the flits the walk found.
    const std::uint64_t outstanding = ledger_.created - ledger_.retired;
    NOC_INVARIANT(outstanding == held,
                  check::InvariantKind::CreditConservation, now, 0,
                  Direction::Invalid, -1,
                  "flit ledger has " + std::to_string(outstanding) +
                      " flits outstanding, the network holds " +
                      std::to_string(held));
}

RatioStat
Network::rowContention() const
{
    RatioStat s;
    for (const auto &r : routers_)
        s.addHits(r->rowContention().hits(), r->rowContention().trials());
    return s;
}

RatioStat
Network::colContention() const
{
    RatioStat s;
    for (const auto &r : routers_)
        s.addHits(r->colContention().hits(), r->colContention().trials());
    return s;
}

} // namespace noc
