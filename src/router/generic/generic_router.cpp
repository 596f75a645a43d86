#include "router/generic/generic_router.h"

#include <bit>
#include <limits>

#include "check/slot_rules.h"
#include "obs/recorder.h"
#include "svc/protocol.h"

namespace noc {

namespace {

constexpr int kInfiniteCredits = std::numeric_limits<int>::max() / 2;

} // namespace

GenericRouter::GenericRouter(NodeId id, const SimConfig &cfg,
                             const MeshTopology &topo,
                             const RoutingAlgorithm &routing,
                             const FaultMap *faults)
    : RouterPipeline(id, cfg, topo, routing, faults,
                     VcLayout{cfg.vcsPerPort, cfg.bufferDepthGeneric,
                              kNumPorts * cfg.vcsPerPort,
                              /*perPortSlots=*/true,
                              kNumPorts * cfg.vcsPerPort}),
      svcInjPartition_(svc::classPartitionActive(cfg)),
      xbar_(kNumPorts, kNumPorts), ejectClock_(cfg.hopDelay - 1)
{
    localOut_.assign(static_cast<size_t>(numVcs_), OutputVc{});
    for (auto &o : localOut_)
        o.credits = kInfiniteCredits;

    saPort_.reserve(kNumPorts);
    saOut_.reserve(kNumPorts);
    for (int i = 0; i < kNumPorts; ++i) {
        saPort_.emplace_back(numVcs_);
        saOut_.emplace_back(kNumPorts);
    }
}

int
GenericRouter::bufferedFlits() const
{
    return Router::bufferedFlits() +
           std::popcount(ejectOcc_.load(std::memory_order_relaxed));
}

OutputVc &
GenericRouter::outSlot(Direction d, int slot)
{
    if (d == Direction::Local)
        return localOut_[static_cast<size_t>(slot)];
    return outputVc(d, slot);
}

void
GenericRouter::beginCycle(Cycle now)
{
    xbar_.beginCycle();
    // One output port: at most one flit leaves the ST pipe per cycle.
    if (const Flit *f = dueFlit(ejectSlots_, ejectClock_, ejectOcc_, now)) {
        takeFlit(ejectClock_, ejectOcc_, now);
        noteFlitUnbuffered(); // ST pipe counts as buffered work
        nic_->deliverFlit(*f, now);
    }
}

int
GenericRouter::injectionVc(const Flit &head, Direction &)
{
    // Claim a completely idle injection VC for the new packet. Under
    // the service-mode class partition the slot rules split the Local
    // VCs by dimension order — the injection half of the prover's
    // end-to-end partition argument.
    const std::uint64_t slots = check::genericSvcSlotMask(
        routingKind(), static_cast<int>(Direction::Local), numVcs_,
        head.yxOrder, svcInjPartition_);
    for (std::uint64_t m = slots; m; m &= m - 1) {
        const int idx = std::countr_zero(m);
        if (in_[static_cast<size_t>(idx)].ctl.empty())
            return idx;
    }
    return -1;
}

bool
GenericRouter::pickVcRequest(const Flit &head, Direction &dirOut,
                             int &slotOut)
{
    DirectionSet cand = routing_.route(id(), head);
    NOC_ASSERT(!cand.empty(), "no route candidates");

    int bestCredits = -1;
    dirOut = Direction::Invalid;
    slotOut = -1;
    for (Direction d : cand) {
        if (d != Direction::Local) {
            if (!hasPort(d))
                continue;
            if (faults_) {
                auto nb = topo_.neighbor(id(), d);
                if (nb && faults_->state(*nb).nodeDead)
                    continue; // never send into a dead node
            }
        }
        // The PE sinks every flit, so ejection may take any PE-side
        // VC; a link offers the VCs the slot rules allow the packet
        // at the downstream input port.
        std::uint64_t slots = (1ull << numVcs_) - 1;
        if (d != Direction::Local) {
            const int port = static_cast<int>(opposite(d));
            slots = check::genericSlotMask(routingKind(), port, numVcs_,
                                           head.yxOrder) >>
                    (port * numVcs_);
        }
        for (; slots; slots &= slots - 1) {
            const int s = std::countr_zero(slots);
            const OutputVc &o = outSlot(d, s);
            if (o.busy)
                continue;
            // Adaptive selection: most free credits wins; ties keep
            // the routing function's preferred (earlier) direction.
            if (o.credits > bestCredits) {
                bestCredits = o.credits;
                dirOut = d;
                slotOut = s;
            }
        }
    }
    return slotOut >= 0;
}

GenericRouter::VaPick
GenericRouter::requestVc(const PacketCtl &, const Flit &head,
                         VaRequest &req)
{
    // Input-first separable VA (Figure 2a): RC happens here, at the
    // router holding the head, and picks one candidate output VC.
    if (nextHopsDead(head))
        return VaPick::Drop;
    ++act_.vaLocalArbs;
    return pickVcRequest(head, req.dir, req.slot) ? VaPick::Request
                                                  : VaPick::Wait;
}

void
GenericRouter::allocateSwitch(Cycle now)
{
    // Stage 1: one winner per input port among its SA-ready VCs;
    // requests from packets that won VA this very cycle are
    // speculative and yield to committed ones. Each winner's output is
    // latched into the stage-2 request masks right away — commits
    // below mutate the control queues, so reading them lazily would be
    // stale.
    int stage1[kNumPorts] = {};
    std::uint64_t outReq[kNumPorts] = {};     // bit p: port p wants out
    std::uint64_t outCommit[kNumPorts] = {};  // ... non-speculatively
    unsigned outs = 0;                        // bit out: outReq[out] != 0
    const std::uint64_t portVcs = (1ull << numVcs_) - 1;
    for (int p = 0; p < kNumPorts; ++p) {
        const std::uint64_t ready =
            (stage_.saReady >> (p * numVcs_)) & portVcs;
        if (ready == 0)
            continue;
        const std::uint64_t spec = ready & (vaWon_ >> (p * numVcs_));
        const std::uint64_t mask = ready & ~spec;
        ++act_.saLocalArbs;
        stage1[p] = saPort_[p].arbitrate(mask ? mask : spec);
        const int out =
            static_cast<int>(vc(p, stage1[p]).ctl.front().outDir);
        outReq[out] |= 1ull << p;
        if (mask)
            outCommit[out] |= 1ull << p;
        outs |= 1u << out;
    }

    // Stage 2: one winner per output port; speculative requests are
    // masked whenever a committed request wants the same output.
    for (; outs; outs &= outs - 1) {
        const int out = std::countr_zero(outs);
        const std::uint64_t mask = outReq[out];
        ++act_.saGlobalArbs;
        int winPort =
            saOut_[out].arbitrate(outCommit[out] ? outCommit[out] : mask);

        // Contention probes: every stage-1 winner requesting this
        // output either proceeds or is blocked this cycle (Figure 3).
        for (std::uint64_t req = mask; req; req &= req - 1) {
            const int p = std::countr_zero(req);
            Direction pd = static_cast<Direction>(p);
            bool rowInput = pd == Direction::Local
                                ? isRow(static_cast<Direction>(out))
                                : isRow(pd);
            noteContention(rowInput, p != winPort);
        }

        xbar_.traverse(winPort, out);
        commitTraversal(winPort * numVcs_ + stage1[winPort],
                        static_cast<Direction>(out), now);
    }
}

void
GenericRouter::forward(Direction outDir, const PacketCtl &ctl, Flit &f,
                       Cycle now)
{
    if (outDir != Direction::Local) {
        // The next hop recomputes RC: ctl.nextLa stays Invalid here.
        RouterPipeline::forward(outDir, ctl, f, now);
        return;
    }
    NOC_ASSERT(f.dst == id(), "ejecting at the wrong node");
    if (obs_)
        obs_->record(obs::Stage::SwitchTraverse, f, id(), now, 0, f.vc);
    if (ejectClock_.delay() == 0) {
        nic_->deliverFlit(f, now); // no ST cycles left: straight to the PE
        return;
    }
    putFlit(ejectSlots_, ejectClock_, ejectOcc_, f, now); // ST stage
    noteFlitBuffered(); // still local work until the pipe drains
}

} // namespace noc
