#include "router/router.h"

#include <bit>

#include "sim/nic.h"

namespace noc {

namespace {

/** Healthy state returned when no fault map is installed. */
const NodeFaultState kHealthy{};

} // namespace

Router::Router(NodeId id, const SimConfig &cfg, const MeshTopology &topo,
               const RoutingAlgorithm &routing, const FaultMap *faults)
    : cfg_(cfg), topo_(topo), routing_(routing), faults_(faults), id_(id),
      // The map's per-node states live in a vector sized once at
      // construction and mutated in place, so the reference is stable
      // for the router's lifetime (fault injection included).
      fs_(faults ? &faults->state(id) : &kHealthy),
      flitClock_(cfg.hopDelay), creditClock_(cfg.creditDelay),
      routingKind_(routing.kind())
{
}

void
Router::setNic(Nic *nic)
{
    nic_ = nic;
    srcQueue_ = &nic->sourceQueue();
}

void
Router::connectPort(Direction d, const PortIo &io)
{
    NOC_ASSERT(isCardinal(d), "only cardinal ports are wired");
    NOC_ASSERT(io.flitIn && io.flitOut, "incomplete port wiring");
    ports_[static_cast<int>(d)] = io;
}

void
Router::setNeighbor(Direction d, Router *r)
{
    NOC_ASSERT(isCardinal(d), "neighbors sit behind cardinal ports");
    neighbors_[static_cast<int>(d)] = r;
}

void
Router::initInputVcs(const VcLayout &layout)
{
    numVcs_ = layout.vcsPerSet;
    depth_ = layout.depth;
    portStride_ = layout.perPortSlots ? numVcs_ : 0;
    vcsPerModule_ = layout.vcsPerModule;

    // Carve every VC's flit slots and packet-control records out of two
    // contiguous arenas; the pools are sized once so the views below
    // stay valid for the router's lifetime.
    const int nVc = layout.inputVcs;
    flitPool_.resize(static_cast<size_t>(nVc) * depth_);
    ctlPool_.resize(static_cast<size_t>(nVc) * (depth_ + 1));
    in_.reserve(static_cast<size_t>(nVc));
    for (int i = 0; i < nVc; ++i) {
        in_.emplace_back(&flitPool_[static_cast<size_t>(i) * depth_],
                         depth_,
                         &ctlPool_[static_cast<size_t>(i) * (depth_ + 1)],
                         depth_ + 1);
    }

    // Output slot namespace mirrors the downstream input VC pool: the
    // per-port VCs, or the whole pool when links share it.
    slotsPerDir_ = layout.perPortSlots ? numVcs_ : nVc;
    NOC_ASSERT(slotsPerDir_ <= kMaxCreditVcs,
               "output slots index 32-bit credit masks");
    outVcDepth_ = depth_;
    outVc_.assign(static_cast<size_t>(kNumCardinal) * slotsPerDir_,
                  OutputVc{});
    for (auto &vc : outVc_)
        vc.credits = depth_;
}

bool
Router::reserveInputVc(int slotId, Direction fromDir,
                       std::uint64_t packetId, bool probeOnly,
                       int &freeSpace)
{
    NOC_ASSERT(slotId >= 0 && slotId < slotsPerDir_,
               "reservation slot out of range");
    InputVc &ivc = in_[static_cast<size_t>(inIndex(fromDir, slotId))];
    // A slot is grantable when unreserved, or when the same link is
    // chaining packets back to back (its previous tail is in flight).
    if (ivc.reservedFrom != Direction::Invalid &&
        ivc.reservedFrom != fromDir) {
        return false;
    }
    // Cross-link handoff must wait for the previous link's flits to
    // drain: buffer pops return credits to the link that sent the
    // flit, so a new reserver could never learn about that space.
    if (!ivc.buf.empty() && ivc.occupantLink != fromDir)
        return false;
    freeSpace = depth_ - ivc.buf.occupancy();
    if (!probeOnly) {
        ivc.reservedFrom = fromDir;
        ivc.reservedPacket = packetId;
    }
    return true;
}

int
Router::inputVcOccupancy(Direction fromDir, int slotId) const
{
    NOC_ASSERT(slotId >= 0 && slotId < slotsPerDir_,
               "input VC slot range");
    // Pooled slots are shared between upstream links; attribute the
    // occupancy to the link whose packet currently holds the buffer.
    const InputVc &ivc = in_[static_cast<size_t>(inIndex(fromDir, slotId))];
    return ivc.occupantLink == fromDir ? ivc.buf.occupancy() : 0;
}

int
Router::bufferedFlits() const
{
    int n = 0;
    for (const InputVc &v : in_)
        n += v.buf.occupancy();
    return n;
}

bool
Router::creditsQuiescent() const
{
    for (int d = 0; d < kNumCardinal; ++d) {
        if (!ports_[d].flitOut)
            continue; // mesh edge: slots never used
        for (int s = 0; s < slotsPerDir_; ++s) {
            const OutputVc &o = outputVc(static_cast<Direction>(d), s);
            if (o.busy || o.outstanding != 0 ||
                o.credits != outVcDepth_) {
                return false;
            }
        }
    }
    return true;
}

void
Router::countFlitsIn(Direction d, std::vector<int> &flits) const
{
    flits.assign(static_cast<std::size_t>(slotsPerDir_), 0);
    const int di = static_cast<int>(d);
    for (unsigned occ = pendFlitIn_[di].load(std::memory_order_relaxed);
         occ; occ &= occ - 1) {
        const Flit &f = ports_[di].flitIn[std::countr_zero(occ)];
        if (f.vc != 0xFF && f.vc < slotsPerDir_)
            ++flits[f.vc];
    }
}

void
Router::countCreditsIn(Direction d, std::vector<int> &credits) const
{
    credits.assign(static_cast<std::size_t>(slotsPerDir_), 0);
    const int di = static_cast<int>(d);
    for (int s = 0; s < creditClock_.slots(); ++s) {
        for (const auto &mask : pendCreditIn_[s][di]) {
            for (std::uint32_t m = mask.load(std::memory_order_relaxed); m;
                 m &= m - 1) {
                const int vc = std::countr_zero(m);
                if (vc < slotsPerDir_)
                    ++credits[static_cast<std::size_t>(vc)];
            }
        }
    }
}

void
Router::debugCorruptCredit(Direction d, int slot)
{
    --outputVc(d, slot).credits;
}

StageMasks
Router::stageMasksFromState() const
{
    StageMasks m;
    for (int i = 0; i < static_cast<int>(in_.size()); ++i)
        m.set(i, stageOf(i));
    return m;
}

DirectionSet
Router::lookaheadCandidates(Direction outDir, const Flit &f) const
{
    auto next = topo_.neighbor(id_, outDir);
    NOC_ASSERT(next.has_value(), "look-ahead across the mesh edge");
    DirectionSet out;
    if (*next == f.dst) {
        if (!faults_ || !faults_->state(*next).nodeDead)
            out.push(Direction::Local);
        return out; // empty when the destination itself is off-line
    }

    DirectionSet cand = routing_.route(*next, f);
    NOC_ASSERT(!cand.empty(), "routing returned no candidates");

    // Fault awareness: skip candidates that would strand the flit at
    // the next router (dead node beyond it, or — for module-scoped
    // architectures — the module owning the candidate output is dead
    // at the next router itself).
    for (Direction c : cand) {
        if (faults_) {
            if (faults_->blocksOutput(*next, c))
                continue; // cannot even be buffered for that output
            auto beyond = topo_.neighbor(*next, c);
            if (beyond && faults_->state(*beyond).nodeDead)
                continue; // would head into a dead node

        }
        out.push(c);
    }
    // An empty result means every minimal candidate is permanently
    // blocked; callers discard the packet (static fault handling).
    return out;
}

Direction
Router::computeLookahead(Direction outDir, const Flit &f) const
{
    DirectionSet cand = lookaheadCandidates(outDir, f);
    if (cand.empty())
        return Direction::Invalid; // permanently blocked: discard
    // Prefer continuing in the dimension the flit is moving in now;
    // fewer turns means less pressure on the txy/tyx path sets.
    for (Direction c : cand) {
        if (c == Direction::Local || isRow(c) == isRow(outDir))
            return c;
    }
    return cand[0];
}

bool
Router::destinationDead(const Flit &f) const
{
    return faults_ && faults_->state(f.dst).nodeDead;
}

bool
Router::nextHopsDead(const Flit &head) const
{
    if (!faults_)
        return false;
    if (destinationDead(head))
        return true;
    for (Direction d : routing_.route(id_, head)) {
        if (d == Direction::Local)
            return false;
        if (!hasPort(d))
            continue;
        auto nb = topo_.neighbor(id_, d);
        if (nb && !faults_->state(*nb).nodeDead)
            return false;
    }
    return true;
}

} // namespace noc
