#include "model/micro_model.h"

#include <cstdio>

#include "common/flit.h"
#include "common/log.h"
#include "routing/quadrant.h"

namespace noc::model {

namespace {

// Packed per-packet layout (16 bits each, packet i at bit 16*i):
//   [1:0] stage  [5:2] node  [8:6] arrival  [14:9] slot
constexpr int kStageShift = 0;
constexpr int kNodeShift = 2;
constexpr int kArrivalShift = 6;
constexpr int kSlotShift = 9;

std::uint64_t
field(std::uint64_t s, int pkt, int shift, std::uint64_t mask)
{
    return (s >> (16 * pkt + shift)) & mask;
}

} // namespace

const char *
toString(Mutation m)
{
    switch (m) {
    case Mutation::None:
        return "none";
    case Mutation::NonMinimalRouting:
        return "non-minimal-routing";
    case Mutation::NoFaultDrop:
        return "no-fault-drop";
    }
    return "?";
}

MicroModel::MicroModel(const Scenario &sc)
    : sc_(sc), topo_(sc.width, sc.height),
      routing_(makeRouting(sc.routing, topo_)),
      faults_(topo_.numNodes(), sc.arch),
      rocoOpts_(check::RocoCheckOptions::shipped(sc.routing)),
      rocoSlots_(rocoOpts_, sc.routing)
{
    NOC_ASSERT(topo_.numNodes() <= kMaxNodes, "mesh too large for model");
    NOC_ASSERT(static_cast<int>(sc_.packets.size()) <= kMaxPackets,
               "too many packets for model");
    switch (sc_.arch) {
    case RouterArch::Roco:
        slotsPerNode_ = check::kRocoSlots;
        break;
    case RouterArch::Generic:
        slotsPerNode_ = kNumPorts * sc_.vcsPerPort;
        break;
    case RouterArch::PathSensitive:
        slotsPerNode_ = kNumQuadrants * sc_.vcsPerPort;
        break;
    }
    NOC_ASSERT(slotsPerNode_ <= 63, "slot id overflows packed field");
    for (const PacketSpec &p : sc_.packets)
        NOC_ASSERT(p.src != p.dst &&
                       p.src < static_cast<NodeId>(topo_.numNodes()) &&
                       p.dst < static_cast<NodeId>(topo_.numNodes()),
                   "bad packet spec");
    for (const FaultSpec &f : sc_.faults)
        faults_.apply(f);
}

MicroModel::Stage
MicroModel::stage(std::uint64_t s, int pkt) const
{
    return static_cast<Stage>(field(s, pkt, kStageShift, 0x3));
}

NodeId
MicroModel::node(std::uint64_t s, int pkt) const
{
    return static_cast<NodeId>(field(s, pkt, kNodeShift, 0xF));
}

Direction
MicroModel::arrival(std::uint64_t s, int pkt) const
{
    return static_cast<Direction>(field(s, pkt, kArrivalShift, 0x7));
}

int
MicroModel::slot(std::uint64_t s, int pkt) const
{
    return static_cast<int>(field(s, pkt, kSlotShift, 0x3F));
}

std::uint64_t
MicroModel::setPacket(std::uint64_t s, int pkt, Stage st, NodeId n,
                      Direction arr, int sl) const
{
    std::uint64_t w = (static_cast<std::uint64_t>(st) << kStageShift) |
                      (static_cast<std::uint64_t>(n) << kNodeShift) |
                      (static_cast<std::uint64_t>(arr) << kArrivalShift) |
                      (static_cast<std::uint64_t>(sl) << kSlotShift);
    int off = 16 * pkt;
    return (s & ~(0xFFFFull << off)) | (w << off);
}

std::uint64_t
MicroModel::initialState() const
{
    std::uint64_t s = 0;
    for (int i = 0; i < numPackets(); ++i)
        s = setPacket(s, i, Stage::Queued, sc_.packets[i].src,
                      Direction::Local, 0);
    return s;
}

bool
MicroModel::isTerminal(std::uint64_t s) const
{
    for (int i = 0; i < numPackets(); ++i)
        if (stage(s, i) == Stage::Queued || stage(s, i) == Stage::InFlight)
            return false;
    return true;
}

int
MicroModel::measure(std::uint64_t s, int pkt) const
{
    switch (stage(s, pkt)) {
    case Stage::Queued:
        return 4 * topo_.distance(sc_.packets[pkt].src,
                                  sc_.packets[pkt].dst) +
               3;
    case Stage::InFlight:
        return 4 * topo_.distance(node(s, pkt), sc_.packets[pkt].dst) + 2;
    case Stage::Delivered:
    case Stage::Dropped:
        return 0;
    }
    return 0;
}

std::uint8_t
MicroModel::outcome(std::uint64_t s, int pkt) const
{
    switch (stage(s, pkt)) {
    case Stage::Delivered:
        return kOutcomeDelivered;
    case Stage::Dropped:
        return kOutcomeDropped;
    default:
        return 0;
    }
}

void
MicroModel::candidates(int pkt, NodeId n, std::vector<Direction> &out) const
{
    out.clear();
    Flit f;
    f.dst = sc_.packets[pkt].dst;
    f.yxOrder = sc_.packets[pkt].yxOrder;
    DirectionSet set = routing_->route(n, f);
    for (Direction d : set)
        out.push_back(d);
    if (sc_.mutation == Mutation::NonMinimalRouting) {
        // Deliberately broken: admit unproductive hops too.
        for (int di = 0; di < kNumCardinal; ++di) {
            Direction d = static_cast<Direction>(di);
            if (topo_.hasNeighbor(n, d) && !set.contains(d))
                out.push_back(d);
        }
    }
}

bool
MicroModel::slotAllowsOut(int pkt, int slot, Direction arr,
                          Direction d) const
{
    switch (sc_.arch) {
    case RouterArch::Roco:
        return (rocoSlots_.mask(arr, d, sc_.packets[pkt].yxOrder) >>
                slot) &
               1;
    case RouterArch::Generic:
        return true;
    case RouterArch::PathSensitive:
        return quadrantServes(
            static_cast<Quadrant>(slot / sc_.vcsPerPort), d);
    }
    return false;
}

void
MicroModel::entryOptions(std::uint64_t s, int pkt, NodeId n, Direction arr,
                         bool ignoreOccupancy,
                         std::vector<Entry> &out) const
{
    out.clear();
    const NodeFaultState &fs = faults_.state(n);
    if (sc_.arch != RouterArch::Roco && fs.nodeDead)
        return; // whole node off-line: nothing can buffer here
    std::uint64_t dead = sc_.arch == RouterArch::Roco
                             ? check::rocoDeadSlotMask(fs)
                             : 0;
    std::uint64_t occupied = 0;
    if (!ignoreOccupancy) {
        for (int i = 0; i < numPackets(); ++i)
            if (i != pkt && stage(s, i) == Stage::InFlight &&
                node(s, i) == n)
                occupied |= 1ull << slot(s, i);
    }

    std::vector<Direction> outs;
    candidates(pkt, n, outs);
    NodeId dst = sc_.packets[pkt].dst;
    for (Direction d : outs) {
        if (!isCardinal(d) || faults_.blocksOutput(n, d))
            continue;
        std::uint64_t mask = 0;
        switch (sc_.arch) {
        case RouterArch::Roco: {
            std::uint64_t m =
                rocoSlots_.mask(arr, d, sc_.packets[pkt].yxOrder);
            NOC_ASSERT(m != 0, "no RoCo slot class for (arrival, out)");
            mask = m & ~dead;
            break;
        }
        case RouterArch::Generic:
            mask = check::genericSlotMask(sc_.routing,
                                          static_cast<int>(arr),
                                          sc_.vcsPerPort,
                                          sc_.packets[pkt].yxOrder);
            break;
        case RouterArch::PathSensitive:
            for (bool tb : {false, true}) {
                Quadrant q = quadrantOf(topo_, n, dst, tb);
                if (quadrantServes(q, d))
                    mask |= check::psPoolMask(q, sc_.vcsPerPort);
            }
            break;
        }
        mask &= ~occupied;
        for (int sl = 0; sl < slotsPerNode_; ++sl)
            if ((mask >> sl) & 1)
                out.push_back(Entry{sl, d});
    }
}

bool
MicroModel::dirUsable(std::uint64_t s, int pkt, NodeId n, Direction d) const
{
    if (faults_.blocksOutput(n, d))
        return false;
    std::optional<NodeId> nn = topo_.neighbor(n, d);
    if (!nn)
        return false;
    NodeId dst = sc_.packets[pkt].dst;
    if (*nn == dst)
        return !faults_.blocksOutput(dst, Direction::Local);
    std::vector<Entry> opts;
    entryOptions(s, pkt, *nn, opposite(d), /*ignoreOccupancy=*/true, opts);
    return !opts.empty();
}

void
MicroModel::enumerate(std::uint64_t s, std::vector<Transition> &out) const
{
    out.clear();
    std::vector<Direction> cand;
    std::vector<Entry> opts;
    for (int pkt = 0; pkt < numPackets(); ++pkt) {
        const PacketSpec &spec = sc_.packets[pkt];
        switch (stage(s, pkt)) {
        case Stage::Queued: {
            // Inject: claim an eligible injection slot whose planned
            // output survives the look-ahead fault filter, the
            // drop-or-buffer decision RouterPipeline::pullInjection
            // makes over the same slot rules.
            entryOptions(s, pkt, spec.src, Direction::Local, false, opts);
            std::uint64_t seen = 0;
            bool anyLive = false;
            for (const Entry &e : opts) {
                if (!dirUsable(s, pkt, spec.src, e.outAtNext))
                    continue;
                anyLive = true;
                if ((seen >> e.slot) & 1)
                    continue;
                seen |= 1ull << e.slot;
                out.push_back(
                    {Action{pkt, Action::Kind::Inject, Direction::Invalid,
                            e.slot},
                     setPacket(s, pkt, Stage::InFlight, spec.src,
                               Direction::Local, e.slot)});
            }
            if (!anyLive && sc_.mutation != Mutation::NoFaultDrop) {
                // Permanently blocked at the source (dead node / dead
                // injection class / no surviving look-ahead)?  Only
                // then is the drop deterministic; mere occupancy waits.
                entryOptions(s, pkt, spec.src, Direction::Local, true,
                             opts);
                bool permanentlyBlocked = true;
                for (const Entry &e : opts)
                    if (dirUsable(s, pkt, spec.src, e.outAtNext))
                        permanentlyBlocked = false;
                if (permanentlyBlocked)
                    out.push_back(
                        {Action{pkt, Action::Kind::Drop,
                                Direction::Invalid, -1},
                         setPacket(s, pkt, Stage::Dropped, spec.src,
                                   Direction::Local, 0)});
            }
            break;
        }
        case Stage::InFlight: {
            NodeId n = node(s, pkt);
            Direction arr = arrival(s, pkt);
            int sl = slot(s, pkt);
            candidates(pkt, n, cand);
            bool anyUsable = false;
            for (Direction d : cand) {
                if (!isCardinal(d) || !slotAllowsOut(pkt, sl, arr, d))
                    continue;
                if (dirUsable(s, pkt, n, d))
                    anyUsable = true;
                if (faults_.blocksOutput(n, d))
                    continue;
                NodeId nn = *topo_.neighbor(n, d);
                if (nn == spec.dst) {
                    if (!faults_.blocksOutput(nn, Direction::Local))
                        out.push_back(
                            {Action{pkt, Action::Kind::Deliver, d, -1},
                             setPacket(s, pkt, Stage::Delivered, nn,
                                       opposite(d), 0)});
                    continue;
                }
                entryOptions(s, pkt, nn, opposite(d), false, opts);
                std::uint64_t seen = 0;
                for (const Entry &e : opts) {
                    if ((seen >> e.slot) & 1)
                        continue;
                    seen |= 1ull << e.slot;
                    out.push_back(
                        {Action{pkt, Action::Kind::Move, d, e.slot},
                         setPacket(s, pkt, Stage::InFlight, nn,
                                   opposite(d), e.slot)});
                }
            }
            if (!anyUsable && sc_.mutation != Mutation::NoFaultDrop)
                out.push_back({Action{pkt, Action::Kind::Drop,
                                      Direction::Invalid, -1},
                               setPacket(s, pkt, Stage::Dropped, n, arr,
                                         0)});
            break;
        }
        case Stage::Delivered:
        case Stage::Dropped:
            break;
        }
    }
}

std::string
MicroModel::slotName(int slot) const
{
    switch (sc_.arch) {
    case RouterArch::Roco:
        return check::rocoSlotName(rocoOpts_.table, slot);
    case RouterArch::Generic:
        return check::genericSlotName(sc_.vcsPerPort, slot);
    case RouterArch::PathSensitive:
        return check::psSlotName(sc_.vcsPerPort, slot);
    }
    return "?";
}

std::string
MicroModel::renderAction(const Action &a, std::uint64_t before) const
{
    char buf[160];
    NodeId n = node(before, a.packet);
    Coord c = topo_.coord(n);
    switch (a.kind) {
    case Action::Kind::Inject:
        std::snprintf(buf, sizeof buf,
                      "pkt%d inject at (%d,%d) slot %s", a.packet, c.x,
                      c.y, slotName(a.slot).c_str());
        break;
    case Action::Kind::Move: {
        Coord nc = topo_.coord(*topo_.neighbor(n, a.dir));
        std::snprintf(buf, sizeof buf,
                      "pkt%d move %s (%d,%d)->(%d,%d) slot %s", a.packet,
                      noc::toString(a.dir), c.x, c.y, nc.x, nc.y,
                      slotName(a.slot).c_str());
        break;
    }
    case Action::Kind::Deliver: {
        Coord nc = topo_.coord(*topo_.neighbor(n, a.dir));
        std::snprintf(buf, sizeof buf,
                      "pkt%d eject %s (%d,%d)->(%d,%d)", a.packet,
                      noc::toString(a.dir), c.x, c.y, nc.x, nc.y);
        break;
    }
    case Action::Kind::Drop:
        std::snprintf(buf, sizeof buf,
                      "pkt%d dropped at (%d,%d) (all minimal hops "
                      "fault-blocked)",
                      a.packet, c.x, c.y);
        break;
    }
    return buf;
}

std::string
MicroModel::renderState(std::uint64_t s) const
{
    std::string out;
    char buf[160];
    for (int i = 0; i < numPackets(); ++i) {
        Coord c = topo_.coord(node(s, i));
        Coord d = topo_.coord(sc_.packets[i].dst);
        switch (stage(s, i)) {
        case Stage::Queued:
            std::snprintf(buf, sizeof buf,
                          "    pkt%d queued at (%d,%d), dst (%d,%d)\n", i,
                          c.x, c.y, d.x, d.y);
            break;
        case Stage::InFlight:
            std::snprintf(
                buf, sizeof buf,
                "    pkt%d in flight at (%d,%d) slot %s (arrived %s), "
                "dst (%d,%d)\n",
                i, c.x, c.y, slotName(slot(s, i)).c_str(),
                noc::toString(arrival(s, i)), d.x, d.y);
            break;
        case Stage::Delivered:
            std::snprintf(buf, sizeof buf, "    pkt%d delivered\n", i);
            break;
        case Stage::Dropped:
            std::snprintf(buf, sizeof buf,
                          "    pkt%d dropped at (%d,%d)\n", i, c.x, c.y);
            break;
        }
        out += buf;
    }
    return out;
}

} // namespace noc::model
