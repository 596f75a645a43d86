#include "check/slot_rules.h"

#include <cstdio>

#include "common/log.h"

namespace noc::check {

const char *
toString(VcClass c)
{
    switch (c) {
      case VcClass::Dx: return "dx";
      case VcClass::Dy: return "dy";
      case VcClass::Txy: return "txy";
      case VcClass::Tyx: return "tyx";
      case VcClass::InjXy: return "Injxy";
      case VcClass::InjYx: return "Injyx";
    }
    return "?";
}

RocoVcConfig
RocoVcConfig::forRouting(RoutingKind kind)
{
    using enum VcClass;
    RocoVcConfig c{};
    switch (kind) {
      case RoutingKind::Adaptive:
        // Row: {dx, tyx, Injxy} {dx, dx, tyx}
        // Col: {dy, txy, Injyx} {dy, txy, txy}
        c.cls[0][0][0] = Dx;  c.cls[0][0][1] = Tyx; c.cls[0][0][2] = InjXy;
        c.cls[0][1][0] = Dx;  c.cls[0][1][1] = Dx;  c.cls[0][1][2] = Tyx;
        c.cls[1][0][0] = Dy;  c.cls[1][0][1] = Txy; c.cls[1][0][2] = InjYx;
        c.cls[1][1][0] = Dy;  c.cls[1][1][1] = Txy; c.cls[1][1][2] = Txy;
        break;
      case RoutingKind::XYYX:
        // Row: {dx, tyx, Injxy} {dx, dx, tyx}
        // Col: {dy, txy, Injyx} {dy, dy, txy}
        c.cls[0][0][0] = Dx;  c.cls[0][0][1] = Tyx; c.cls[0][0][2] = InjXy;
        c.cls[0][1][0] = Dx;  c.cls[0][1][1] = Dx;  c.cls[0][1][2] = Tyx;
        c.cls[1][0][0] = Dy;  c.cls[1][0][1] = Txy; c.cls[1][0][2] = InjYx;
        c.cls[1][1][0] = Dy;  c.cls[1][1][1] = Dy;  c.cls[1][1][2] = Txy;
        break;
      case RoutingKind::XY:
        // Row: {dx, dx, Injxy} {dx, dx, Injxy}
        // Col: {dy, txy, Injyx} {dy, dy, txy}
        c.cls[0][0][0] = Dx;  c.cls[0][0][1] = Dx;  c.cls[0][0][2] = InjXy;
        c.cls[0][1][0] = Dx;  c.cls[0][1][1] = Dx;  c.cls[0][1][2] = InjXy;
        c.cls[1][0][0] = Dy;  c.cls[1][0][1] = Txy; c.cls[1][0][2] = InjYx;
        c.cls[1][1][0] = Dy;  c.cls[1][1][1] = Dy;  c.cls[1][1][2] = Txy;
        break;
    }
    return c;
}

int
RocoVcConfig::countClass(Module m, int port, VcClass c) const
{
    int n = 0;
    for (int v = 0; v < kVcsPerSet; ++v)
        n += at(m, port, v) == c ? 1 : 0;
    return n;
}

std::string
rocoSlotName(const RocoVcConfig &table, int slot)
{
    Module m = rocoSlotModule(slot);
    int port = rocoSlotPort(slot);
    int vc = rocoSlotVc(slot);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s p%d v%d [%s]", toString(m), port, vc,
                  toString(table.at(m, port, vc)));
    return buf;
}

std::string
genericSlotName(int vcsPerPort, int slot)
{
    Direction port = static_cast<Direction>(slot / vcsPerPort);
    char buf[32];
    std::snprintf(buf, sizeof buf, "in-%s v%d", toString(port),
                  slot % vcsPerPort);
    return buf;
}

std::string
psSlotName(int vcsPerPort, int slot)
{
    Quadrant q = static_cast<Quadrant>(slot / vcsPerPort);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s v%d", toString(q), slot % vcsPerPort);
    return buf;
}

RocoCheckOptions
RocoCheckOptions::shipped(RoutingKind kind)
{
    return {RocoVcConfig::forRouting(kind), true, false};
}

std::uint64_t
rocoSlotMask(const RocoCheckOptions &o, RoutingKind kind, Direction arrival,
             Direction outHere, bool yxOrder)
{
    NOC_ASSERT(isCardinal(outHere), "RoCo flits buffer toward a cardinal");
    std::uint64_t mask = 0;
    Module m = moduleForOutput(outHere);
    if (arrival == Direction::Local) {
        VcClass want = m == Module::Row ? VcClass::InjXy : VcClass::InjYx;
        for (int p = 0; p < kPortsPerModule; ++p)
            for (int v = 0; v < kVcsPerSet; ++v)
                if (o.table.at(m, p, v) == want)
                    mask |= 1ull << rocoSlot(m, p, v);
        return mask;
    }
    int p = portSideFor(m, arrival);
    VcClass cls = classifyFlit(arrival, outHere);
    bool turn = cls == VcClass::Txy || cls == VcClass::Tyx;
    int count = o.table.countClass(m, p, cls);
    bool partition = kind == RoutingKind::XYYX && o.orderPartition &&
                     (cls == VcClass::Dx || cls == VcClass::Dy) && count >= 2;
    // Only port p, the arrival link's canonical port, is eligible:
    // pooling across ports would let opposite directions share buffers
    // and reintroduce head-on deadlock. XY-YX order partition: the
    // dimension order that owns fewer packets of this class gets the
    // last slot, the other the rest.
    bool minority = cls == VcClass::Dx ? yxOrder : !yxOrder;
    int ordinal = 0;
    for (int v = 0; v < kVcsPerSet; ++v) {
        VcClass have = o.table.at(m, p, v);
        if (have == cls) {
            int ord = ordinal++;
            if (partition && minority != (ord == count - 1))
                continue;
            mask |= 1ull << rocoSlot(m, p, v);
        } else if (o.mergeTurnClasses && turn &&
                   (have == VcClass::Dx || have == VcClass::Dy)) {
            // Audit knob: turn flits admitted into the dimension slots
            // of their target port as one unrestricted shared class.
            mask |= 1ull << rocoSlot(m, p, v);
        }
    }
    return mask;
}

RocoSlotTable::RocoSlotTable(const RocoCheckOptions &o, RoutingKind kind)
{
    for (int a = 0; a < kNumPorts; ++a)
        for (int d = 0; d < kNumCardinal; ++d)
            for (int yx = 0; yx < 2; ++yx)
                masks_[a][d][yx] = rocoSlotMask(
                    o, kind, static_cast<Direction>(a),
                    static_cast<Direction>(d), yx == 1);
}

std::uint64_t
genericSlotMask(RoutingKind kind, int port, int vcsPerPort, bool yxOrder)
{
    std::uint64_t all = ((1ull << vcsPerPort) - 1) << (port * vcsPerPort);
    if (port == static_cast<int>(Direction::Local))
        return all; // injection claims any idle Local VC
    if (kind != RoutingKind::XYYX)
        return all;
    // XY-YX: YX packets own the last VC, XY packets the rest. Each
    // partition's dependency graph is acyclic on its own (the role of
    // the paper's extra VCs); XY and west-first adaptive need none.
    std::uint64_t last = 1ull << (port * vcsPerPort + vcsPerPort - 1);
    return yxOrder ? last : all & ~last;
}

std::uint64_t
genericSvcSlotMask(RoutingKind kind, int port, int vcsPerPort, bool yxOrder,
                   bool classPartition)
{
    if (!classPartition ||
        port != static_cast<int>(Direction::Local))
        return genericSlotMask(kind, port, vcsPerPort, yxOrder);
    // Service-mode injection partition: the last Local VC is reserved
    // for replies (YX order) and the rest for requests (XY order),
    // extending the XYYX order split to the one port the open-loop
    // rule leaves shared.
    std::uint64_t all = ((1ull << vcsPerPort) - 1) << (port * vcsPerPort);
    std::uint64_t last = 1ull << (port * vcsPerPort + vcsPerPort - 1);
    return yxOrder ? last : all & ~last;
}

std::uint64_t
psPoolMask(Quadrant q, int vcsPerPort)
{
    return ((1ull << vcsPerPort) - 1) << (static_cast<int>(q) * vcsPerPort);
}

std::uint64_t
rocoDeadSlotMask(const NodeFaultState &s)
{
    std::uint64_t mask = 0;
    if (s.nodeDead)
        return (1ull << kRocoSlots) - 1;
    for (int m = 0; m < 2; ++m) {
        if (s.moduleDead[m]) {
            for (int p = 0; p < kPortsPerModule; ++p)
                for (int v = 0; v < kVcsPerSet; ++v)
                    mask |= 1ull << rocoSlot(static_cast<Module>(m), p, v);
        }
    }
    for (const DeadVc &d : s.deadVcs)
        mask |= 1ull << rocoSlot(d.module, d.portIndex, d.vcIndex);
    return mask;
}

} // namespace noc::check
