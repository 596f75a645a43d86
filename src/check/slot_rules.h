/**
 * @file
 * Shared slot-eligibility rules: which input-VC slots of a router a
 * packet may occupy, given how it arrives and where it is heading.
 *
 * This is the one definition of that decision. The routers allocate
 * through it at injection and in VC allocation (RoCo's Table 1
 * classes, the generic router's order partitions, the Path-Sensitive
 * quadrant pools), and two independent verifiers prove it: the
 * extended-CDG deadlock prover (check/deadlock.h) and the
 * explicit-state liveness model checker (model/micro_model.h). The
 * proofs therefore speak about the rule the routers run.
 *
 * Slot ids are local to a node and use each architecture's natural
 * numbering — the same numbering flits carry on the wire:
 *   RoCo     (module * kPortsPerModule + port) * kVcsPerSet + vc
 *   generic  port * vcsPerPort + vc
 *   PS       quadrant * vcsPerPort + vc
 *
 * RoCo's VC organisation (paper Table 1) and its guided flit queuing
 * classification live here too, because the rule is stated in them.
 * Twelve VCs in four path sets of three: Row-Module ports 1/2 and
 * Column-Module ports 1/2. VC classes:
 *   dx    - flits travelling in the X dimension (X-first phase)
 *   dy    - flits travelling in the Y dimension (Y-first phase)
 *   txy   - flits switching / having switched from X to Y
 *   tyx   - flits switching / having switched from Y to X
 *   Injxy - injected flits starting in X
 *   Injyx - injected flits starting in Y
 *
 * Port convention within a module (the paper's "Port 1" = index 0):
 *   Row module:    port 0 serves arrivals from the West and South
 *                  sides plus injection; port 1 serves East and North.
 *   Column module: port 0 serves arrivals from the South and West
 *                  sides plus injection; port 1 serves North and East.
 *
 * Deadlock freedom per routing algorithm:
 *   XY      - dimension order, inherently acyclic.
 *   XY-YX   - txy VCs only ever hold X-first packets and tyx VCs only
 *             Y-first packets; dx/dy classes with two slots are
 *             order-partitioned (the role of Table 1's extra VCs).
 *             Single-slot dx/dy classes are shared between orders, as
 *             in the paper; the simulator additionally bounds runs by
 *             a cycle budget (see DESIGN.md).
 *   Adaptive- west-first turn model, safe with any buffer sharing.
 */
#ifndef ROCOSIM_CHECK_SLOT_RULES_H_
#define ROCOSIM_CHECK_SLOT_RULES_H_

#include <cstdint>
#include <string>

#include "common/log.h"
#include "common/types.h"
#include "fault/fault.h"
#include "routing/quadrant.h"

namespace noc::check {

/** Path-set VC classes of Section 3.1. */
enum class VcClass : std::uint8_t {
    Dx = 0,
    Dy = 1,
    Txy = 2,
    Tyx = 3,
    InjXy = 4,
    InjYx = 5,
};

/** Human-readable class name matching the paper's notation. */
const char *toString(VcClass c);

/** Ports per RoCo module (each module owns a 2x2 crossbar). */
constexpr int kPortsPerModule = 2;
/** VCs per path set (port). */
constexpr int kVcsPerSet = 3;

/**
 * The Table 1 VC layout for one routing algorithm.
 * Index as cls[module][port][vc].
 */
struct RocoVcConfig {
    VcClass cls[2][kPortsPerModule][kVcsPerSet];

    /** The published Table 1 row for @p kind. */
    static RocoVcConfig forRouting(RoutingKind kind);

    VcClass
    at(Module m, int port, int vc) const
    {
        return cls[static_cast<int>(m)][port][vc];
    }

    /** Number of VCs of class @p c in (module, port). */
    int countClass(Module m, int port, VcClass c) const;
};

/**
 * Class of a flit buffered at a router, given how it arrives and where
 * it is heading (its look-ahead output at that router). @p outHere must
 * not be Local: locally destined flits are early-ejected, not buffered.
 */
inline VcClass
classifyFlit(Direction arrival, Direction outHere)
{
    NOC_ASSERT(outHere != Direction::Local && outHere != Direction::Invalid,
               "locally destined flits are early-ejected, not buffered");
    if (arrival == Direction::Local)
        return isRow(outHere) ? VcClass::InjXy : VcClass::InjYx;

    // Continuing in the arrival dimension vs turning (Section 3.1).
    if (isRow(arrival))
        return isRow(outHere) ? VcClass::Dx : VcClass::Txy;
    return isColumn(outHere) ? VcClass::Dy : VcClass::Tyx;
}

/** Module that buffers a flit heading to @p outHere (by output dim). */
inline Module
moduleForOutput(Direction outHere)
{
    return moduleOf(outHere);
}

/**
 * Module port serving arrivals from @p arrival (Local -> port 0, the
 * paper places Injxy/Injyx in Port 1).
 */
inline int
portSideFor(Module m, Direction arrival)
{
    if (arrival == Direction::Local)
        return 0;
    if (m == Module::Row) {
        // Row module: West/South arrivals on port 0, East/North on 1.
        return (arrival == Direction::West || arrival == Direction::South)
                   ? 0
                   : 1;
    }
    // Column module: South/West on port 0, North/East on 1.
    return (arrival == Direction::South || arrival == Direction::West)
               ? 0
               : 1;
}

/** RoCo input-VC slots per node (two modules of two 3-VC path sets). */
constexpr int kRocoSlots = 2 * kPortsPerModule * kVcsPerSet; // 12

/** Flat RoCo slot id of (module, port, vc). */
inline int
rocoSlot(Module m, int port, int vc)
{
    return (static_cast<int>(m) * kPortsPerModule + port) * kVcsPerSet + vc;
}

/** Module / port / VC decomposition of a flat RoCo slot id. */
inline Module
rocoSlotModule(int slot)
{
    return static_cast<Module>(slot / (kPortsPerModule * kVcsPerSet));
}
inline int
rocoSlotPort(int slot)
{
    return (slot / kVcsPerSet) % kPortsPerModule;
}
inline int
rocoSlotVc(int slot)
{
    return slot % kVcsPerSet;
}

/** Human-readable slot labels, e.g. "Row p0 v1 [txy]", "in-W v2". */
std::string rocoSlotName(const RocoVcConfig &table, int slot);
std::string genericSlotName(int vcsPerPort, int slot);
std::string psSlotName(int vcsPerPort, int slot);

/**
 * Knobs for auditing RoCo VC tables beyond the shipped Table 1 rows —
 * used to demonstrate that the verifiers reject mis-balanced layouts.
 */
struct RocoCheckOptions {
    RocoVcConfig table{};
    /**
     * Apply the XY-YX order partition on two-slot dx/dy classes (the
     * role of Table 1's extra VCs).  Disabling it under XY-YX lets
     * both dimension orders share every dx/dy slot — the textbook
     * XY+YX buffer cycle.
     */
    bool orderPartition = true;
    /**
     * Admit turn-class flits (txy/tyx) into the dx/dy slots of their
     * target port — "one unrestricted shared class" instead of
     * order-exclusive turn path sets.
     */
    bool mergeTurnClasses = false;

    /** The shipped Table 1 configuration for @p kind. */
    static RocoCheckOptions shipped(RoutingKind kind);
};

/**
 * The slots a flit arriving on @p arrival and leaving on @p outHere may
 * occupy at a RoCo router, parameterised by the audit knobs (the
 * router allocates with RocoCheckOptions::shipped). @p arrival ==
 * Local selects the injection classes.
 */
std::uint64_t rocoSlotMask(const RocoCheckOptions &o, RoutingKind kind,
                           Direction arrival, Direction outHere,
                           bool yxOrder);

/**
 * rocoSlotMask's 40 answers for one (options, routing) pair: every
 * arrival (Local included) x cardinal output x dimension order, filled
 * once from rocoSlotMask itself. The rule keeps its one definition;
 * the routers and the verifiers that ask it per flit or per transition
 * index this table instead of re-counting Table 1 classes.
 */
class RocoSlotTable
{
  public:
    RocoSlotTable(const RocoCheckOptions &o, RoutingKind kind);

    /** rocoSlotMask(o, kind, arrival, outHere, yxOrder). */
    std::uint64_t
    mask(Direction arrival, Direction outHere, bool yxOrder) const
    {
        NOC_ASSERT(isCardinal(outHere),
                   "RoCo flits buffer toward a cardinal");
        return masks_[static_cast<int>(arrival)]
                     [static_cast<int>(outHere)][yxOrder ? 1 : 0];
    }

  private:
    std::uint64_t masks_[kNumPorts][kNumCardinal][2];
};

/** Generic-router slots a flit may occupy on input port @p port. */
std::uint64_t genericSlotMask(RoutingKind kind, int port, int vcsPerPort,
                              bool yxOrder);

/**
 * Service-mode variant: with the request/reply class partition in
 * force, the Local (injection) VCs are split by dimension order too —
 * replies (YX) own the last Local VC, requests (XY) the rest — the
 * generic router's injection claim under that partition.
 * Falls back to genericSlotMask when @p classPartition is off.
 */
std::uint64_t genericSvcSlotMask(RoutingKind kind, int port, int vcsPerPort,
                                 bool yxOrder, bool classPartition);

/** All slots of one Path-Sensitive quadrant pool. */
std::uint64_t psPoolMask(Quadrant q, int vcsPerPort);

/**
 * RoCo slots retired by buffer faults at a node (Table 3 hardware
 * recycling), as a mask to subtract from any eligibility mask.  Slots
 * of a dead module are included: nothing may be buffered there.
 */
std::uint64_t rocoDeadSlotMask(const NodeFaultState &s);

} // namespace noc::check

#endif // ROCOSIM_CHECK_SLOT_RULES_H_
