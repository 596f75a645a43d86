/**
 * @file
 * RoCo virtual-channel organisation (paper Table 1) and the guided
 * flit queuing classification.
 *
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
#ifndef ROCOSIM_ROUTER_ROCO_VC_CONFIG_H_
#define ROCOSIM_ROUTER_ROCO_VC_CONFIG_H_

#include <cstdint>

#include "common/log.h"
#include "common/types.h"

namespace noc {

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

} // namespace noc

#endif // ROCOSIM_ROUTER_ROCO_VC_CONFIG_H_
