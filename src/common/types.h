/**
 * @file
 * Fundamental scalar types and enumerations shared across the simulator.
 *
 * Everything here is deliberately tiny and trivially copyable; these types
 * appear inside Flit and are moved millions of times per simulation.
 */
#ifndef ROCOSIM_COMMON_TYPES_H_
#define ROCOSIM_COMMON_TYPES_H_

#include <cstdint>
#include <string>

#include "common/log.h"

namespace noc {

/** Simulation time, measured in router clock cycles. */
using Cycle = std::uint64_t;

/** A cycle no run reaches: the deadline of nothing scheduled. */
constexpr Cycle kNever = ~Cycle{0};

/** Flat node identifier within a topology (row-major for 2D mesh). */
using NodeId = std::uint32_t;

/** Sentinel for "no node". */
constexpr NodeId kInvalidNode = 0xFFFFFFFFu;

/**
 * Physical router port direction.
 *
 * The four cardinal directions index network ports; Local is the
 * processing-element (PE) port of the generic router. Invalid is the
 * "not yet routed" sentinel.
 */
enum class Direction : std::uint8_t {
    North = 0,
    East = 1,
    South = 2,
    West = 3,
    Local = 4,
    Invalid = 5,
};

/** Number of cardinal (network) directions. */
constexpr int kNumCardinal = 4;

/** Number of physical ports on a generic 5-port router. */
constexpr int kNumPorts = 5;

/** True for the four cardinal directions. */
constexpr bool
isCardinal(Direction d)
{
    return static_cast<int>(d) < kNumCardinal;
}

/** Returns the opposite cardinal direction (North<->South, East<->West).
 *  The encoding pairs opposites two apart, so this is a single XOR. */
inline Direction
opposite(Direction d)
{
    static_assert(static_cast<int>(Direction::North) == 0 &&
                      static_cast<int>(Direction::South) == 2 &&
                      static_cast<int>(Direction::East) == 1 &&
                      static_cast<int>(Direction::West) == 3,
                  "opposite() relies on the cardinal encoding");
    NOC_ASSERT(isCardinal(d), "opposite() of non-cardinal direction");
    return static_cast<Direction>(static_cast<int>(d) ^ 2);
}

/** True when the direction belongs to the X dimension (East/West). */
constexpr bool
isRow(Direction d)
{
    return d == Direction::East || d == Direction::West;
}

/** True when the direction belongs to the Y dimension (North/South). */
constexpr bool
isColumn(Direction d)
{
    return d == Direction::North || d == Direction::South;
}

/** Human-readable direction name. */
const char *toString(Direction d);

/** Routing algorithms evaluated in the paper (Section 5). */
enum class RoutingKind : std::uint8_t {
    XY = 0,       ///< deterministic dimension-order routing
    XYYX = 1,     ///< oblivious: XY or YX chosen per packet at the source
    Adaptive = 2, ///< minimal adaptive with escape VCs
};

/** Human-readable routing-algorithm name. */
const char *toString(RoutingKind k);

/** The three router microarchitectures compared in the paper. */
enum class RouterArch : std::uint8_t {
    Generic = 0,       ///< 2-stage speculative VC router, 5x5 crossbar
    PathSensitive = 1, ///< DAC'05 quadrant path-set router, 4x4 decomposed
    Roco = 2,          ///< the paper's Row-Column decoupled router
};

/** Human-readable architecture name (matches the paper's figure legends). */
const char *toString(RouterArch a);

/**
 * Row/Column module selector for the RoCo router and for fault scoping.
 * Row handles East-West traffic, Column handles North-South traffic.
 */
enum class Module : std::uint8_t {
    Row = 0,
    Column = 1,
};

/** Human-readable module name. */
const char *toString(Module m);

/** Module that owns a cardinal direction (East/West -> Row, else Column). */
constexpr Module
moduleOf(Direction d)
{
    return isRow(d) ? Module::Row : Module::Column;
}

/** 2D mesh coordinate. */
struct Coord {
    int x = 0; ///< column index, grows eastward
    int y = 0; ///< row index, grows northward

    bool operator==(const Coord &) const = default;
};

/** Manhattan distance between two coordinates. */
inline int
manhattan(Coord a, Coord b)
{
    int dx = a.x - b.x;
    int dy = a.y - b.y;
    return (dx < 0 ? -dx : dx) + (dy < 0 ? -dy : dy);
}

} // namespace noc

#endif // ROCOSIM_COMMON_TYPES_H_
