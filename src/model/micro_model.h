/**
 * @file
 * Reduced-but-faithful micro-model of the router pipeline, explored
 * exhaustively by the liveness model checker (model/explorer.h).
 *
 * The model tracks whole packets (not individual flits) moving through
 * the real slot-eligibility rules (check/slot_rules.h), the real
 * routing functions (makeRouting) and the real fault reaction table
 * (FaultMap), on a small mesh.  One packet performs one action per
 * transition — inject, hop, eject or fault-drop — under a free
 * (adversarial) scheduler, so the interleaving semantics
 * over-approximates every schedule the synchronous simulator can
 * produce.  See DESIGN.md §9 for the state encoding and the reduction
 * argument that transfers the proofs to the real pipeline.
 *
 * Reductions (each is an over-approximation or property-preserving):
 *  - packet granularity: a wormhole packet's flits occupy a contiguous
 *    slot chain behind the head; collapsing them to "the packet holds
 *    its current slot" preserves reachability of delivery/drop and can
 *    only add behaviours (the runtime WormholeOrder invariant guards
 *    the flit-level discipline).
 *  - free scheduling: the checker picks any enabled packet each step,
 *    a superset of the synchronous router's arbitration outcomes; the
 *    arbiters themselves are checked exhaustively at component level
 *    (model/arbiter_check.h).
 *  - timing abstraction: hop/credit latencies and the RC-fault +1
 *    cycle penalty affect when, not whether, a move happens; liveness
 *    properties quantify over "eventually" and are latency-blind.
 */
#ifndef ROCOSIM_MODEL_MICRO_MODEL_H_
#define ROCOSIM_MODEL_MICRO_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/slot_rules.h"
#include "common/config.h"
#include "common/types.h"
#include "fault/fault.h"
#include "routing/routing.h"
#include "topology/mesh.h"

namespace noc::model {

/** Most packets a scenario may carry (the state packs 16 bits each). */
constexpr int kMaxPackets = 4;

/** Largest mesh the packed node field supports (4 bits). */
constexpr int kMaxNodes = 16;

/**
 * Deliberate model mutations, used to demonstrate that the checker
 * actually detects the failure classes it guards against.
 */
enum class Mutation : std::uint8_t {
    None = 0,
    /** Allow unproductive hops: breaks the progress measure (livelock). */
    NonMinimalRouting = 1,
    /** Remove the fault-drop transition: strands blocked packets. */
    NoFaultDrop = 2,
};

const char *toString(Mutation m);

/** One packet of a scenario. */
struct PacketSpec {
    NodeId src = 0;
    NodeId dst = 0;
    bool yxOrder = false; ///< dimension order under XY-YX routing
    /**
     * Proof obligation: every terminal state must deliver this packet
     * (never drop it).  Packets in fault-free scenarios are implicitly
     * must-deliver; this flag adds the obligation in faulty scenarios,
     * e.g. column traffic crossing a dead row module (Table 3
     * row/column independence).
     */
    bool mustDeliver = false;
};

/** A closed system to explore: mesh + packets + faults (+ mutation). */
struct Scenario {
    std::string name;
    RouterArch arch = RouterArch::Roco;
    RoutingKind routing = RoutingKind::XY;
    int width = 3;
    int height = 3;
    /** VCs per port (generic) / per path set (PS). RoCo uses Table 1. */
    int vcsPerPort = 3;
    std::vector<PacketSpec> packets;
    std::vector<FaultSpec> faults;
    Mutation mutation = Mutation::None;
};

/** Per-packet terminal outcome bits. */
enum : std::uint8_t {
    kOutcomeDelivered = 1,
    kOutcomeDropped = 2,
};

/**
 * The micro-model itself: packs a scenario's dynamic state into one
 * 64-bit word (16 bits per packet: stage, node, arrival port, slot)
 * and enumerates the enabled transitions of any state.
 */
class MicroModel
{
  public:
    /** Packet lifecycle stage (2-bit field). */
    enum class Stage : std::uint8_t {
        Queued = 0,    ///< in the source queue, not yet buffered
        InFlight = 1,  ///< occupying an input-VC slot at `node`
        Delivered = 2, ///< ejected at the destination
        Dropped = 3,   ///< deterministically discarded at a fault
    };

    /** One scheduler step: packet + what it did. */
    struct Action {
        enum class Kind : std::uint8_t { Inject, Move, Deliver, Drop };
        int packet = 0;
        Kind kind = Kind::Inject;
        Direction dir = Direction::Invalid; ///< hop direction (Move/Deliver)
        int slot = -1;                      ///< claimed slot (Inject/Move)
    };

    struct Transition {
        Action act;
        std::uint64_t next = 0;
    };

    explicit MicroModel(const Scenario &sc);

    const Scenario &scenario() const { return sc_; }
    const MeshTopology &topology() const { return topo_; }
    int numPackets() const { return static_cast<int>(sc_.packets.size()); }

    std::uint64_t initialState() const;

    /** True when every packet is Delivered or Dropped. */
    bool isTerminal(std::uint64_t s) const;

    /** All transitions enabled in @p s (empty + non-terminal = stuck). */
    void enumerate(std::uint64_t s, std::vector<Transition> &out) const;

    /**
     * Well-founded progress measure of packet @p pkt in state @p s:
     * 4 * distance-to-destination + stage bonus.  Every transition
     * must strictly decrease the moved packet's measure; the explorer
     * reports any transition that does not as a livelock witness.
     */
    int measure(std::uint64_t s, int pkt) const;

    /** Outcome bit of @p pkt in @p s (0 while queued or in flight). */
    std::uint8_t outcome(std::uint64_t s, int pkt) const;

    // Packed-state field accessors (public for the explorer/renderer).
    Stage stage(std::uint64_t s, int pkt) const;
    NodeId node(std::uint64_t s, int pkt) const;
    Direction arrival(std::uint64_t s, int pkt) const;
    int slot(std::uint64_t s, int pkt) const;

    /** "pkt1 move East (1,0)->(2,0) slot Col p0 v2 [dy]" */
    std::string renderAction(const Action &a, std::uint64_t before) const;
    /** Multi-line per-packet status dump of @p s. */
    std::string renderState(std::uint64_t s) const;

  private:
    struct Entry {
        int slot;
        Direction outAtNext; ///< planned output at the entered node
    };

    std::uint64_t setPacket(std::uint64_t s, int pkt, Stage st, NodeId n,
                            Direction arr, int sl) const;

    /** Routing candidates at @p n for @p pkt (+ mutation extras). */
    void candidates(int pkt, NodeId n, std::vector<Direction> &out) const;

    /** May packet @p pkt in @p slot (arrived via @p arr) leave via @p d? */
    bool slotAllowsOut(int pkt, int slot, Direction arr, Direction d) const;

    /**
     * Slots packet @p pkt may claim at @p n arriving via @p arr, given
     * the occupancy of @p s (ignored when @p ignoreOccupancy).  Entries
     * carry the planned output so RoCo/PS class choices stay coherent.
     */
    void entryOptions(std::uint64_t s, int pkt, NodeId n, Direction arr,
                      bool ignoreOccupancy, std::vector<Entry> &out) const;

    /**
     * Mirror of Router::lookaheadCandidates' permanent-fault filter:
     * false when taking @p d from @p n is forever impossible (dead
     * output module / dead next node / no live slot one hop ahead).
     * Occupancy is deliberately ignored — congestion is not a drop.
     */
    bool dirUsable(std::uint64_t s, int pkt, NodeId n, Direction d) const;

    std::string slotName(int slot) const;

    Scenario sc_;
    MeshTopology topo_;
    std::unique_ptr<RoutingAlgorithm> routing_;
    FaultMap faults_;
    check::RocoCheckOptions rocoOpts_;
    check::RocoSlotTable rocoSlots_; ///< rocoOpts_' slot rule, tabulated
    int slotsPerNode_;
};

} // namespace noc::model

#endif // ROCOSIM_MODEL_MICRO_MODEL_H_
