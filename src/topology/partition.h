/**
 * @file
 * Mesh partitioning for the sharded execution engine (src/par).
 *
 * Two pieces live here because they are both pure topology:
 *
 *  1. The *step schedule*: a pentachromatic (distance-2) colouring of
 *     the mesh. A router's step reads and writes state on itself and
 *     its four neighbours (the RoCo / path-sensitive designs run the
 *     receiver-side reserveInputVc handshake against the downstream
 *     router inside the same cycle), so two routers' steps can touch a
 *     common node whenever they are within Manhattan distance 2 of
 *     each other. phase(x, y) = (x + 2y) mod 5 puts any two nodes at
 *     distance <= 2 in different phases — the smallest nonzero (dx,
 *     dy) with dx + 2dy = 0 (mod 5) has |dx| + |dy| = 3 — so all steps
 *     inside one phase have disjoint footprints and commute exactly.
 *     Stepping phase 0..4 in order therefore yields the same network
 *     state no matter how the nodes of a phase are distributed over
 *     threads. Network::step, the run loop's 1-shard body, uses the
 *     identical schedule, which is what makes sharded runs
 *     bit-identical to 1-shard ones.
 *
 *  2. ShardPlan: the node set cut into row bands, one per worker
 *     thread: contiguous node-id ranges (shardOf(id) = id * shards /
 *     n), so each shard's routers, NICs, injection lanes and idle-skip
 *     flags are contiguous and two shards share cache lines only at a
 *     band edge. Each (shard, phase) node list is further split into
 *     *boundary* nodes, which have another shard's node within
 *     Manhattan distance 2, and *interior* nodes, which do not. An
 *     interior step's footprint (itself plus its neighbours) can never
 *     meet another shard's, so the engine only has to order boundary
 *     steps across shards (par/shard_engine.h).
 */
#ifndef ROCOSIM_TOPOLOGY_PARTITION_H_
#define ROCOSIM_TOPOLOGY_PARTITION_H_

#include <vector>

#include "common/annotations.h"
#include "common/types.h"

namespace noc {

/** Phases in the conflict-free step schedule. */
inline constexpr int kNumStepPhases = 5;

/** Schedule phase of mesh coordinate (x, y); see the file header. */
inline constexpr int
stepPhase(int x, int y)
{
    return (x + 2 * y) % kNumStepPhases;
}

/**
 * Compile-time spot checks of the distance-2 property the whole
 * sharded engine rests on: no node shares a phase with any node at
 * Manhattan distance 1 or 2 (the footprint of one router step). The
 * file header proves it for the general case; these pin the formula
 * against an accidental edit of stepPhase.
 */
static_assert(stepPhase(2, 3) != stepPhase(3, 3) &&     // distance 1
                  stepPhase(2, 3) != stepPhase(2, 4) &&
                  stepPhase(2, 3) != stepPhase(4, 3) && // distance 2
                  stepPhase(2, 3) != stepPhase(2, 5) &&
                  stepPhase(2, 3) != stepPhase(3, 4) &&
                  stepPhase(2, 3) != stepPhase(1, 2),
              "stepPhase no longer separates the distance-2 "
              "neighbourhood; the pentachromatic schedule is broken");
static_assert(stepPhase(0, 0) == stepPhase(5, 0) &&
                  stepPhase(0, 0) == stepPhase(1, 2),
              "stepPhase must tile with period (5,0)/(1,2): same-phase "
              "nodes sit at Manhattan distance >= 3");

class ShardPlan
{
  public:
    /**
     * Cuts a @p width x @p height mesh into @p shards (clamped to
     * [1, nodes]) contiguous node-id ranges whose sizes differ by at
     * most one: whole row bands when @p shards divides the height.
     */
    NOC_PHASE_FN(setup)
    ShardPlan(int width, int height, int shards);

    int shards() const { return shards_; }
    int numNodes() const { return width_ * height_; }

    /** Shard owning node @p n. */
    int shardOf(NodeId n) const { return shardOf_[n]; }

    /** All nodes of @p shard, ascending id (the NIC generation order). */
    const std::vector<NodeId> &nodes(int shard) const
    {
        return nodes_[static_cast<std::size_t>(shard)];
    }

    /**
     * Nodes of @p shard in schedule phase @p phase, ascending id: the
     * union of boundaryNodes and interiorNodes.
     */
    const std::vector<NodeId> &phaseNodes(int shard, int phase) const
    {
        return phaseNodes_[slot(shard, phase)];
    }

    /**
     * Phase-@p phase nodes of @p shard with another shard's node within
     * Manhattan distance 2, ascending id. Only these steps can conflict
     * with another shard's steps.
     */
    const std::vector<NodeId> &boundaryNodes(int shard, int phase) const
    {
        return boundary_[slot(shard, phase)];
    }

    /**
     * Phase-@p phase nodes of @p shard at distance >= 3 from every
     * other shard's node, ascending id: their step footprints never
     * meet another shard's.
     */
    const std::vector<NodeId> &interiorNodes(int shard, int phase) const
    {
        return interior_[slot(shard, phase)];
    }

    /**
     * Shards owning a node within Manhattan distance 2 of one of
     * @p shard's nodes, ascending: the only shards whose boundary steps
     * @p shard's boundary steps must be ordered against. Symmetric, and
     * not necessarily the adjacent bands (a band thinner than two rows
     * borders the bands beyond its neighbours too).
     */
    const std::vector<int> &borderShards(int shard) const
    {
        return border_[static_cast<std::size_t>(shard)];
    }

  private:
    std::size_t
    slot(int shard, int phase) const
    {
        return static_cast<std::size_t>(shard) * kNumStepPhases +
               static_cast<std::size_t>(phase);
    }

    // The plan is immutable after construction: every shard thread
    // reads it concurrently, so ownership is pinned to setup.
    NOC_OWNED_STATE(setup)
    int width_;
    NOC_OWNED_STATE(setup)
    int height_;
    NOC_OWNED_STATE(setup)
    int shards_;
    NOC_OWNED_STATE(setup)
    std::vector<int> shardOf_;
    NOC_OWNED_STATE(setup)
    std::vector<std::vector<NodeId>> nodes_;
    NOC_OWNED_STATE(setup)
    std::vector<std::vector<NodeId>> phaseNodes_;
    NOC_OWNED_STATE(setup)
    std::vector<std::vector<NodeId>> boundary_;
    NOC_OWNED_STATE(setup)
    std::vector<std::vector<NodeId>> interior_;
    NOC_OWNED_STATE(setup)
    std::vector<std::vector<int>> border_;
};

} // namespace noc

#endif // ROCOSIM_TOPOLOGY_PARTITION_H_
