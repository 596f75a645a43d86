/**
 * @file
 * Property tests for the pentachromatic step schedule and ShardPlan:
 * randomised mesh geometries (up to 32x32) and shard counts, asserting
 * the distance-2 property the whole sharded engine rests on — no two
 * same-phase routers within Manhattan distance 2, equivalently all
 * same-phase step footprints (self + cardinal neighbours) disjoint —
 * that the plan's phase buckets tile the mesh exactly, and that each
 * bucket's boundary / interior split and each shard's border set
 * follow the distance-2 rule the split-phase engine relies on.
 *
 * The file-header proof in topology/partition.h covers the infinite
 * lattice; these tests pin the *implementation* (stepPhase, ShardPlan
 * bucketing, shard-boundary behaviour) against it for arbitrary
 * finite meshes, which is what the race checker assumes at runtime.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "topology/mesh.h"
#include "topology/partition.h"

namespace noc {
namespace {

/** All (dx, dy) offsets with 1 <= |dx| + |dy| <= 2: a step footprint
 *  can only collide with another inside this neighbourhood. */
std::vector<std::pair<int, int>>
distanceTwoOffsets()
{
    std::vector<std::pair<int, int>> offs;
    for (int dy = -2; dy <= 2; ++dy)
        for (int dx = -2; dx <= 2; ++dx) {
            int d = std::abs(dx) + std::abs(dy);
            if (d >= 1 && d <= 2)
                offs.emplace_back(dx, dy);
        }
    return offs;
}

TEST(PartitionPropertyTest, NoSamePhasePairWithinDistanceTwo)
{
    const auto offs = distanceTwoOffsets();
    Rng rng(0xC0FFEE, 1);
    for (int iter = 0; iter < 40; ++iter) {
        int w = 1 + static_cast<int>(rng.nextRange(32));
        int h = 1 + static_cast<int>(rng.nextRange(32));
        SCOPED_TRACE(testing::Message() << w << "x" << h);
        for (int y = 0; y < h; ++y)
            for (int x = 0; x < w; ++x)
                for (auto [dx, dy] : offs) {
                    int nx = x + dx, ny = y + dy;
                    if (nx < 0 || nx >= w || ny < 0 || ny >= h)
                        continue;
                    ASSERT_NE(stepPhase(x, y), stepPhase(nx, ny))
                        << "(" << x << "," << y << ") and (" << nx << ","
                        << ny << ") share a phase at distance "
                        << std::abs(dx) + std::abs(dy);
                }
    }
}

TEST(PartitionPropertyTest, SamePhaseFootprintsAreDisjoint)
{
    // The operational statement of the property: stamp every footprint
    // cell (self + existing cardinal neighbours) of every router in a
    // phase; no cell may be stamped twice within one phase. This is
    // exactly the invariant the NOC_RACE_CHECK validator re-derives
    // from access records at runtime.
    Rng rng(0xC0FFEE, 2);
    for (int iter = 0; iter < 40; ++iter) {
        int w = 1 + static_cast<int>(rng.nextRange(32));
        int h = 1 + static_cast<int>(rng.nextRange(32));
        SCOPED_TRACE(testing::Message() << w << "x" << h);
        std::vector<int> stamp(static_cast<std::size_t>(w) * h, -1);
        for (int p = 0; p < kNumStepPhases; ++p) {
            for (int y = 0; y < h; ++y)
                for (int x = 0; x < w; ++x) {
                    if (stepPhase(x, y) != p)
                        continue;
                    const int foot[5][2] = {{x, y},
                                            {x + 1, y},
                                            {x - 1, y},
                                            {x, y + 1},
                                            {x, y - 1}};
                    for (const auto &c : foot) {
                        if (c[0] < 0 || c[0] >= w || c[1] < 0 ||
                            c[1] >= h)
                            continue;
                        std::size_t i =
                            static_cast<std::size_t>(c[1]) * w + c[0];
                        // Encode (phase, owner) in one stamp: a repeat
                        // of the same phase means two same-phase steps
                        // share this cell.
                        ASSERT_NE(stamp[i], p)
                            << "cell (" << c[0] << "," << c[1]
                            << ") touched twice in phase " << p;
                        stamp[i] = p;
                    }
                }
        }
    }
}

TEST(PartitionPropertyTest, RandomShardPlansTileTheMeshByPhase)
{
    Rng rng(0xC0FFEE, 3);
    for (int iter = 0; iter < 40; ++iter) {
        int w = 1 + static_cast<int>(rng.nextRange(32));
        int h = 1 + static_cast<int>(rng.nextRange(32));
        int shards = 1 + static_cast<int>(rng.nextRange(12));
        SCOPED_TRACE(testing::Message()
                     << w << "x" << h << " @ " << shards << " shards");
        ShardPlan plan(w, h, shards);
        MeshTopology topo(w, h);

        // Every node appears in exactly one (shard, phase) bucket, in
        // its own shard, with the phase stepPhase assigns.
        std::vector<int> seen(static_cast<std::size_t>(w) * h, 0);
        for (int s = 0; s < plan.shards(); ++s) {
            for (int p = 0; p < kNumStepPhases; ++p) {
                for (NodeId n : plan.phaseNodes(s, p)) {
                    Coord c = topo.coord(n);
                    EXPECT_EQ(plan.shardOf(n), s);
                    EXPECT_EQ(stepPhase(c.x, c.y), p);
                    ++seen[n];
                }
            }
        }
        for (std::size_t n = 0; n < seen.size(); ++n)
            ASSERT_EQ(seen[n], 1) << "node " << n;
    }
}

TEST(PartitionPropertyTest, ShardBoundariesAddNoSamePhaseConflicts)
{
    // The schedule, not the shard geometry, carries correctness: even
    // across shard boundaries, two same-phase nodes from *different*
    // shards must still be at Manhattan distance >= 3. (Equivalent to
    // the global property, but exercised through the ShardPlan API the
    // engine actually iterates.)
    Rng rng(0xC0FFEE, 4);
    for (int iter = 0; iter < 20; ++iter) {
        int w = 2 + static_cast<int>(rng.nextRange(31));
        int h = 2 + static_cast<int>(rng.nextRange(31));
        int shards = 2 + static_cast<int>(rng.nextRange(7));
        SCOPED_TRACE(testing::Message()
                     << w << "x" << h << " @ " << shards << " shards");
        ShardPlan plan(w, h, shards);
        MeshTopology topo(w, h);
        for (int p = 0; p < kNumStepPhases; ++p) {
            std::vector<NodeId> all;
            for (int s = 0; s < plan.shards(); ++s) {
                const auto &ns = plan.phaseNodes(s, p);
                all.insert(all.end(), ns.begin(), ns.end());
            }
            for (std::size_t a = 0; a < all.size(); ++a)
                for (std::size_t b = a + 1; b < all.size(); ++b) {
                    if (plan.shardOf(all[a]) == plan.shardOf(all[b]))
                        continue;
                    Coord ca = topo.coord(all[a]);
                    Coord cb = topo.coord(all[b]);
                    int dist = std::abs(ca.x - cb.x) +
                               std::abs(ca.y - cb.y);
                    ASSERT_GE(dist, 3)
                        << "nodes " << all[a] << " and " << all[b]
                        << " in phase " << p;
                }
        }
    }
}

/** Manhattan distance from @p n to the nearest node of another shard
 *  (INT_MAX when there is none). */
int
distanceToOtherShard(const ShardPlan &plan, const MeshTopology &topo,
                     NodeId n)
{
    int best = std::numeric_limits<int>::max();
    const Coord a = topo.coord(n);
    for (NodeId m = 0; m < static_cast<NodeId>(topo.numNodes()); ++m) {
        if (plan.shardOf(m) == plan.shardOf(n))
            continue;
        const Coord b = topo.coord(m);
        best = std::min(best, std::abs(a.x - b.x) + std::abs(a.y - b.y));
    }
    return best;
}

TEST(PartitionPropertyTest, InteriorAndBoundaryFollowDistanceToOtherShards)
{
    // Interior nodes sit at distance >= 3 from every other shard's node
    // (their step footprints can never meet another shard's); every
    // boundary node has another shard's node within distance 2.
    Rng rng(0xC0FFEE, 5);
    for (int iter = 0; iter < 40; ++iter) {
        int w = 1 + static_cast<int>(rng.nextRange(24));
        int h = 1 + static_cast<int>(rng.nextRange(24));
        int shards = 1 + static_cast<int>(rng.nextRange(10));
        SCOPED_TRACE(testing::Message()
                     << w << "x" << h << " @ " << shards << " shards");
        ShardPlan plan(w, h, shards);
        MeshTopology topo(w, h);
        for (int s = 0; s < plan.shards(); ++s)
            for (int p = 0; p < kNumStepPhases; ++p) {
                for (NodeId n : plan.interiorNodes(s, p))
                    ASSERT_GE(distanceToOtherShard(plan, topo, n), 3)
                        << "interior node " << n;
                for (NodeId n : plan.boundaryNodes(s, p))
                    ASSERT_LE(distanceToOtherShard(plan, topo, n), 2)
                        << "boundary node " << n;
            }
    }
}

TEST(PartitionPropertyTest, BoundaryAndInteriorSplitPhaseNodes)
{
    // boundary and interior are disjoint, and their union (both kept in
    // ascending id order) is exactly phaseNodes.
    Rng rng(0xC0FFEE, 6);
    for (int iter = 0; iter < 40; ++iter) {
        int w = 1 + static_cast<int>(rng.nextRange(32));
        int h = 1 + static_cast<int>(rng.nextRange(32));
        int shards = 1 + static_cast<int>(rng.nextRange(12));
        SCOPED_TRACE(testing::Message()
                     << w << "x" << h << " @ " << shards << " shards");
        ShardPlan plan(w, h, shards);
        for (int s = 0; s < plan.shards(); ++s)
            for (int p = 0; p < kNumStepPhases; ++p) {
                const auto &b = plan.boundaryNodes(s, p);
                const auto &i = plan.interiorNodes(s, p);
                ASSERT_TRUE(std::is_sorted(b.begin(), b.end()));
                ASSERT_TRUE(std::is_sorted(i.begin(), i.end()));
                std::vector<NodeId> both;
                std::set_union(b.begin(), b.end(), i.begin(), i.end(),
                               std::back_inserter(both));
                ASSERT_EQ(both.size(), b.size() + i.size())
                    << "boundary and interior overlap";
                ASSERT_EQ(both, plan.phaseNodes(s, p));
            }
    }
}

TEST(PartitionPropertyTest, BorderShardsAreExactlyTheShardsWithinDistanceTwo)
{
    Rng rng(0xC0FFEE, 7);
    for (int iter = 0; iter < 30; ++iter) {
        int w = 1 + static_cast<int>(rng.nextRange(20));
        int h = 1 + static_cast<int>(rng.nextRange(20));
        int shards = 1 + static_cast<int>(rng.nextRange(10));
        SCOPED_TRACE(testing::Message()
                     << w << "x" << h << " @ " << shards << " shards");
        ShardPlan plan(w, h, shards);
        MeshTopology topo(w, h);
        for (int s = 0; s < plan.shards(); ++s) {
            std::vector<int> want;
            for (int t = 0; t < plan.shards(); ++t) {
                if (t == s)
                    continue;
                bool near = false;
                for (NodeId a : plan.nodes(s))
                    for (NodeId b : plan.nodes(t)) {
                        Coord ca = topo.coord(a), cb = topo.coord(b);
                        near = near || std::abs(ca.x - cb.x) +
                                               std::abs(ca.y - cb.y) <=
                                           2;
                    }
                if (near)
                    want.push_back(t);
            }
            ASSERT_EQ(plan.borderShards(s), want) << "shard " << s;
        }
    }
}

TEST(PartitionPropertyTest, SixteenBySixteenTwoShardsInteriorRows)
{
    // Bands rows 0-7 and 8-15; rows 6-9 lie within distance 2 of the
    // cut, rows 0-5 and 10-15 are interior.
    ShardPlan plan(16, 16, 2);
    MeshTopology topo(16, 16);
    std::vector<int> interiorPerRow(16, 0), boundaryPerRow(16, 0);
    for (int s = 0; s < 2; ++s)
        for (int p = 0; p < kNumStepPhases; ++p) {
            for (NodeId n : plan.interiorNodes(s, p))
                ++interiorPerRow[static_cast<std::size_t>(topo.coord(n).y)];
            for (NodeId n : plan.boundaryNodes(s, p))
                ++boundaryPerRow[static_cast<std::size_t>(topo.coord(n).y)];
        }
    for (int y = 0; y < 16; ++y) {
        const bool interior = y <= 5 || y >= 10;
        EXPECT_EQ(interiorPerRow[static_cast<std::size_t>(y)],
                  interior ? 16 : 0)
            << "row " << y;
        EXPECT_EQ(boundaryPerRow[static_cast<std::size_t>(y)],
                  interior ? 0 : 16)
            << "row " << y;
    }
}

} // namespace
} // namespace noc
