/**
 * @file
 * Deadlock-freedom prover tests: CDG cycle detection on hand-built
 * graphs, the shipped (arch x routing) matrix proved free, and the
 * intentionally mis-balanced RoCo VC tables rejected with a concrete
 * counterexample cycle.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "check/cdg.h"
#include "check/deadlock.h"

namespace noc::check {
namespace {

constexpr RoutingKind kAllRoutings[] = {RoutingKind::XY,
                                        RoutingKind::XYYX,
                                        RoutingKind::Adaptive};

TEST(Cdg, TriangleCycleIsFound)
{
    Cdg g(3);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 0);
    auto cycle = g.findCycle();
    ASSERT_EQ(cycle.size(), 3u);
    // The closing edge back() -> front() is implicit; every
    // consecutive pair must be a real edge.
    for (std::size_t i = 0; i < cycle.size(); ++i) {
        EXPECT_TRUE(
            g.hasEdge(cycle[i], cycle[(i + 1) % cycle.size()]));
    }
    EXPECT_EQ(std::set<int>(cycle.begin(), cycle.end()).size(), 3u);
}

TEST(Cdg, DagIsAcyclic)
{
    Cdg g(4);
    g.addEdge(0, 1);
    g.addEdge(0, 2);
    g.addEdge(1, 3);
    g.addEdge(2, 3);
    EXPECT_TRUE(g.findCycle().empty());
}

TEST(Cdg, SelfLoopIsFound)
{
    Cdg g(2);
    g.addEdge(0, 1);
    g.addEdge(1, 1);
    auto cycle = g.findCycle();
    ASSERT_EQ(cycle.size(), 1u);
    EXPECT_EQ(cycle[0], 1);
}

TEST(Cdg, EdgeInsertionIsIdempotent)
{
    Cdg g(100);
    for (int i = 0; i < 10; ++i)
        g.addEdge(3, 77);
    EXPECT_EQ(g.numEdges(), 1u);
    EXPECT_TRUE(g.hasEdge(3, 77));
    EXPECT_FALSE(g.hasEdge(77, 3));
}

TEST(Prover, ShippedRocoTablesAreStrictlyAcyclic)
{
    MeshTopology topo(5, 5);
    for (RoutingKind kind : kAllRoutings) {
        ProofResult r =
            proveRoco(topo, kind, RocoCheckOptions::shipped(kind));
        EXPECT_TRUE(r.deadlockFree) << r.summary() << r.renderCycle();
        EXPECT_FALSE(r.viaEscape) << r.summary();
        EXPECT_TRUE(r.cycle.empty());
        EXPECT_GT(r.edges, 0u);
    }
}

TEST(Prover, GenericVcPartitionsAreStrictlyAcyclic)
{
    MeshTopology topo(5, 5);
    for (RoutingKind kind : kAllRoutings) {
        ProofResult r = proveGeneric(topo, kind, 3);
        EXPECT_TRUE(r.deadlockFree) << r.summary() << r.renderCycle();
        EXPECT_FALSE(r.viaEscape) << r.summary();
    }
}

TEST(Prover, PathSensitivePoolsNeedTheEscapeTier)
{
    // The quadrant pools produce a strict-CDG cycle of four on-axis
    // straight-line packets under every routing algorithm; the
    // canonical pool assignment proves freedom as an escape
    // subfunction, and the strict cycle is retained for reference.
    MeshTopology topo(5, 5);
    for (RoutingKind kind : kAllRoutings) {
        ProofResult r = provePathSensitive(topo, kind, 3);
        EXPECT_TRUE(r.deadlockFree) << r.summary() << r.renderCycle();
        EXPECT_TRUE(r.viaEscape) << r.summary();
        EXPECT_FALSE(r.cycle.empty());
    }
}

TEST(Prover, UnpartitionedXyYxTableIsRejectedWithACycle)
{
    MeshTopology topo(5, 5);
    RocoCheckOptions opts = RocoCheckOptions::shipped(RoutingKind::XYYX);
    opts.orderPartition = false; // both dimension orders share dx/dy
    ProofResult r = proveRoco(topo, RoutingKind::XYYX, opts);
    EXPECT_FALSE(r.deadlockFree);
    ASSERT_FALSE(r.cycle.empty());
    // The counterexample must name concrete routers and VC classes.
    for (const CycleNode &cn : r.cycle) {
        EXPECT_LT(cn.node, static_cast<NodeId>(topo.numNodes()));
        EXPECT_FALSE(cn.slot.empty());
    }
    EXPECT_NE(r.renderCycle().find("->"), std::string::npos);
    EXPECT_NE(r.summary().find("cycle"), std::string::npos);
}

TEST(Prover, MergedTurnClassesAreRejectedWithACycle)
{
    MeshTopology topo(5, 5);
    RocoCheckOptions opts = RocoCheckOptions::shipped(RoutingKind::XYYX);
    opts.orderPartition = false;
    opts.mergeTurnClasses = true; // one unrestricted shared class
    ProofResult r = proveRoco(topo, RoutingKind::XYYX, opts);
    EXPECT_FALSE(r.deadlockFree);
    EXPECT_FALSE(r.cycle.empty());
}

TEST(Prover, LargeMeshesAreProvedOnTheSurrogate)
{
    SimConfig cfg;
    cfg.meshWidth = 16;
    cfg.meshHeight = 16;
    cfg.arch = RouterArch::Roco;
    cfg.routing = RoutingKind::Adaptive;
    ProofResult r = prove(cfg);
    EXPECT_TRUE(r.deadlockFree) << r.summary();
}

/** One proof of the oracle matrix, with the name it is reported by. */
struct NamedProof {
    std::string name;
    ProofResult result;
};

/**
 * Every proof of one (mesh, routing) cell: generic and Path-Sensitive
 * at 2, 3 and 4 VCs, three RoCo option sets (shipped, no order
 * partition, merged turn classes) and the three protocol-deadlock
 * schemes for each architecture — 18 proofs.
 */
std::vector<NamedProof>
proveCell(const MeshTopology &topo, RoutingKind kind)
{
    std::vector<NamedProof> out;
    for (int vcs = 2; vcs <= 4; ++vcs) {
        out.push_back({"generic v" + std::to_string(vcs),
                       proveGeneric(topo, kind, vcs)});
        out.push_back({"ps v" + std::to_string(vcs),
                       provePathSensitive(topo, kind, vcs)});
    }
    RocoCheckOptions shipped = RocoCheckOptions::shipped(kind);
    RocoCheckOptions noPartition = shipped;
    noPartition.orderPartition = false;
    RocoCheckOptions merged = noPartition;
    merged.mergeTurnClasses = true;
    out.push_back({"roco shipped", proveRoco(topo, kind, shipped)});
    out.push_back(
        {"roco no-partition", proveRoco(topo, kind, noPartition)});
    out.push_back({"roco merged-turns", proveRoco(topo, kind, merged)});
    for (svc::AvoidanceScheme scheme :
         {svc::AvoidanceScheme::SharedPool,
          svc::AvoidanceScheme::ClassPartition,
          svc::AvoidanceScheme::EndpointReserve}) {
        std::string tag = std::string(" svc ") + svc::toString(scheme);
        out.push_back({"generic" + tag,
                       proveServiceGeneric(topo, kind, 3, scheme)});
        out.push_back({"roco" + tag,
                       proveServiceRoco(topo, kind, shipped, scheme)});
        out.push_back({"ps" + tag,
                       proveServicePathSensitive(topo, kind, 3, scheme)});
    }
    return out;
}

/**
 * Graph-identity oracle: the graphDigest of every proof in a (mesh,
 * routing) cell, folded in order with FNV-1a, must equal the digest
 * frozen from the pair-by-pair walk that the per-destination walk
 * replaced. The walk and the edge insertion may be rewritten for
 * speed; the graphs they build may not change by one edge.
 */
TEST(Prover, GraphsMatchFrozenDigests)
{
    struct Cell {
        int width;
        int height;
        RoutingKind kind;
        std::uint64_t digest;
    };
    using enum RoutingKind;
    constexpr Cell kFrozen[] = {
        {2, 2, XY, 0x62c689d20e85424eull},
        {2, 2, XYYX, 0xaa40947d7b728d21ull},
        {2, 2, Adaptive, 0xd4796d9cdf68713aull},
        {3, 3, XY, 0xc105b18f05e67905ull},
        {3, 3, XYYX, 0x25f80004f72cf6e7ull},
        {3, 3, Adaptive, 0x124c24494ad8ba6aull},
        {2, 5, XY, 0x29296c59be9ef0abull},
        {2, 5, XYYX, 0xc64a876e89a1cb90ull},
        {2, 5, Adaptive, 0x42f47a1c9dda123dull},
        {5, 3, XY, 0x986282cbbaa4256cull},
        {5, 3, XYYX, 0x2a385f9a710ac092ull},
        {5, 3, Adaptive, 0x21bb69bf38f83c0ull},
        {4, 7, XY, 0x97704b69b8bf3df1ull},
        {4, 7, XYYX, 0xc7943acf5926658full},
        {4, 7, Adaptive, 0x2f37182532013843ull},
        {8, 8, XY, 0xedff9d8eda276093ull},
        {8, 8, XYYX, 0x19faaf0a2e66a378ull},
        {8, 8, Adaptive, 0x16b7ff6ebe7437b5ull},
        {12, 12, XY, 0xea612b7987f77683ull},
        {12, 12, XYYX, 0xf6138338b5a60ee5ull},
        {12, 12, Adaptive, 0xf04bdd6c86cc48faull},
        {6, 11, XY, 0xa5f34ff52e25c813ull},
        {6, 11, XYYX, 0xe0f43ae13a691438ull},
        {6, 11, Adaptive, 0x4f11882e50474e06ull},
    };
    for (const Cell &c : kFrozen) {
        MeshTopology topo(c.width, c.height);
        std::vector<NamedProof> proofs = proveCell(topo, c.kind);
        std::uint64_t h = Cdg::kDigestBasis;
        for (const NamedProof &p : proofs) {
            for (int b = 0; b < 8; ++b) {
                h ^= (p.result.graphDigest >> (8 * b)) & 0xffu;
                h *= 0x100000001b3ull;
            }
        }
        if (h == c.digest)
            continue;
        std::string detail;
        for (const NamedProof &p : proofs) {
            char line[192];
            std::snprintf(line, sizeof line,
                          "  %-28s %5zu vertices %7zu edges  %s%s  "
                          "cycle %zu\n",
                          p.name.c_str(), p.result.vertices,
                          p.result.edges,
                          p.result.deadlockFree ? "free" : "CYCLIC",
                          p.result.viaEscape ? " (escape)" : "",
                          p.result.cycle.size());
            detail += line;
        }
        ADD_FAILURE() << c.width << "x" << c.height << " "
                      << toString(c.kind) << ": digest 0x" << std::hex
                      << h << " != frozen 0x" << c.digest << std::dec
                      << "\n"
                      << detail;
    }
}

/**
 * A mesh over the bound per side is proved on its surrogate, so it
 * must key the surrogate's memo entry: a 16x16 config reuses the 12x12
 * proof, in plain and in service mode, and proves the same graph. A
 * side under the bound keys a proof of its own.
 */
TEST(Prover, OversizedMeshSharesItsSurrogateFingerprint)
{
    for (bool service : {false, true}) {
        SimConfig big;
        big.meshWidth = 16;
        big.meshHeight = 16;
        big.routing = RoutingKind::XYYX;
        big.svc.enabled = service;
        SimConfig surrogate = big;
        surrogate.meshWidth = kMaxProofDim;
        surrogate.meshHeight = kMaxProofDim;
        SimConfig under = surrogate;
        under.meshHeight = kMaxProofDim - 1;

        SCOPED_TRACE(service ? "service" : "plain");
        EXPECT_EQ(proofFingerprint(big, ProofScope::Deadlock),
                  proofFingerprint(surrogate, ProofScope::Deadlock));
        EXPECT_NE(proofFingerprint(under, ProofScope::Deadlock),
                  proofFingerprint(surrogate, ProofScope::Deadlock));
        const ProofResult a = service ? proveService(big) : prove(big);
        const ProofResult b =
            service ? proveService(surrogate) : prove(surrogate);
        EXPECT_EQ(a.graphDigest, b.graphDigest);
        EXPECT_EQ(a.vertices, b.vertices);
    }
}

TEST(Prover, SkipCheckEnvironmentVariableIsHonoured)
{
    const char *prev = std::getenv("NOC_SKIP_CHECK");
    std::string saved = prev ? prev : "";

    unsetenv("NOC_SKIP_CHECK");
    EXPECT_TRUE(upfrontChecksEnabled());
    setenv("NOC_SKIP_CHECK", "0", 1);
    EXPECT_TRUE(upfrontChecksEnabled());
    setenv("NOC_SKIP_CHECK", "1", 1);
    EXPECT_FALSE(upfrontChecksEnabled());

    if (prev)
        setenv("NOC_SKIP_CHECK", saved.c_str(), 1);
    else
        unsetenv("NOC_SKIP_CHECK");
}

} // namespace
} // namespace noc::check
