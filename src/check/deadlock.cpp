#include "check/deadlock.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <mutex>
#include <set>

#include "check/cdg.h"
#include "common/flit.h"
#include "common/log.h"
#include "routing/quadrant.h"
#include "routing/routing.h"

namespace noc::check {
namespace {

// Slot numbering, labelling and eligibility rules live in
// check/slot_rules.h, shared with the liveness model checker and the
// routers' VC allocation; CDG vertex ids are node * slotsPerNode + slot.

/**
 * Escape-tier canonical pool: strict-quadrant destinations keep their
 * quadrant; on-axis destinations go North/East -> NE, South/West -> SW,
 * which makes NE and SW absorbing and the escape graph acyclic.
 */
Quadrant
canonicalQuadrant(const MeshTopology &topo, NodeId cur, NodeId dst)
{
    Quadrant q0 = quadrantOf(topo, cur, dst, false);
    Quadrant q1 = quadrantOf(topo, cur, dst, true);
    if (q0 == q1)
        return q0;
    Coord c = topo.coord(cur);
    Coord d = topo.coord(dst);
    if (c.x == d.x)
        return d.y > c.y ? Quadrant::NE : Quadrant::SW;
    NOC_ASSERT(c.y == d.y, "quadrant tie off-axis");
    return d.x > c.x ? Quadrant::NE : Quadrant::SW;
}

/**
 * The Path-Sensitive pools of a packet at @p cur bound for @p dst: the
 * two it may hold (equal off-axis) and the slots it requests there as
 * the downstream hop — both pools for PathSensitiveRouter::requestVc,
 * the canonical pool for the escape tier (always a subset of what the
 * router actually waits on).
 */
struct PsPools {
    Quadrant q0 = Quadrant::NE;
    Quadrant q1 = Quadrant::NE;
    std::uint64_t strict = 0;
    std::uint64_t escape = 0;
};

PsPools
psPools(const MeshTopology &topo, NodeId cur, NodeId dst, int vcsPerPort)
{
    PsPools p;
    p.q0 = quadrantOf(topo, cur, dst, false);
    p.q1 = quadrantOf(topo, cur, dst, true);
    p.strict = psPoolMask(p.q0, vcsPerPort) | psPoolMask(p.q1, vcsPerPort);
    p.escape = psPoolMask(canonicalQuadrant(topo, cur, dst), vcsPerPort);
    return p;
}

/**
 * psPools of every node toward one destination. walkDestinations runs
 * all walks of a destination back to back, so the table is refilled
 * once per destination instead of recomputing six quadrants per
 * transition. The pools depend on the node only through the signs of
 * its offset from the destination (quadrantOf), so a refill calls
 * psPools once per sign class and copies it to the class's nodes.
 */
class PsPoolTable
{
  public:
    PsPoolTable(const MeshTopology &topo, int vcsPerPort)
        : topo_(topo), vcsPerPort_(vcsPerPort),
          classes_(static_cast<std::size_t>(topo.numNodes()))
    {
        coords_.reserve(classes_.size());
        for (NodeId n = 0; n < classes_.size(); ++n)
            coords_.push_back(topo.coord(n));
    }

    /** The pools of @p n (!= @p dst) toward @p dst. */
    const PsPools &
    at(NodeId n, NodeId dst)
    {
        return byClass_[signClass(n, dst)];
    }

    /**
     * The sign class of @p n's offset from @p dst, (sx + 1) * 3 +
     * (sy + 1): 4 for @p dst itself. Nodes of one class have the same
     * pools.
     */
    int
    signClass(NodeId n, NodeId dst)
    {
        if (dst != dst_)
            refill(dst);
        return classes_[n];
    }

  private:
    void
    refill(NodeId dst)
    {
        dst_ = dst;
        const Coord d = coords_[dst];
        bool known[9] = {};
        for (NodeId m = 0; m < classes_.size(); ++m) {
            const Coord c = coords_[m];
            const int cls = ((c.x > d.x) - (c.x < d.x) + 1) * 3 +
                            (c.y > d.y) - (c.y < d.y) + 1;
            classes_[m] = static_cast<std::uint8_t>(cls);
            if (m != dst && !known[cls]) {
                byClass_[cls] = psPools(topo_, m, dst, vcsPerPort_);
                known[cls] = true;
            }
        }
    }

    const MeshTopology &topo_;
    int vcsPerPort_;
    NodeId dst_ = kInvalidNode;
    std::vector<Coord> coords_;
    std::vector<std::uint8_t> classes_;
    PsPools byClass_[9];
};

/**
 * Transition contexts a visitor has already recorded. Where a
 * visitor's edges are a function of a small context (a transition's
 * node, ports and flavour, say), it records each context once rather
 * than once per destination that routes through it.
 */
class Recorded
{
  public:
    explicit Recorded(std::size_t contexts) : seen_(contexts) {}

    /** True the first time @p context is asked about. */
    bool
    first(std::size_t context)
    {
        if (seen_[context])
            return false;
        seen_[context] = true;
        return true;
    }

  private:
    std::vector<bool> seen_;
};

/** Transition contexts (arrival, output, flavour) per node. */
constexpr std::size_t kContextsPerNode = kNumPorts * kNumCardinal * 2;

/** Index of the transition context (@p n, @p arrival, @p out, @p yx). */
std::size_t
transitionContext(NodeId n, Direction arrival, Direction out, bool yx)
{
    return ((static_cast<std::size_t>(n) * kNumPorts +
             static_cast<std::size_t>(arrival)) *
                kNumCardinal +
            static_cast<std::size_t>(out)) *
               2 +
           (yx ? 1 : 0);
}

/** Packet flavours to enumerate: XY-YX packets pick an order at inject. */
int
flavorsOf(RoutingKind kind)
{
    return kind == RoutingKind::XYYX ? 2 : 1;
}

/**
 * Which sources one walk starts from. The routing functions read a
 * packet's destination and dimension order, never its source, so a
 * state's transitions do not depend on which source reached it; only a
 * visitor that reads f.src can tell sources apart. The two service
 * visitors that do read it read only the signs of its offset from the
 * destination (the reply's first hop, its quadrant).
 */
enum class Sources {
    All,    ///< one walk from every source at once; f.src is unset
    BySign, ///< one walk per sign class; f.src is one of its members
};

/**
 * Which flavours one walk enumerates: every flavour the routing has,
 * or only the one a message class is pinned to (ClassPartition pins
 * requests to XY and replies to YX).
 */
enum class Flavours {
    All,
    Xy,
    Yx,
};

/** The flavours a class walk enumerates: its pinned one under
 *  @p partition, else all. */
Flavours
classFlavours(bool partition, bool reply)
{
    if (!partition)
        return Flavours::All;
    return reply ? Flavours::Yx : Flavours::Xy;
}

/**
 * Reachability walk, one per (destination, flavour) — and per sign
 * class of the source under Sources::BySign. States are (node, arrival
 * port), each visited once per walk; the worklist starts from the
 * Local port of every source of the walk. @p visit receives each
 * transition (state, output, next node), the walk's packet and the
 * packet's route candidates at the next node (empty when that node is
 * the destination), and decides what edges to record. A walk routes
 * the packet once per node it reaches, whatever the number of ports
 * it arrives on. A walk visits exactly the union of the transitions
 * that single-source walks of its sources would visit, so a visitor
 * that reads the source only through its sign class records the same
 * edges as one walk per (source, destination) pair. Walk state never
 * includes the destination: per-arch callers decide whether edges
 * terminate there (generic router) or the flit early-ejects (RoCo /
 * PS).
 */
template <typename Visit>
void
walkDestinations(const MeshTopology &topo, const RoutingAlgorithm &routing,
                 Sources sources, Visit &&visit,
                 Flavours flavours = Flavours::All)
{
    const NodeId nodes = static_cast<NodeId>(topo.numNodes());
    std::vector<int> stamp(static_cast<std::size_t>(nodes) * kNumPorts, -1);
    // routing.route(n, f) of the current walk, valid where
    // routeStamp[n] is the walk's epoch.
    std::vector<DirectionSet> routes(nodes);
    std::vector<int> routeStamp(nodes, -1);
    std::vector<std::pair<NodeId, Direction>> work;
    // The sources of each walk: group (sx + 1) * 3 + (sy + 1) holds the
    // sources whose offset from dst has signs (sx, sy); Sources::All
    // puts every source in group 0.
    std::vector<NodeId> groups[9];
    int epoch = 0;
    const DirectionSet atDestination;

    for (NodeId dst = 0; dst < nodes; ++dst) {
        const Coord d = topo.coord(dst);
        for (std::vector<NodeId> &g : groups)
            g.clear();
        for (NodeId src = 0; src < nodes; ++src) {
            if (src == dst)
                continue;
            const Coord c = topo.coord(src);
            const int sx = (c.x > d.x) - (c.x < d.x);
            const int sy = (c.y > d.y) - (c.y < d.y);
            groups[sources == Sources::All ? 0 : (sx + 1) * 3 + sy + 1]
                .push_back(src);
        }
        for (int fl = 0; fl < flavorsOf(routing.kind()); ++fl) {
            if ((flavours == Flavours::Xy && fl != 0) ||
                (flavours == Flavours::Yx && fl != 1))
                continue;
            for (const std::vector<NodeId> &group : groups) {
                if (group.empty())
                    continue;
                Flit f;
                f.dst = dst;
                f.yxOrder = fl == 1;
                if (sources == Sources::BySign)
                    f.src = group.front();
                ++epoch;
                auto routeAt = [&](NodeId n) -> const DirectionSet & {
                    if (routeStamp[n] != epoch) {
                        routeStamp[n] = epoch;
                        routes[n] = routing.route(n, f);
                    }
                    return routes[n];
                };
                // No transition arrives on a Local port, so the seeds
                // need no stamp.
                work.clear();
                for (NodeId src : group)
                    work.emplace_back(src, Direction::Local);
                while (!work.empty()) {
                    auto [n, arrival] = work.back();
                    work.pop_back();
                    for (Direction out : routeAt(n)) {
                        NOC_ASSERT(isCardinal(out),
                                   "routing yielded Local before dst");
                        auto nn = topo.neighbor(n, out);
                        NOC_ASSERT(nn.has_value(),
                                   "minimal route crossed the mesh edge");
                        if (*nn == dst) {
                            visit(n, arrival, out, *nn, f, atDestination);
                            continue;
                        }
                        visit(n, arrival, out, *nn, f, routeAt(*nn));
                        std::size_t s =
                            *nn * kNumPorts +
                            static_cast<int>(opposite(out));
                        if (stamp[s] != epoch) {
                            stamp[s] = epoch;
                            work.emplace_back(*nn, opposite(out));
                        }
                    }
                }
            }
        }
    }
}

ProofResult
finish(ProofResult r, const Cdg &g, const MeshTopology &topo,
       int slotsPerNode, const std::function<std::string(int)> &slotName)
{
    r.vertices = static_cast<std::size_t>(g.numVertices());
    r.edges = g.numEdges();
    r.graphDigest = g.digest(Cdg::kDigestBasis);
    std::vector<int> cyc = g.findCycle();
    r.deadlockFree = cyc.empty();
    for (int v : cyc) {
        CycleNode cn;
        cn.node = static_cast<NodeId>(v / slotsPerNode);
        cn.at = topo.coord(cn.node);
        cn.slot = slotName(v % slotsPerNode);
        r.cycle.push_back(std::move(cn));
    }
    return r;
}

/**
 * The escape tier (deadlock.h): when the strict CDG of @p r is cyclic,
 * freedom still holds if the escape sub-relation is acyclic; the
 * strict cycle stays in @p r for reference.
 */
ProofResult
escapeTier(ProofResult r, const Cdg &escape)
{
    if (r.deadlockFree)
        return r;
    r.graphDigest = escape.digest(r.graphDigest);
    if (escape.findCycle().empty()) {
        r.deadlockFree = true;
        r.viaEscape = true;
    }
    return r;
}

} // namespace

std::string
CycleNode::label() const
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "n%02u (%d,%d) %s",
                  static_cast<unsigned>(node), at.x, at.y, slot.c_str());
    return buf;
}

std::string
ProofResult::summary() const
{
    char buf[192];
    if (deadlockFree && !viaEscape) {
        std::snprintf(buf, sizeof buf,
                      "%s x %s: deadlock-free (strict CDG acyclic, "
                      "%zu vertices, %zu edges)",
                      toString(arch), toString(routing), vertices, edges);
    } else if (deadlockFree) {
        std::snprintf(buf, sizeof buf,
                      "%s x %s: deadlock-free via escape path sets "
                      "(strict CDG cyclic, %zu vertices, %zu edges)",
                      toString(arch), toString(routing), vertices, edges);
    } else {
        std::snprintf(buf, sizeof buf,
                      "%s x %s: DEADLOCK POSSIBLE — %zu-slot dependency "
                      "cycle in the CDG",
                      toString(arch), toString(routing), cycle.size());
    }
    std::string out = buf;
    if (!scheme.empty()) {
        out += " [protocol: ";
        out += scheme;
        out += ']';
    }
    return out;
}

std::string
ProofResult::renderCycle() const
{
    if (cycle.empty())
        return {};
    std::string out = "counterexample dependency cycle (";
    out += std::to_string(cycle.size());
    out += cycle.size() == 1 ? " slot, self-dependency):\n"
                             : " slots):\n";
    for (std::size_t i = 0; i < cycle.size(); ++i) {
        out += i == 0 ? "     " : "  -> ";
        out += cycle[i].label();
        out += '\n';
    }
    out += "  -> back to ";
    out += cycle.front().label();
    out += '\n';
    return out;
}

ProofResult
proveRoco(const MeshTopology &topo, RoutingKind kind,
          const RocoCheckOptions &opts)
{
    Cdg graph(topo.numNodes() * kRocoSlots);
    auto routing = makeRouting(kind, topo);
    const RocoSlotTable slots(opts, kind);
    // The edges toward one look-ahead candidate depend on the
    // transition's context and that candidate.
    Recorded recorded(topo.numNodes() * kContextsPerNode * kNumCardinal);
    walkDestinations(
        topo, *routing, Sources::All,
        [&](NodeId n, Direction arrival, Direction out, NodeId nn,
            const Flit &f, const DirectionSet &next) {
            if (nn == f.dst)
                return; // early ejection: no downstream VC is held
            std::uint64_t u = slots.mask(arrival, out, f.yxOrder);
            if (!u)
                return;
            const std::size_t context =
                transitionContext(n, arrival, out, f.yxOrder);
            // The head requests a slot for every look-ahead
            // candidate it can commit at the next router.
            for (Direction d2 : next) {
                if (!recorded.first(context * kNumCardinal +
                                    static_cast<std::size_t>(d2)))
                    continue;
                graph.addEdges(n * kRocoSlots, u, nn * kRocoSlots,
                               slots.mask(opposite(out), d2, f.yxOrder));
            }
        });
    ProofResult r;
    r.arch = RouterArch::Roco;
    r.routing = kind;
    return finish(std::move(r), graph, topo, kRocoSlots,
                  [&](int s) { return rocoSlotName(opts.table, s); });
}

ProofResult
proveGeneric(const MeshTopology &topo, RoutingKind kind, int vcsPerPort)
{
    NOC_ASSERT(vcsPerPort >= 1 && vcsPerPort * kNumPorts <= 64,
               "generic VC count out of prover range");
    int slots = kNumPorts * vcsPerPort;
    Cdg graph(topo.numNodes() * slots);
    // The edges of a transition depend on its node, ports and flavour.
    Recorded recorded(topo.numNodes() * kContextsPerNode);
    walkDestinations(
        topo, *makeRouting(kind, topo), Sources::All,
        [&](NodeId n, Direction arrival, Direction out, NodeId nn,
            const Flit &f, const DirectionSet &) {
            if (!recorded.first(
                    transitionContext(n, arrival, out, f.yxOrder)))
                return;
            // Generic flits buffer at the destination before the
            // Local output drains them, so edges into dst exist;
            // dst slots have no out-edges (infinite Local sink).
            std::uint64_t u = genericSlotMask(
                kind, static_cast<int>(arrival), vcsPerPort,
                f.yxOrder);
            std::uint64_t v = genericSlotMask(
                kind, static_cast<int>(opposite(out)), vcsPerPort,
                f.yxOrder);
            graph.addEdges(n * slots, u, nn * slots, v);
        });
    ProofResult r;
    r.arch = RouterArch::Generic;
    r.routing = kind;
    return finish(std::move(r), graph, topo, slots,
                  [=](int s) { return genericSlotName(vcsPerPort, s); });
}

ProofResult
provePathSensitive(const MeshTopology &topo, RoutingKind kind,
                   int vcsPerPort)
{
    NOC_ASSERT(vcsPerPort >= 1 && vcsPerPort * kNumQuadrants <= 64,
               "PS VC count out of prover range");
    int slots = kNumQuadrants * vcsPerPort;
    Cdg strict(topo.numNodes() * slots);
    Cdg escape(topo.numNodes() * slots);
    PsPoolTable pools(topo, vcsPerPort);
    // The edges of a transition depend on its node and output and on
    // the sign classes (hence the pools) of both ends.
    Recorded recorded(static_cast<std::size_t>(topo.numNodes()) *
                      kNumCardinal * 9 * 9);
    walkDestinations(
        topo, *makeRouting(kind, topo), Sources::All,
        [&](NodeId n, Direction arrival, Direction out, NodeId nn,
            const Flit &f, const DirectionSet &) {
            (void)arrival; // pools are arrival-independent
            if (nn == f.dst)
                return; // early ejection
            if (!recorded.first(
                    ((n * kNumCardinal + static_cast<std::size_t>(out)) *
                         9 +
                     pools.signClass(n, f.dst)) *
                        9 +
                    pools.signClass(nn, f.dst)))
                return;
            const PsPools &held = pools.at(n, f.dst);
            const PsPools &next = pools.at(nn, f.dst);
            const Quadrant qs[2] = {held.q0, held.q1};
            int numPools = held.q0 == held.q1 ? 1 : 2;
            for (int i = 0; i < numPools; ++i) {
                Quadrant q = qs[i];
                if (!quadrantServes(q, out))
                    continue;
                std::uint64_t u = psPoolMask(q, vcsPerPort);
                strict.addEdges(n * slots, u, nn * slots, next.strict);
                escape.addEdges(n * slots, u, nn * slots, next.escape);
            }
        });
    ProofResult r;
    r.arch = RouterArch::PathSensitive;
    r.routing = kind;
    r = finish(std::move(r), strict, topo, slots,
               [=](int s) { return psSlotName(vcsPerPort, s); });
    // When the strict CDG is cyclic (the on-axis pool tie chains four
    // straight packets NE->SE->SW->NW), the escape tier decides.
    return escapeTier(std::move(r), escape);
}

ProofResult
proveServiceGeneric(const MeshTopology &topo, RoutingKind kind,
                    int vcsPerPort, svc::AvoidanceScheme scheme)
{
    NOC_ASSERT(vcsPerPort >= 1 && vcsPerPort * kNumPorts <= 64,
               "generic VC count out of prover range");
    int slots = kNumPorts * vcsPerPort;
    Cdg graph(topo.numNodes() * slots);
    bool partition = scheme == svc::AvoidanceScheme::ClassPartition;
    bool protocol = scheme != svc::AvoidanceScheme::EndpointReserve;
    auto mask = [&](Direction port, bool yx) {
        return genericSvcSlotMask(kind, static_cast<int>(port), vcsPerPort,
                                  yx, partition);
    };
    auto routing = makeRouting(kind, topo);
    // Reply-injection slots are route-independent for the generic
    // router: the Local VCs of the reply class's allowed flavours.
    std::uint64_t replyInj = 0;
    for (int rf = 0; rf < flavorsOf(kind); ++rf) {
        bool ryx = rf == 1;
        if (partition && !ryx)
            continue;
        replyInj |= mask(Direction::Local, ryx);
    }
    // The network edges of a transition depend on its context alone,
    // in either class; so do its protocol edges.
    Recorded network(topo.numNodes() * kContextsPerNode);
    Recorded protocolAt(topo.numNodes() * kContextsPerNode);
    auto networkEdges = [&](NodeId n, Direction arrival, Direction out,
                            NodeId nn, bool yx) {
        if (network.first(transitionContext(n, arrival, out, yx)))
            graph.addEdges(n * slots, mask(arrival, yx), nn * slots,
                           mask(opposite(out), yx));
    };
    // Request class: network edges plus, at the final hop, the
    // protocol-dependence edge arrival-at-dst -> reply-injection-at-dst.
    walkDestinations(
        topo, *routing, Sources::All,
        [&](NodeId n, Direction arrival, Direction out, NodeId nn,
            const Flit &f, const DirectionSet &) {
            networkEdges(n, arrival, out, nn, f.yxOrder);
            if (protocol && nn == f.dst &&
                protocolAt.first(
                    transitionContext(n, arrival, out, f.yxOrder)))
                graph.addEdges(nn * slots, mask(opposite(out), f.yxOrder),
                               nn * slots, replyInj);
        },
        classFlavours(partition, false));
    // Reply class: network edges only; replies are consumed
    // unconditionally at the requester, so their dst slots stay sinks.
    walkDestinations(
        topo, *routing, Sources::All,
        [&](NodeId n, Direction arrival, Direction out, NodeId nn,
            const Flit &f, const DirectionSet &) {
            networkEdges(n, arrival, out, nn, f.yxOrder);
        },
        classFlavours(partition, true));
    ProofResult r;
    r.arch = RouterArch::Generic;
    r.routing = kind;
    r.scheme = svc::toString(scheme);
    return finish(std::move(r), graph, topo, slots,
                  [=](int s) { return genericSlotName(vcsPerPort, s); });
}

ProofResult
proveServiceRoco(const MeshTopology &topo, RoutingKind kind,
                 const RocoCheckOptions &opts, svc::AvoidanceScheme scheme)
{
    Cdg graph(topo.numNodes() * kRocoSlots);
    auto routing = makeRouting(kind, topo);
    const RocoSlotTable slots(opts, kind);
    bool partition = scheme == svc::AvoidanceScheme::ClassPartition;
    bool protocol = scheme != svc::AvoidanceScheme::EndpointReserve;
    // Reply injection at a RoCo node is route-dependent: the injection
    // class (InjXy / InjYx) follows the module serving the reply's
    // first hop, so the mask unions over the reply's route candidates.
    auto replyInjMask = [&](NodeId server, NodeId requester) {
        std::uint64_t m = 0;
        for (int rf = 0; rf < flavorsOf(kind); ++rf) {
            bool ryx = rf == 1;
            if (partition && !ryx)
                continue;
            Flit rp;
            rp.src = server;
            rp.dst = requester;
            rp.yxOrder = ryx;
            for (Direction d : routing->route(server, rp))
                m |= slots.mask(Direction::Local, d, ryx);
        }
        return m;
    };
    // Request class. RoCo heads early-eject, so the protocol edge
    // originates at the *last-held* slot (penultimate router). The
    // reply's first hop depends on the requester only through the
    // signs of its offset, hence one walk per sign class when there
    // are protocol edges to draw.
    // The reply-injection mask, kept for the walk's (dst, src).
    NodeId replyFrom = kInvalidNode;
    NodeId replyTo = kInvalidNode;
    std::uint64_t replyInj = 0;
    // The edges toward one look-ahead candidate depend on the
    // transition's context and that candidate, in either class.
    Recorded recorded(topo.numNodes() * kContextsPerNode * kNumCardinal);
    auto networkEdges = [&](NodeId n, Direction arrival, Direction out,
                            NodeId nn, bool yx, std::uint64_t u,
                            const DirectionSet &next) {
        const std::size_t context = transitionContext(n, arrival, out, yx);
        for (Direction d2 : next) {
            if (recorded.first(context * kNumCardinal +
                               static_cast<std::size_t>(d2)))
                graph.addEdges(n * kRocoSlots, u, nn * kRocoSlots,
                               slots.mask(opposite(out), d2, yx));
        }
    };
    walkDestinations(
        topo, *routing, protocol ? Sources::BySign : Sources::All,
        [&](NodeId n, Direction arrival, Direction out, NodeId nn,
            const Flit &f, const DirectionSet &next) {
            std::uint64_t u = slots.mask(arrival, out, f.yxOrder);
            if (!u)
                return;
            if (nn == f.dst) {
                if (!protocol)
                    return;
                if (replyFrom != nn || replyTo != f.src) {
                    replyFrom = nn;
                    replyTo = f.src;
                    replyInj = replyInjMask(nn, f.src);
                }
                graph.addEdges(n * kRocoSlots, u, nn * kRocoSlots,
                               replyInj);
                return;
            }
            networkEdges(n, arrival, out, nn, f.yxOrder, u, next);
        },
        classFlavours(partition, false));
    // Reply class: base network edges, flavour-restricted.
    walkDestinations(
        topo, *routing, Sources::All,
        [&](NodeId n, Direction arrival, Direction out, NodeId nn,
            const Flit &f, const DirectionSet &next) {
            if (nn == f.dst)
                return; // early ejection, unconditional
            std::uint64_t u = slots.mask(arrival, out, f.yxOrder);
            if (!u)
                return;
            networkEdges(n, arrival, out, nn, f.yxOrder, u, next);
        },
        classFlavours(partition, true));
    ProofResult r;
    r.arch = RouterArch::Roco;
    r.routing = kind;
    r.scheme = svc::toString(scheme);
    return finish(std::move(r), graph, topo, kRocoSlots,
                  [&](int s) { return rocoSlotName(opts.table, s); });
}

ProofResult
proveServicePathSensitive(const MeshTopology &topo, RoutingKind kind,
                          int vcsPerPort, svc::AvoidanceScheme scheme)
{
    if (scheme == svc::AvoidanceScheme::EndpointReserve) {
        // No protocol edges and the pools are class-blind: the proof
        // is exactly the network-layer one.
        ProofResult r = provePathSensitive(topo, kind, vcsPerPort);
        r.scheme = svc::toString(scheme);
        return r;
    }
    // SharedPool (and a forced ClassPartition, which the quadrant
    // pools cannot express): both classes share every pool, protocol
    // edges included in the strict and the escape graph alike. The
    // reply's pools depend on the requester only through the signs of
    // its offset, hence one walk per sign class.
    NOC_ASSERT(vcsPerPort >= 1 && vcsPerPort * kNumQuadrants <= 64,
               "PS VC count out of prover range");
    int slots = kNumQuadrants * vcsPerPort;
    Cdg strict(topo.numNodes() * slots);
    Cdg escape(topo.numNodes() * slots);
    PsPoolTable pools(topo, vcsPerPort);
    // The reply's pools, kept for the walk's (dst, src): its sign class.
    NodeId replyFrom = kInvalidNode;
    NodeId replyTo = kInvalidNode;
    PsPools reply;
    walkDestinations(
        topo, *makeRouting(kind, topo), Sources::BySign,
        [&](NodeId n, Direction arrival, Direction out, NodeId nn,
            const Flit &f, const DirectionSet &) {
            (void)arrival;
            const PsPools &held = pools.at(n, f.dst);
            const PsPools *next = nullptr;
            if (nn == f.dst) {
                // Protocol edge targets: the reply (dst -> src)
                // injects into its own destination pools.
                if (replyFrom != f.dst || replyTo != f.src) {
                    replyFrom = f.dst;
                    replyTo = f.src;
                    reply = psPools(topo, f.dst, f.src, vcsPerPort);
                }
                next = &reply;
            } else {
                next = &pools.at(nn, f.dst);
            }
            const Quadrant qs[2] = {held.q0, held.q1};
            int numPools = held.q0 == held.q1 ? 1 : 2;
            for (int i = 0; i < numPools; ++i) {
                Quadrant q = qs[i];
                if (!quadrantServes(q, out))
                    continue;
                std::uint64_t u = psPoolMask(q, vcsPerPort);
                strict.addEdges(n * slots, u, nn * slots, next->strict);
                escape.addEdges(n * slots, u, nn * slots, next->escape);
            }
        });
    ProofResult r;
    r.arch = RouterArch::PathSensitive;
    r.routing = kind;
    r.scheme = svc::toString(scheme);
    r = finish(std::move(r), strict, topo, slots,
               [=](int s) { return psSlotName(vcsPerPort, s); });
    return escapeTier(std::move(r), escape);
}

ProofResult
proveService(const SimConfig &cfg)
{
    MeshTopology topo(proofSide(cfg.meshWidth), proofSide(cfg.meshHeight));
    svc::AvoidanceScheme scheme = svc::resolveScheme(cfg);
    switch (cfg.arch) {
      case RouterArch::Roco:
        return proveServiceRoco(topo, cfg.routing,
                                RocoCheckOptions::shipped(cfg.routing),
                                scheme);
      case RouterArch::Generic:
        return proveServiceGeneric(topo, cfg.routing, cfg.vcsPerPort,
                                   scheme);
      case RouterArch::PathSensitive:
        return proveServicePathSensitive(topo, cfg.routing, cfg.vcsPerPort,
                                         scheme);
    }
    fatal("unknown router architecture in service deadlock prover");
}

ProofResult
prove(const SimConfig &cfg)
{
    MeshTopology topo(proofSide(cfg.meshWidth), proofSide(cfg.meshHeight));
    switch (cfg.arch) {
      case RouterArch::Roco:
        return proveRoco(topo, cfg.routing,
                         RocoCheckOptions::shipped(cfg.routing));
      case RouterArch::Generic:
        return proveGeneric(topo, cfg.routing, cfg.vcsPerPort);
      case RouterArch::PathSensitive:
        return provePathSensitive(topo, cfg.routing, cfg.vcsPerPort);
    }
    fatal("unknown router architecture in deadlock prover");
}

bool
upfrontChecksEnabled()
{
    return envNumber<int>("NOC_SKIP_CHECK", 0, 0, 1) == 0;
}

namespace {
std::atomic<std::uint64_t> gDeadlockProofs{0};
} // namespace

std::uint64_t
proofFingerprint(const SimConfig &cfg, ProofScope scope)
{
    std::uint64_t key = (static_cast<std::uint64_t>(cfg.arch) << 56) |
                        (static_cast<std::uint64_t>(cfg.routing) << 48);
    if (scope == ProofScope::Liveness) {
        // The scenario matrix and arbiter obligations depend on the
        // (arch, routing) pair only — rules are translation-invariant
        // and mesh/VC-independent (see model/liveness.h).
        return key;
    }
    key |= (static_cast<std::uint64_t>(proofSide(cfg.meshWidth)) << 32) |
           (static_cast<std::uint64_t>(proofSide(cfg.meshHeight)) << 16) |
           static_cast<std::uint64_t>(cfg.vcsPerPort);
    if (cfg.svc.enabled) {
        // Service mode proves a different (augmented) graph per
        // avoidance scheme; keep those proofs distinct in the memo.
        key |= 1ull << 36;
        key |= static_cast<std::uint64_t>(svc::resolveScheme(cfg)) << 37;
    }
    return key;
}

std::uint64_t
deadlockProofsPerformed()
{
    return gDeadlockProofs.load(std::memory_order_relaxed);
}

void
validateConfigOrDie(const SimConfig &cfg)
{
    if (!upfrontChecksEnabled())
        return;

    static std::mutex mu;
    static std::set<std::uint64_t> proven;
    std::uint64_t key = proofFingerprint(cfg, ProofScope::Deadlock);

    std::lock_guard<std::mutex> lock(mu);
    if (proven.contains(key))
        return;
    ProofResult r = cfg.svc.enabled ? proveService(cfg) : prove(cfg);
    if (!r.deadlockFree) {
        std::fprintf(stderr, "%s\n%s", r.summary().c_str(),
                     r.renderCycle().c_str());
        fatal("configuration admits deadlock "
              "(set NOC_SKIP_CHECK=1 to run anyway)");
    }
    gDeadlockProofs.fetch_add(1, std::memory_order_relaxed);
    proven.insert(key);
}

} // namespace noc::check
