/**
 * @file
 * Deadlock-freedom prover: builds the extended channel dependency
 * graph (CDG) of a (mesh, routing algorithm, VC organisation) triple
 * and proves it acyclic, or produces a human-readable counterexample
 * cycle.
 *
 * The vertices are every input-VC slot of every router; an edge u -> v
 * means "a packet can hold u while waiting for v".  The enumeration
 * walks the real routing functions (makeRouting) once per destination
 * and routing flavour, from every source at once, and asks the
 * slot-eligibility rules the routers allocate through
 * (check/slot_rules.h): RoCo's guided-queuing classes dx/dy/txy/tyx
 * with the XY-YX order partition and injection classes (Table 1), the
 * generic router's per-port VCs with the XY-YX slot partition, and the
 * Path-Sensitive router's pooled quadrant path sets.
 *
 * Two proof tiers:
 *  1. Strict CDG acyclic (Dally & Seitz) — sufficient on its own.
 *  2. When the strict CDG is cyclic, an escape-subfunction check
 *     (Duato): routers here wait on a *set* of slots and proceed when
 *     any frees, so deadlock freedom holds if some per-state slot
 *     subset forms an acyclic sub-CDG that every occupied slot can
 *     reach.  The Path-Sensitive router needs this tier: its on-axis
 *     destinations are served by either adjacent quadrant pool, and
 *     the tie produces a strict-CDG cycle of four straight-line
 *     packets (NE->SE->SW->NW) under every routing algorithm; the
 *     canonical assignment axis-N/axis-E -> NE, axis-S/axis-W -> SW
 *     makes NE and SW absorbing and the escape graph acyclic.
 */
#ifndef ROCOSIM_CHECK_DEADLOCK_H_
#define ROCOSIM_CHECK_DEADLOCK_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "check/slot_rules.h"
#include "common/config.h"
#include "common/types.h"
#include "svc/protocol.h"
#include "topology/mesh.h"

namespace noc::check {

/** One vertex of a counterexample cycle, rendered for humans. */
struct CycleNode {
    NodeId node = 0;
    Coord at;         ///< mesh coordinate of the router
    std::string slot; ///< e.g. "Row p0 v1 [txy]", "in-W v2", "NE v0"

    std::string label() const;
};

/** Outcome of one deadlock-freedom proof. */
struct ProofResult {
    RouterArch arch{};
    RoutingKind routing{};
    bool deadlockFree = false;
    /**
     * True when the strict CDG was cyclic but the escape-subfunction
     * tier proved freedom; `cycle` then still holds the strict-CDG
     * cycle for reference.
     */
    bool viaEscape = false;
    std::size_t vertices = 0;
    std::size_t edges = 0;
    /**
     * FNV-1a over the adjacency of every graph the proof checked, the
     * strict CDG first and then, when that tier ran, the escape graph
     * (Cdg::digest): equal digests mean the proof examined the same
     * dependencies, edge for edge.
     */
    std::uint64_t graphDigest = 0;
    /** Counterexample cycle (closing edge back to front() implicit). */
    std::vector<CycleNode> cycle;
    /**
     * Protocol-deadlock avoidance scheme the proof was run under
     * ("class-partition", "endpoint-reserve", "shared-pool"); empty
     * for the network-only proofs.
     */
    std::string scheme;

    /** One-line verdict, e.g. for the noc_check audit table. */
    std::string summary() const;
    /** Multi-line rendering of `cycle`; empty string when acyclic. */
    std::string renderCycle() const;
};

ProofResult proveRoco(const MeshTopology &topo, RoutingKind kind,
                      const RocoCheckOptions &opts);
ProofResult proveGeneric(const MeshTopology &topo, RoutingKind kind,
                         int vcsPerPort);
ProofResult provePathSensitive(const MeshTopology &topo,
                               RoutingKind kind, int vcsPerPort);

/**
 * Service-mode proofs: the network CDG of *both* message classes plus
 * protocol-dependence edges (request arrival at its destination ⇒
 * reply injection there), modelling a pessimistic endpoint that will
 * not consume a request until its reply is injectable. The scheme
 * selects the avoidance argument under proof:
 *
 *  - EndpointReserve omits the protocol edges: the finite MSHR window
 *    plus unconditional reply consumption discharges them outside the
 *    graph, so the proof reduces to the network CDG over both classes.
 *  - ClassPartition restricts requests to the XY flavour and replies
 *    to YX *and keeps the protocol edges*: acyclicity then is the
 *    structural end-to-end partition argument. Only sound for the
 *    generic router — RoCo's module-keyed injection classes let
 *    straight-line XY requests share InjYx with replies, and the
 *    prover exhibits that cycle when the scheme is forced.
 *  - SharedPool keeps the protocol edges with no restriction; the
 *    prover produces the textbook request/reply counterexample.
 */
ProofResult proveServiceGeneric(const MeshTopology &topo, RoutingKind kind,
                                int vcsPerPort,
                                svc::AvoidanceScheme scheme);
ProofResult proveServiceRoco(const MeshTopology &topo, RoutingKind kind,
                             const RocoCheckOptions &opts,
                             svc::AvoidanceScheme scheme);
ProofResult proveServicePathSensitive(const MeshTopology &topo,
                                      RoutingKind kind, int vcsPerPort,
                                      svc::AvoidanceScheme scheme);

/**
 * The widest and tallest mesh a proof walks. A larger mesh is proved
 * on its surrogate, clipped to this bound per side: the dependency
 * rules are translation-invariant and purely local, so every cycle
 * shape present in a larger mesh already appears in a 12x12 window,
 * and the cap keeps the proof fast for huge sweeps. prove(),
 * proveService() and proofFingerprint() all clip through proofSide().
 */
inline constexpr int kMaxProofDim = 12;

/** One side of a mesh's proof surrogate: @p side, clipped. */
inline int
proofSide(int side)
{
    return std::min(side, kMaxProofDim);
}

/**
 * Proves @p cfg's service-mode protocol layer with the scheme the
 * config actually resolves to (svc::resolveScheme), on the same
 * surrogate as prove().
 */
ProofResult proveService(const SimConfig &cfg);

/**
 * Proves the (arch, routing, mesh, VC) combination of @p cfg with the
 * shipped VC organisation, on its kMaxProofDim surrogate.
 */
ProofResult prove(const SimConfig &cfg);

/** False when the NOC_SKIP_CHECK environment variable is 1 (0 or unset
 *  keeps the checks; any other value is fatal). */
bool upfrontChecksEnabled();

/** Which upfront prover a proofFingerprint() keys. */
enum class ProofScope {
    Deadlock, ///< CDG / escape proof (arch, routing, mesh≤12, VCs, svc)
    Liveness, ///< model-checked scenario matrix (arch, routing only)
};

/**
 * The canonical memo key for the upfront provers: collapses @p cfg
 * onto exactly the fields the proof outcome depends on. Operational
 * knobs — pool size, cfg.shards, idleSkip, seed, injection rate,
 * packet budgets, service latencies — never enter the key, so a
 * saturation search or batch re-run probing the same design under
 * different operational settings hits the memo instead of re-proving.
 * Both validateConfigOrDie and model::validateConfigLiveness key their
 * caches with this function; the *ProofsPerformed() counters make the
 * single-proof property testable (sweep_test).
 */
std::uint64_t proofFingerprint(const SimConfig &cfg, ProofScope scope);

/**
 * Process-wide count of deadlock proofs actually performed (memo
 * misses in validateConfigOrDie). Monotonic; for tests and
 * rocobench's proof counts, not for control flow.
 */
std::uint64_t deadlockProofsPerformed();

/**
 * Simulator / SweepRunner entry point: proves @p cfg deadlock-free
 * before any cycle is simulated, memoized per distinct
 * (arch, routing, mesh, vcs) key so sweeps pay for each combination
 * once.  On failure the counterexample cycle is printed to stderr and
 * the process exits via fatal().  Honors NOC_SKIP_CHECK.
 */
void validateConfigOrDie(const SimConfig &cfg);

} // namespace noc::check

#endif // ROCOSIM_CHECK_DEADLOCK_H_
