/**
 * @file
 * Simulation configuration.
 *
 * The defaults reproduce the paper's experimental setup (Section 5.4):
 * 8x8 2D mesh, four 128-bit flits per packet, 3 VCs per port / path set,
 * 60 flits of total buffering per router for every architecture.
 */
#ifndef ROCOSIM_COMMON_CONFIG_H_
#define ROCOSIM_COMMON_CONFIG_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "common/types.h"

namespace noc {

/**
 * Longest hopDelay / creditDelay a link may have. A link of delay L is
 * a ring of bit_ceil(L + 1) arrival slots whose occupancy the receiver
 * keeps as one bit per slot (topology/channel.h): 7 is the longest
 * delay whose ring fits one mask byte.
 */
inline constexpr int kMaxLinkDelay = 7;

/** Shortest and longest mesh side, in nodes (SimConfig::validate). */
inline constexpr int kMinMeshSide = 2;
inline constexpr int kMaxMeshSide = 256;

/** Workloads used in the evaluation (Figures 8-10, 13). */
enum class TrafficKind : std::uint8_t {
    Uniform = 0,         ///< uniform random destinations, Bernoulli process
    Transpose = 1,       ///< (x,y) -> (y,x) permutation
    BitComplement = 2,   ///< node i -> ~i
    Hotspot = 3,         ///< uniform + extra weight on hotspot nodes
    Tornado = 4,         ///< half-ring offset in X
    NearestNeighbor = 5, ///< random adjacent node (stresses early ejection)
    SelfSimilar = 6,     ///< Pareto ON/OFF bursts, uniform destinations
    Mpeg = 7,            ///< MPEG-2 GOP-shaped VBR bursts
    BitReverse = 8,      ///< i -> bit-reverse(i) permutation
    Shuffle = 9,         ///< i -> rotate-left(i) permutation
    Trace = 10,          ///< replay a recorded schedule (traceFile)
};

/** Human-readable traffic name. */
const char *toString(TrafficKind t);

/**
 * The command-line spellings every CLI accepts, one table each
 * (exact, case-sensitive; nullopt for anything else):
 *   arch     generic | ps (alias pathsensitive) | roco
 *   routing  xy | xyyx | adaptive
 *   traffic  uniform | transpose | bitcomp | hotspot | tornado |
 *            neighbor | selfsimilar | mpeg | bitreverse | shuffle | trace
 */
std::optional<RouterArch> parseArch(std::string_view s);
std::optional<RoutingKind> parseRouting(std::string_view s);
std::optional<TrafficKind> parseTraffic(std::string_view s);

/**
 * A command-line or environment number: all of @p s must be one value
 * of T under std::from_chars (no whitespace, no '+', no '-' for an
 * unsigned T, in range; a double must also be finite); nullopt
 * otherwise. Defined for int, std::uint64_t and double.
 */
template <typename T>
std::optional<T> parseNumber(std::string_view s);

/**
 * The numeric environment knob @p name, read with parseNumber<T>:
 * @p fallback when unset; a value that is not a T in [@p lo, @p hi]
 * (an empty one included) is a fatal() error naming the variable, as
 * for NOC_SHARDS. Defined for int and std::uint64_t.
 */
template <typename T>
T envNumber(const char *name, T fallback,
            T lo = std::numeric_limits<T>::min(),
            T hi = std::numeric_limits<T>::max());

/**
 * Closed-loop traffic service knobs (src/svc).
 *
 * When enabled, every traffic draw becomes a *request* gated by a
 * finite-MSHR endpoint; delivery of a request at its destination NIC
 * schedules a deterministic *reply* back to the requester after
 * @c serviceLatency cycles. Two protocol-deadlock avoidance schemes can
 * be active (the extended-CDG prover verifies whichever applies):
 *
 *  - @c classVcPartition binds requests to the XY dimension order and
 *    replies to YX under XYYX routing, which splits them onto disjoint
 *    VC classes end to end (including the injection VCs).
 *  - @c endpointReserve relies on the finite MSHR window plus
 *    guaranteed sink consumption: replies are always absorbed, so a
 *    request's arrival never transitively waits on network resources a
 *    reply holds. This is the scheme that covers XY/Adaptive routing
 *    and the PathSensitive pools, where no VC partition exists.
 *
 * Disabling both yields a shared-pool configuration the prover rejects
 * with a counterexample cycle (the negative ctest).
 */
struct ServiceConfig {
    bool enabled = false;

    /** Fraction of requests drawn into the High (latency) tier. */
    double highTierFraction = 0.5;

    /** Outstanding-request window per endpoint (finite MSHR table). */
    int mshrsPerNode = 8;

    /** Cycles between request delivery and reply injection. */
    Cycle serviceLatency = 12;

    /**
     * Cycles after which an unanswered request's MSHR is reclaimed.
     * Needed under faults: a source-dropped request never generates a
     * reply, and without a timeout the endpoint would wedge at
     * mshrsPerNode outstanding forever.
     */
    Cycle mshrTimeout = 8192;

    /** Request/reply VC-class partition (active under XYYX only). */
    bool classVcPartition = true;

    /** Endpoint-reservation argument (finite MSHRs + sink guarantee). */
    bool endpointReserve = true;

    /** Reply packet length in flits; 0 = same as flitsPerPacket. */
    int replyFlits = 0;

    /** End-to-end RTT SLO per tier, in cycles (for violation counts). */
    Cycle sloHighCycles = 400;
    Cycle sloBulkCycles = 2000;

    /**
     * Batch-throughput mode: drive a fixed packet budget (warmup 0,
     * measurePackets = budget) and report time-to-drain instead of a
     * steady-state latency point. Labelling knob only — generation
     * already stops at the packet budget.
     */
    bool batch = false;
};

/**
 * Every knob of a simulation run.
 *
 * Aggregate-initialisable so tests and benches can override single fields:
 * @code
 *   SimConfig cfg;
 *   cfg.arch = RouterArch::Generic;
 *   cfg.injectionRate = 0.3;
 * @endcode
 */
struct SimConfig {
    // --- topology -------------------------------------------------------
    int meshWidth = 8;
    int meshHeight = 8;

    // --- architecture ---------------------------------------------------
    RouterArch arch = RouterArch::Roco;
    RoutingKind routing = RoutingKind::XY;

    /** VCs per input port (generic) or per path set (PS / RoCo). */
    int vcsPerPort = 3;
    /** Buffer depth per VC, generic router (3 VCs x 5 ports x 4 = 60). */
    int bufferDepthGeneric = 4;
    /** Buffer depth per VC, 4-port routers (3 VCs x 4 sets x 5 = 60). */
    int bufferDepthModular = 5;

    /**
     * Pipeline depth between switch-allocation grant and arrival at the
     * next router's input register: 1 cycle switch traversal + 1 cycle
     * link propagation (paper Section 5.1), plus the implicit input
     * register, i.e. a flit granted at cycle t is received at t+3.
     * At most kMaxLinkDelay.
     */
    int hopDelay = 3;
    /** Cycles for a credit to travel back upstream (1-cycle wire).
     *  At most kMaxLinkDelay. */
    int creditDelay = 1;

    // --- workload -------------------------------------------------------
    TrafficKind traffic = TrafficKind::Uniform;
    /** Offered load in flits/node/cycle (the paper's x axes). */
    double injectionRate = 0.1;
    int flitsPerPacket = 4;
    int flitBits = 128;
    /** Fraction of traffic aimed at hotspots (Hotspot pattern only). */
    double hotspotFraction = 0.2;
    /** Packet schedule to replay (Trace traffic only). */
    std::string traceFile;

    // --- protocol -------------------------------------------------------
    std::uint64_t seed = 0xC0FFEEull;
    /** Packets injected network-wide before measurement starts. */
    std::uint64_t warmupPackets = 2000;
    /** Packets measured after warm-up. */
    std::uint64_t measurePackets = 20000;
    /**
     * Hard stop. In faulty networks packets can be permanently blocked;
     * the paper terminates after twice the fault-free completion time.
     * We bound every run by maxCycles and count undelivered packets
     * against the completion probability.
     */
    Cycle maxCycles = 300000;

    // --- execution ------------------------------------------------------
    /**
     * Worker shards for the deterministic parallel engine (src/par).
     * 0 = auto (the NOC_SHARDS environment variable, default 1);
     * 1 steps the whole mesh on the calling thread. Results are
     * bit-identical for every shard count — this is purely a
     * wall-clock knob.
     */
    int shards = 0;

    /**
     * Skip stepping routers with no buffered flits, no pending
     * injection and nothing in flight toward them (the quiescence-bit
     * fast path). Provably a no-op per skipped step, so results are
     * bit-identical on or off; the NOC_IDLE_SKIP environment variable
     * (0/1) overrides this at engine start. Off buys nothing except a
     * baseline for the equivalence tests and benchmarks.
     */
    bool idleSkip = true;

    // --- closed-loop traffic service ------------------------------------
    ServiceConfig svc;

    /** Buffer depth for the configured architecture. */
    int bufferDepth() const;
    /** Total flit buffer capacity per router (must be 60 at defaults). */
    int totalBufferFlits() const;

    /** Aborts with fatal() if any field is out of range. */
    void validate() const;
};

} // namespace noc

#endif // ROCOSIM_COMMON_CONFIG_H_
