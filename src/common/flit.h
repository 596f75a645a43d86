/**
 * @file
 * Flit: the unit of flow control moved through the network.
 *
 * The simulator is flit-level: payload bits are never materialised, only
 * the control information a real router's datapath would act on.  The
 * paper's configuration uses four 128-bit flits per packet; the flit
 * width only matters to the energy model.
 */
#ifndef ROCOSIM_COMMON_FLIT_H_
#define ROCOSIM_COMMON_FLIT_H_

#include <cstdint>
#include <type_traits>

#include "common/types.h"

namespace noc {

/** Position of a flit within its packet. */
enum class FlitType : std::uint8_t {
    Head = 0,
    Body = 1,
    Tail = 2,
    HeadTail = 3, ///< single-flit packet
};

/** True for Head and HeadTail flits. */
constexpr bool
isHead(FlitType t)
{
    return t == FlitType::Head || t == FlitType::HeadTail;
}

/** True for Tail and HeadTail flits. */
constexpr bool
isTail(FlitType t)
{
    return t == FlitType::Tail || t == FlitType::HeadTail;
}

/**
 * Message classes for the closed-loop traffic service (src/svc).
 *
 * The class byte rides in the flit envelope: bit 0 distinguishes
 * request from reply (the protocol dimension the deadlock prover's
 * protocol-dependence edges reason about), bit 1 selects the QoS tier
 * (High = latency-sensitive, Bulk = best-effort). Open-loop traffic
 * leaves the field at 0 (ReqHigh), which keeps every pre-service
 * code path byte-identical.
 */
using MsgClass = std::uint8_t;
inline constexpr MsgClass kClsReqHigh = 0;
inline constexpr MsgClass kClsRepHigh = 1;
inline constexpr MsgClass kClsReqBulk = 2;
inline constexpr MsgClass kClsRepBulk = 3;
inline constexpr int kNumMsgClasses = 4;

/** Compose a class byte from protocol direction and QoS tier. */
constexpr MsgClass
makeMsgClass(bool reply, int tier)
{
    return static_cast<MsgClass>((reply ? 1u : 0u) |
                                 (static_cast<unsigned>(tier) << 1));
}

/** True for reply-direction classes. */
constexpr bool
isReplyClass(MsgClass c)
{
    return (c & 1u) != 0;
}

/** QoS tier of a class: 0 = High, 1 = Bulk. */
constexpr int
tierOfClass(MsgClass c)
{
    return static_cast<int>(c >> 1);
}

/** Bounds-checked array index for per-class counters. */
constexpr int
clsIndex(MsgClass c)
{
    return static_cast<int>(c) & (kNumMsgClasses - 1);
}

/** Human-readable class name ("req-high", "rep-bulk", ...). */
constexpr const char *
msgClassName(MsgClass c)
{
    switch (clsIndex(c)) {
    case kClsReqHigh: return "req-high";
    case kClsRepHigh: return "rep-high";
    case kClsReqBulk: return "req-bulk";
    default:          return "rep-bulk";
    }
}

/**
 * A flit in flight.
 *
 * @c vc is rewritten at every hop: it names the virtual channel the flit
 * occupies (or will occupy) at the router it is being sent to.  For
 * look-ahead routing architectures @c lookahead carries the output port
 * the flit must take at the router it is arriving at, computed one hop
 * upstream (Section 3.1 of the paper).
 */
struct Flit {
    std::uint64_t packetId = 0;
    std::uint16_t flitSeq = 0;  ///< 0-based index within the packet
    std::uint16_t packetLen = 0;
    FlitType type = FlitType::Head;
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;

    Cycle createTime = 0;  ///< cycle the packet entered the source queue

    std::uint8_t vc = 0;   ///< input VC at the downstream router
    Direction lookahead = Direction::Invalid;

    /**
     * Dimension order chosen at the source for XY-YX oblivious routing:
     * false = XY (X first), true = YX (Y first).
     */
    bool yxOrder = false;

    /** Created inside the measurement window (after warm-up). */
    bool measured = false;

    std::uint8_t hops = 0; ///< routers traversed so far (stats only)

    /**
     * Message class (request/reply x QoS tier) for the closed-loop
     * traffic service; 0 (ReqHigh) for open-loop workloads. Fits in
     * what used to be struct padding, so sizeof(Flit) is unchanged.
     */
    MsgClass cls = 0;
};

/**
 * The zero-copy discipline (DESIGN section 12) moves flits as raw
 * memcpy-able values: link slot rings, VC buffers and the SoA arenas all
 * assume a Flit is a small trivially-copyable record. A non-trivial
 * member (or accidental growth past one cache line shared by two
 * flits) would silently turn every hop into a constructor call, so the
 * layout is pinned here rather than discovered in bench_throughput.
 */
static_assert(std::is_trivially_copyable_v<Flit>,
              "Flit must stay a trivially-copyable value type: rings "
              "and arenas move it with plain copies");
static_assert(sizeof(Flit) <= 40,
              "Flit grew past 40 bytes; two flits no longer share a "
              "cache line — revisit DESIGN section 12 before accepting");

/**
 * Network-wide flit lifecycle counters, maintained incrementally by the
 * NICs (creation, delivery) and the routers (fault drops).
 *
 * Every flit is counted created exactly once when it enters a source
 * queue and retired exactly once when it is delivered to a NIC or
 * discarded at a fault, so `created == retired` is equivalent to "no
 * flit anywhere in the system" — the drain condition the simulator
 * previously established with a full network walk every cycle.
 */
struct FlitLedger {
    std::uint64_t created = 0; ///< flits enqueued at source NICs
    std::uint64_t retired = 0; ///< flits delivered or discarded
    Cycle lastDelivery = 0;    ///< most recent NIC delivery cycle
    /**
     * Sum over retired flits of (retire cycle - create cycle): total
     * flit residency in the system. Deterministic and load-invariant
     * for a fixed seed, which makes it the workload numerator of the
     * throughput benchmarks (flit-cycles simulated per wall second).
     */
    std::uint64_t flitCycles = 0;

    /**
     * Per-class creation/retirement counters for the closed-loop
     * service (indexed by clsIndex). They decompose `created` and
     * `retired` exactly — the runtime invariant checker audits the
     * sums — so a class-routing bug that swaps traffic between
     * classes cannot cancel out in the aggregate identity compare.
     */
    std::uint64_t createdByClass[kNumMsgClasses] = {0, 0, 0, 0};
    std::uint64_t retiredByClass[kNumMsgClasses] = {0, 0, 0, 0};

    /**
     * Endpoint obligations not yet materialised as flits: replies that
     * are scheduled (request consumed, service latency running) but
     * not yet enqueued at the server NIC. The drain logic must treat
     * these as in-flight work — `created == retired` alone would let a
     * run terminate between a request's delivery and its reply's
     * injection, truncating the closed loop.
     */
    std::uint64_t svcPending = 0;

    /** True when no flit — and no scheduled reply — is outstanding. */
    bool quiescent() const { return created == retired && svcPending == 0; }

    /** Every counter equal: the ledger half of the identity gates. */
    bool operator==(const FlitLedger &) const = default;
};

} // namespace noc

#endif // ROCOSIM_COMMON_FLIT_H_
