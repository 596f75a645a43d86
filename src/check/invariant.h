/**
 * @file
 * Runtime protocol invariant checker.
 *
 * Five families of invariants guard the simulator's flow-control
 * protocol while it runs (independent of NDEBUG):
 *
 *   CreditConservation - for every (link, VC slot): upstream credits +
 *                        flits on the wire + credits on the wire +
 *                        downstream occupancy == buffer depth; and
 *                        the flit ledger's outstanding count == the
 *                        flits in source queues, buffers and links.
 *   WormholeOrder      - each input VC sees HEAD, BODY*, TAIL with
 *                        contiguous sequence numbers per packet.
 *   PathSetDiscipline  - a flit sorted into a RoCo row path set never
 *                        requests a column output (and vice versa).
 *   FaultConsistency   - per-node fault state obeys the Table 3
 *                        recycling rules (RoCo degrades per component;
 *                        unified designs only ever go whole-node dead).
 *   StageMask          - each router's cached VA-wait, SA-ready and
 *                        drain-ready bits equal the bits its VC state
 *                        calls for (router/pipeline.h), and its
 *                        idle-skip work counter equals its buffered
 *                        flits.
 *
 * Cost model: always compiled in (independent of NDEBUG) and gated at
 * runtime: setting the NOC_INVARIANT environment variable to 0 (or
 * calling setInvariantsEnabled(false)) disables every check.
 *
 * Each violation reports the cycle, router, port and VC; the default
 * handler prints the report and aborts, tests install a recorder.
 */
#ifndef ROCOSIM_CHECK_INVARIANT_H_
#define ROCOSIM_CHECK_INVARIANT_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/flit.h"
#include "common/types.h"

// Always 1: the checker is always built. The constant stays because
// rocobench records it in every result header.
#define NOC_INVARIANTS_BUILT 1

namespace noc::check {

/** The invariant families described in the file comment. */
enum class InvariantKind : std::uint8_t {
    CreditConservation = 0,
    WormholeOrder = 1,
    PathSetDiscipline = 2,
    FaultConsistency = 3,
    StageMask = 4,
};

const char *toString(InvariantKind k);

/** One detected protocol violation. */
struct Violation {
    InvariantKind kind{};
    Cycle cycle = 0;
    NodeId router = 0;
    Direction port = Direction::Invalid;
    int vc = -1; ///< -1 when no single VC is implicated
    std::string detail;

    /** Full human-readable report (kind, cycle, router, port, VC). */
    std::string describe() const;
};

namespace detail {
/** -1 = read NOC_INVARIANT on first use; 0/1 = decided. */
inline std::atomic<int> invariantsState{-1};
/** Reads NOC_INVARIANT, caches it in invariantsState and returns it. */
bool readInvariantsEnv();
} // namespace detail

/**
 * Runtime gate. First call reads the NOC_INVARIANT environment
 * variable (0 disables, 1 or unset enables, anything else is fatal);
 * afterwards the cached value is returned until setInvariantsEnabled
 * overrides it.
 * Inline: the order trackers ask once per buffered flit, so the
 * decided case is one relaxed load, not a call.
 */
inline bool
invariantsEnabled()
{
    const int v = detail::invariantsState.load(std::memory_order_relaxed);
    return v >= 0 ? v == 1 : detail::readInvariantsEnv();
}
void setInvariantsEnabled(bool on);

/** Sink for violations; tests install one to assert on firings. */
class ViolationRecorder
{
  public:
    virtual ~ViolationRecorder() = default;
    virtual void onViolation(const Violation &v) = 0;
};

/**
 * Installs @p recorder (nullptr restores the default print-and-abort
 * handler) and returns the previously installed one.
 */
ViolationRecorder *setViolationRecorder(ViolationRecorder *recorder);

/** Routes @p v to the installed recorder (default: print and abort). */
void reportViolation(Violation v);

/**
 * Per-input-VC wormhole order tracker: verifies HEAD -> BODY* -> TAIL
 * with contiguous flitSeq per packet.  Routers call onFlit() for every
 * flit written into the VC; a violation re-synchronises the tracker to
 * the offending flit so one fault does not cascade.
 */
class WormholeOrderTracker
{
  public:
    void
    onFlit(const Flit &f, Cycle now, NodeId router, Direction port, int vc)
    {
        if (!invariantsEnabled())
            return;
        const bool inOrder =
            isHead(f.type) ? !open_ && f.flitSeq == 0
                           : open_ && f.packetId == packetId_ &&
                                 f.flitSeq == nextSeq_;
        if (!inOrder) [[unlikely]]
            reportDisorder(f, now, router, port, vc);
        // Re-synchronise to the flit just seen so a single violation
        // does not cascade into one report per subsequent flit.
        open_ = !isTail(f.type);
        packetId_ = f.packetId;
        nextSeq_ = static_cast<std::uint16_t>(f.flitSeq + 1);
    }

  private:
    /** Reports each order rule @p f breaks (the cold path of onFlit). */
    void reportDisorder(const Flit &f, Cycle now, NodeId router,
                        Direction port, int vc) const;

    bool open_ = false;            ///< inside a packet (head seen, no tail)
    std::uint64_t packetId_ = 0;
    std::uint16_t nextSeq_ = 0;
};

} // namespace noc::check

/**
 * Checks @p cond when invariants are enabled; @p detailExpr (any
 * expression convertible to std::string) is only evaluated on the
 * failure path.
 */
#define NOC_INVARIANT(cond, kindV, cycleV, routerV, portV, vcV, detailExpr) \
    do {                                                                    \
        if (::noc::check::invariantsEnabled() && !(cond)) {                 \
            ::noc::check::reportViolation(::noc::check::Violation{          \
                (kindV), (cycleV), (routerV), (portV), (vcV),               \
                (detailExpr)});                                             \
        }                                                                   \
    } while (0)

#endif // ROCOSIM_CHECK_INVARIANT_H_
