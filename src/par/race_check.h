/**
 * @file
 * Deterministic BSP-aware race checker for the shard schedule
 * (DESIGN section 14).
 *
 * The sharded engine is data-race-free only because the pentachromatic
 * step schedule (topology/partition.h) guarantees that two routers
 * stepped in the same phase have disjoint footprints: a step touches
 * the router's own state, plus each existing neighbour's
 * reserveInputVc book-keeping, occupancy mirrors and wake flag. TSan
 * can observe a violation only when two threads actually collide on
 * the same run; this checker validates the *schedule invariant* itself
 * — it logs an (object-id, phase, shard, cycle) access record for
 * every footprint element of every executed step and, after each
 * superstep, asserts that every conflicting pair is either
 * same-shard-sequenced on one actor or a sanctioned commuting atomic.
 * That catches a broken colouring even in a single-threaded run, where
 * TSan structurally cannot.
 *
 * The engine also steps each shard's *interior* nodes without waiting
 * for any other shard (see topology/partition.h). That is sound only
 * if no object an interior step touches is touched by another shard
 * in the same cycle, in any phase; each record carries the window its
 * step ran in, and endCycle checks that rule too.
 *
 * The checker and the run-loop hooks that feed it are compiled into
 * every build; a hook logs only while a checker is attached to the
 * Network. Simulator::run attaches a fail-fast one when the
 * NOC_RACE_CHECK env var is 1 (default 0); tests attach passive ones.
 */
#ifndef ROCOSIM_PAR_RACE_CHECK_H_
#define ROCOSIM_PAR_RACE_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/types.h"

// Always 1: the hooks are always built. The constant stays because
// rocobench records it in every result header.
#define NOC_RACE_CHECK_BUILT 1

namespace noc::par {

/** What a footprint element is, which decides how accesses commute. */
enum class AccessClass : std::uint8_t {
    Owned,   ///< the stepped router's private pipeline state
    Reserve, ///< a neighbour's input-VC reservation (reserveInputVc)
    Mirror,  ///< a neighbour's slot words (pendFlitIn_ / pendCreditIn_)
    Wake,    ///< a neighbour's idle-skip wake flag (commuting store)
};

/** One logged access to owned/shared state within a superstep. */
struct AccessRecord {
    std::int32_t object = 0;  ///< stable object id (see objectName())
    NodeId actor = 0;         ///< router whose step made the access
    std::uint8_t phase = 0;   ///< schedule phase the step ran in
    AccessClass cls = AccessClass::Owned;
    std::uint16_t shard = 0;  ///< shard the access executed on
    bool atomicOp = true;     ///< false models a non-atomic access
    bool interior = false;    ///< the step ran in the interior window
};

class RaceChecker
{
  public:
    /** Checks a @p width x @p height mesh. */
    RaceChecker(int width, int height);

    /** Sizes the per-shard record lanes; call before the first cycle
     *  (par::run does, with the run's shard count). */
    void beginRun(int shards);

    /**
     * Logs the full footprint of one executed router step: the
     * router's own state, plus reservation/mirror/wake records for
     * every existing neighbour. @p interior says the step ran in its
     * shard's interior window (unordered against other shards).
     * Thread-safe as long as each shard only logs into its own lane —
     * exactly the engine's discipline.
     */
    void noteStep(NodeId n, int phase, int shard, bool interior = false);

    /** Logs one raw record (fixture tests and custom engine hooks). */
    void noteAccess(const AccessRecord &rec, int shard);

    /**
     * End of superstep @p now: merges the lanes, validates that every
     * same-(object, phase) pair of records from distinct actors is a
     * commuting wake-flag store, that every mirror access was atomic,
     * and that no object an interior-window step touched was touched
     * by another shard in any phase of the cycle. Must run
     * single-threaded: the run loop calls it from its end-of-cycle
     * step (par/shard_engine.h), inside the barrier when sharded.
     * Clears the lanes for the next cycle.
     */
    NOC_PHASE_FN(epilogue)
    void endCycle(Cycle now);

    /**
     * Counts @p n supersteps the run loop fast-forwarded: no step ran
     * in them, so each is empty and checked. Single-threaded, like
     * endCycle.
     */
    NOC_PHASE_FN(epilogue)
    void skipCycles(Cycle n);

    /** When set, endCycle prints and aborts on the first finding
     *  instead of accumulating (the env-created checker's mode). */
    void setFailFast(bool on) { failFast_ = on; }
    bool failFast() const { return failFast_; }

    /** Accumulated findings, in deterministic order (capped; see
     *  findingsTotal() for the uncapped count). */
    const std::vector<std::string> &findings() const { return findings_; }
    std::uint64_t findingsTotal() const { return findingsTotal_; }

    std::uint64_t recordsLogged() const { return recordsLogged_; }
    std::uint64_t cyclesChecked() const { return cyclesChecked_; }

    /** NOC_RACE_CHECK env gate: 1 enables, 0 (the default) disables;
     *  any other value is fatal. */
    static bool enabledFromEnv();

    /** Human name of an object id ("router 7's private state", ...). */
    std::string objectName(std::int32_t object) const;

  private:
    static constexpr std::size_t kMaxFindings = 64;

    void addFinding(std::string msg);

    int width_;
    int height_;
    int numNodes_;
    bool failFast_ = false;
    std::vector<std::vector<AccessRecord>> lanes_;
    std::vector<AccessRecord> merged_; ///< endCycle scratch
    std::vector<std::string> findings_;
    std::uint64_t findingsTotal_ = 0;
    std::uint64_t recordsLogged_ = 0;
    std::uint64_t cyclesChecked_ = 0;
};

} // namespace noc::par

#endif // ROCOSIM_PAR_RACE_CHECK_H_
