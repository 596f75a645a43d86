/**
 * @file
 * Network: builds and owns the routers, NICs, links, routing and
 * fault state for one mesh, and advances them cycle by cycle.
 */
#ifndef ROCOSIM_SIM_NETWORK_H_
#define ROCOSIM_SIM_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/annotations.h"
#include "common/config.h"
#include "fault/fault.h"
#include "par/race_check.h"
#include "power/energy_model.h"
#include "router/router.h"
#include "routing/routing.h"
#include "sim/nic.h"
#include "traffic/trace.h"
#include "topology/channel.h"
#include "topology/mesh.h"
#include "topology/partition.h"

namespace noc {

class Network
{
  public:
    /**
     * Builds the mesh described by @p cfg with @p faults applied
     * statically at construction (the paper's static fault handling).
     */
    Network(const SimConfig &cfg,
            const std::vector<FaultSpec> &faults = {});
    ~Network();

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    /**
     * Advances one cycle: NICs generate traffic, then the routers step
     * phase by phase of the pentachromatic schedule (ascending id
     * within a phase; see topology/partition.h). Inter-router links
     * never deliver in the cycle they were written, but the RoCo /
     * path-sensitive reserveInputVc handshake acts on the neighbour
     * within the cycle, so the phase structure — not link latency
     * alone — is what makes the step order canonical. It is the run
     * loop's 1-shard body; the sharded body (src/par) runs the
     * identical schedule, which keeps its results bit-identical. The
     * end-of-cycle work (race checker, probes, audits) is the run
     * loop's, not this call's: a caller stepping by hand runs only
     * the cycle. Returns the router steps executed.
     */
    NOC_PHASE_FN(engine)
    std::uint64_t step(Cycle now, bool generationEnabled, bool measured);

    /** One entry of a flat step list: a router and its idle-skip flag. */
    struct StepEntry {
        Router *r;
        std::atomic<std::uint8_t> *flag;
    };
    static_assert(std::is_trivially_copyable_v<StepEntry> &&
                      sizeof(StepEntry) == 2 * sizeof(void *),
                  "StepEntry is every step loop's inner stride; keep it "
                  "two raw pointers, nothing else");

    /** The flat step list of @p nodes, in the given order. */
    NOC_PHASE_FN(setup)
    std::vector<StepEntry> stepList(std::span<const NodeId> nodes);

    /**
     * Steps the routers of @p list in order for cycle @p now: the one
     * idle-skip step routine of every shard count (step() per phase,
     * a shard worker per phase and window). With idle-skip on, a router
     * whose flag is clear is skipped and a router left without local
     * work has its flag cleared. @p phase, @p shard and @p interior
     * only label the steps for the race checker, when one is
     * attached. Returns the steps executed.
     */
    NOC_PHASE_FN(engine)
    std::uint64_t stepRouters(std::span<const StepEntry> list, Cycle now,
                              int phase, int shard, bool interior);

    /**
     * Runs the traffic sources of @p nodes for cycle @p now and returns
     * the packets they generated: the one generation routine of every
     * shard count (step() over every node, a shard worker over its
     * shard's nodes). Bernoulli sources are swept through their
     * injection lanes: an open-loop NIC is called only when its draw
     * fires, a service NIC only when its draw fires or its lane's
     * deadline is due. Trace replay and non-Bernoulli processes call
     * each NIC's generate(). Either way every source draws the same
     * stream as a per-node Nic::generate loop.
     */
    NOC_PHASE_FN(inject)
    std::uint64_t generateTraffic(std::span<const NodeId> nodes, Cycle now,
                                  bool generationEnabled, bool measured);

    const MeshTopology &topology() const { return topo_; }
    const SimConfig &config() const { return cfg_; }

    Router &router(NodeId n) { return *routers_[n]; }
    const Router &router(NodeId n) const { return *routers_[n]; }
    Nic &nic(NodeId n) { return *nics_[n]; }
    const Nic &nic(NodeId n) const { return *nics_[n]; }
    int numNodes() const { return topo_.numNodes(); }

    /**
     * Whether the idle-skip fast path is active (cfg.idleSkip, or the
     * NOC_IDLE_SKIP environment override read at construction).
     */
    bool idleSkipEnabled() const { return idleSkip_; }

    /**
     * Node @p n's active flag. Set by anyone routing an event toward
     * the node (neighbour sends, local injection); cleared by the
     * engine after a step leaves the router with no local work. The
     * sharded engine reads/writes these same flags — relaxed atomics
     * suffice because every cross-thread edge is ordered by the
     * engine's release/acquire progress hand-off between boundary
     * steps; the flags only carry "wake up later", never data.
     */
    std::atomic<std::uint8_t> &activeFlag(NodeId n) { return active_[n]; }

    /**
     * Attaches the shard-ownership race checker (null detaches); the
     * run loop feeds it every executed step (see par/race_check.h).
     */
    void setRaceChecker(par::RaceChecker *rc) { race_ = rc; }
    par::RaceChecker *raceChecker() const { return race_; }

    /** Router steps actually executed (the skipped remainder of
     *  cycles * nodes is the idle-skip win). */
    std::uint64_t routerStepsExecuted() const { return stepsExecuted_; }
    /** Router step opportunities seen by the engine. */
    std::uint64_t routerStepsScheduled() const { return stepsScheduled_; }
    /** Whole cycles the run loop fast-forwarded (see skipCycles). */
    Cycle cyclesSkipped() const { return cyclesSkipped_; }

    /**
     * The earliest cycle at which some NIC has work of its own due (a
     * reply to pump, an MSHR to expire), or kNever. Read between
     * cycles.
     */
    Cycle nextDue() const;

    /**
     * Counts @p n cycles the run loop skipped because nothing could act
     * in them: every node's step was scheduled and none executed.
     */
    NOC_PHASE_FN(epilogue)
    void
    skipCycles(Cycle n)
    {
        stepsScheduled_ += n * static_cast<Cycle>(numNodes());
        cyclesSkipped_ += n;
    }
    /** Folds the shard workers' step counts in (sharded runs); the
     *  skip decisions are bit-identical to step()'s, so the reduced
     *  totals match a 1-shard run's. */
    NOC_PHASE_FN(epilogue)
    void addRouterSteps(std::uint64_t executed, std::uint64_t scheduled)
    {
        stepsExecuted_ += executed;
        stepsScheduled_ += scheduled;
    }

    /** Base-1 generation counter: 1 + packets generated so far. */
    std::uint64_t packetsGenerated() const { return generatedBase1_; }

    /** Folds externally-counted generated packets in (sharded runs). */
    NOC_PHASE_FN(epilogue)
    void addGenerated(std::uint64_t n) { generatedBase1_ += n; }

    /** Trace traffic: true once every node's schedule has replayed. */
    bool traceExhausted() const;

    /** Flits anywhere in the network (buffers + links), excluding
     *  source queues; zero means fully drained. Full network walk —
     *  use quiescent() for the O(1) drain check. */
    int flitsInFlight() const;

    /**
     * O(1) drain check: true when every flit ever created has been
     * delivered or discarded (no flit in a source queue, router buffer
     * or link). Maintained incrementally by the NICs and routers.
     */
    bool quiescent() const { return ledger_.quiescent(); }

    /** The incremental flit lifecycle counters behind quiescent(). */
    const FlitLedger &ledger() const { return ledger_; }

    /**
     * Rebinds node @p n's router and NIC to ledger @p l (the sharded
     * engine gives every shard its own ledger so retirement counting
     * stays lock-free); null restores the network's master ledger.
     */
    void bindNodeLedger(NodeId n, FlitLedger *l);

    /** Overwrites the master ledger with the reduced shard totals
     *  (each cycle of a sharded run, before the end-of-cycle step). */
    NOC_PHASE_FN(epilogue)
    void setLedgerTotals(const FlitLedger &l) { ledger_ = l; }

    /**
     * Attaches @p obs to every router and NIC (null detaches); their
     * flit-event hooks feed it (see obs/obs.h).
     */
    void setObserver(obs::Recorder *obs);

    /** Sums of per-node statistics. */
    std::uint64_t totalInjected() const;
    std::uint64_t totalInjectedMeasured() const;
    std::uint64_t totalDelivered() const;
    std::uint64_t totalDeliveredMeasured() const;
    /** Every delivery bumps the ledger, so its high-water mark is the
     *  max over the NICs without the O(nodes) walk (read per cycle). */
    Cycle lastDeliveryCycle() const { return ledger_.lastDelivery; }

    /** Aggregated router activity for the energy model. */
    ActivityCounters totalActivity() const;
    void resetActivity();
    void resetContention();

    /** Network-wide SA contention ratios (Figure 3). */
    RatioStat rowContention() const;
    RatioStat colContention() const;

    /**
     * Sweeps the protocol invariants that need a network-wide view
     * (src/check/invariant.h): per-link credit conservation, flit
     * conservation against the ledger, the Table 3 fault-state
     * consistency rules, and each router's stage masks and idle-skip
     * work counter. Call between cycles — the conservation equations
     * are exact only when no router is mid-step. No-op when invariants
     * are disabled (NOC_INVARIANT=0).
     */
    void checkProtocolInvariants(Cycle now) const;

  private:
    NOC_PHASE_FN(setup) void build(const std::vector<FaultSpec> &faults);

    SimConfig cfg_;
    MeshTopology topo_;
    std::unique_ptr<RoutingAlgorithm> routing_;
    std::unique_ptr<FaultMap> faults_;
    /**
     * Every flit link's arrival-slot ring, back to back: two links per
     * mesh edge, SlotClock(hopDelay).slots() flits each. Sized once, so
     * the ring pointers handed to routers stay valid.
     */
    std::vector<Flit> linkSlots_;
    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<Nic>> nics_;
    /** Every node's injection lane, indexed by id (see InjectionLane). */
    NOC_OWNED_STATE(inject)
    std::unique_ptr<InjectionLane[]> lanes_;
    /** How generateTraffic drives the NICs: their common Nic::drive(),
     *  or PerNode when they differ. */
    Nic::Drive drive_ = Nic::Drive::PerNode;
    /** Node ids 0 .. n-1: the generation list of step(). */
    std::vector<NodeId> allNodes_;
    std::unique_ptr<TraceSchedule> trace_;
    NOC_OWNED_STATE(engine, epilogue)
    std::uint64_t generatedBase1_ = 1;
    FlitLedger ledger_;
    /**
     * Per-node idle-skip flags (see activeFlag()). Cross-shard by
     * design, so they must stay lock-free atomics: the relaxed
     * set/clear protocol only carries "wake up later", never data, and
     * a lock here would serialise every sender.
     */
    std::unique_ptr<std::atomic<std::uint8_t>[]> active_;
    static_assert(std::atomic<std::uint8_t>::is_always_lock_free,
                  "idle-skip wake flags are stored by neighbouring "
                  "shards mid-phase; a locking fallback would deadlock "
                  "the spin waits' forward-progress assumption");
    bool idleSkip_ = true;
    NOC_OWNED_STATE(engine, epilogue)
    std::uint64_t stepsExecuted_ = 0;
    NOC_OWNED_STATE(engine, epilogue)
    std::uint64_t stepsScheduled_ = 0;
    NOC_OWNED_STATE(epilogue)
    Cycle cyclesSkipped_ = 0;
    /** Shard-ownership race checker, when attached (see race_check.h). */
    par::RaceChecker *race_ = nullptr;
    /**
     * step()'s list, the 1-shard body's: every node in schedule order
     * (phase, then ascending id), phase p at phaseOfs_[p] ..
     * phaseOfs_[p+1].
     */
    std::vector<StepEntry> flatPhases_;
    std::uint32_t phaseOfs_[kNumStepPhases + 1] = {};
};

// Inline so step() keeps its per-phase loop in one function.
inline std::uint64_t
Network::stepRouters(std::span<const StepEntry> list, Cycle now, int phase,
                     int shard, bool interior)
{
    par::RaceChecker *const race = race_;
    if (!idleSkip_) {
        for (const StepEntry &e : list) {
            e.r->step(now);
            if (race)
                race->noteStep(e.r->id(), phase, shard, interior);
        }
        return list.size();
    }
    std::uint64_t executed = 0;
    for (const StepEntry &e : list) {
        if (!e.flag->load(std::memory_order_relaxed))
            continue; // provably a no-op (see DESIGN 12)
        e.r->step(now);
        ++executed;
        if (race)
            race->noteStep(e.r->id(), phase, shard, interior);
        if (!e.r->hasLocalWork())
            e.flag->store(0, std::memory_order_relaxed);
    }
    return executed;
}

/** Instantiates the router microarchitecture selected by @p cfg. */
std::unique_ptr<Router>
makeRouter(NodeId id, const SimConfig &cfg, const MeshTopology &topo,
           const RoutingAlgorithm &routing, const FaultMap *faults);

} // namespace noc

#endif // ROCOSIM_SIM_NETWORK_H_
