#include "par/shard_engine.h"

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <vector>

#include "check/invariant.h"
#include "common/annotations.h"
#include "obs/recorder.h"
#include "par/barrier.h"
#include "topology/partition.h"

namespace noc::par {

namespace {

/** Per-shard cycle-local counter, padded against false sharing. */
struct alignas(64) ShardCount {
    std::uint64_t value = 0;
};

/** Per-shard flit ledger, bumped per flit by that shard's routers and
 *  NICs; padded so two shards' counters never share a cache line. */
struct alignas(64) ShardLedger {
    FlitLedger value;
};

/** Everything the workers share; mutable fields are only written in
 *  the single-threaded barrier epilogue, and the barrier's release /
 *  acquire pair publishes them to every worker. */
struct Shared {
    Network &net;
    const SimConfig &cfg;
    const ShardPlan &plan;
    RunControl &ctl;
    obs::Recorder *obs;
    SpinBarrier barrier;
    std::vector<ShardLedger> ledgers;  // one per shard
    std::vector<ShardCount> generated; // this cycle, per shard
    std::vector<ShardCount> stepsExec; // whole run, per shard
    std::vector<ShardCount> stepsSched;
    NOC_EPILOGUE_STATE
    Cycle now = 0;   // cycle the workers are about to run
    NOC_EPILOGUE_STATE
    bool stop = false;
    NOC_EPILOGUE_STATE
    FlitLedger totals; // reduction of ledgers, maintained in epilogue

    Shared(Network &n, const SimConfig &c, const ShardPlan &p,
           RunControl &rc, obs::Recorder *o)
        : net(n), cfg(c), plan(p), ctl(rc), obs(o),
          barrier(p.shards()),
          ledgers(static_cast<std::size_t>(p.shards())),
          generated(static_cast<std::size_t>(p.shards())),
          stepsExec(static_cast<std::size_t>(p.shards())),
          stepsSched(static_cast<std::size_t>(p.shards()))
    {
    }
};

/**
 * End-of-cycle epilogue, run by the last barrier arriver while every
 * other worker is parked: mirrors one trip around the serial loop in
 * Simulator::run (probe cadence included) so the two drivers make
 * identical decisions at identical cycles.
 */
NOC_PHASE_FN(epilogue)
void
epilogue(Shared &sh)
{
#if NOC_RACE_CHECK_BUILT
    // Superstep validation runs here because the epilogue is the one
    // single-threaded window per cycle: every worker's lane writes are
    // published by its barrier arrival (acq_rel on the counter).
    if (par::RaceChecker *race = sh.net.raceChecker())
        race->endCycle(sh.now);
#endif
    std::uint64_t gen = 0;
    for (const ShardCount &g : sh.generated)
        gen += g.value;
    sh.net.addGenerated(gen);

    FlitLedger sum;
    for (const ShardLedger &sl : sh.ledgers) {
        const FlitLedger &l = sl.value;
        sum.created += l.created;
        sum.retired += l.retired;
        sum.flitCycles += l.flitCycles;
        sum.lastDelivery = std::max(sum.lastDelivery, l.lastDelivery);
        for (int c = 0; c < kNumMsgClasses; ++c) {
            sum.createdByClass[c] += l.createdByClass[c];
            sum.retiredByClass[c] += l.retiredByClass[c];
        }
        sum.svcPending += l.svcPending;
    }
    sh.totals = sum;

    Cycle done = sh.now + 1; // cycles completed, == serial's post-step now

    NOC_OBS(if (sh.obs && (done & 255u) == 0)
                sh.obs->samplePathSetOccupancy(sh.net));
#if NOC_INVARIANTS_BUILT
    if ((done & 1023u) == 0 && check::invariantsEnabled())
        sh.net.checkProtocolInvariants(done);
#endif

    bool stop = false;
    if (!sh.ctl.generating()) {
#ifndef NDEBUG
        if ((done & 63u) == 0) {
            bool queued = false;
            for (int i = 0; i < sh.net.numNodes() && !queued; ++i) {
                queued =
                    sh.net.nic(static_cast<NodeId>(i)).queuedFlits() > 0;
            }
            // Flit half of the ledger only: service mode also tracks
            // scheduled-not-yet-injected replies (svcPending), which
            // no network scan can see.
            NOC_ASSERT((sum.created == sum.retired) ==
                           (!queued && sh.net.flitsInFlight() == 0),
                       "shard ledgers out of sync with network scan");
        }
#endif
        stop = sh.ctl.endCycle(done, sum.quiescent(), sum.lastDelivery,
                               sum.svcPending);
    }
    if (!stop && done >= sh.cfg.maxCycles)
        stop = true;

    if (!stop) {
        if (sh.ctl.beginCycle(done, sh.net.traceExhausted(),
                              sh.net.packetsGenerated())) {
            sh.net.resetActivity();
            sh.net.resetContention();
        }
    }
    sh.now = done;
    sh.stop = stop;
}

/** One worker's whole run: shard @p s of the plan. */
NOC_PHASE_FN(engine)
void
work(Shared &sh, int s)
{
    Network &net = sh.net;
    const ShardPlan &plan = sh.plan;
    const bool idleSkip = net.idleSkipEnabled();
    std::uint64_t stepsExec = 0, stepsSched = 0;
#if NOC_RACE_CHECK_BUILT
    // Each shard logs only into its own lane; the barrier publishes
    // the lanes to the epilogue's endCycle validation.
    par::RaceChecker *const race = net.raceChecker();
#endif
    for (;;) {
        // Cycle state is stable between barriers: the epilogue is the
        // only writer and it runs inside the previous barrier.
        Cycle now = sh.now;
        bool generating = sh.ctl.generating();
        bool measuring = sh.ctl.measuring();

        // This shard's sources, through the serial engine's routine.
        sh.generated[static_cast<std::size_t>(s)].value =
            net.generateTraffic(plan.nodes(s), now, generating, measuring);

        // Identical idle-skip decisions to the serial loop: within a
        // phase, only this thread writes a phase-p router's flag (its
        // clear after stepping) — same-phase routers never share a
        // neighbour, and cross-phase wake-ups are ordered by the
        // barriers — so every read sees exactly the serial value.
        for (int ph = 0; ph < kNumStepPhases; ++ph) {
            const std::vector<NodeId> &nodes = plan.phaseNodes(s, ph);
            stepsSched += nodes.size();
            if (idleSkip) {
                for (NodeId n : nodes) {
                    std::atomic<std::uint8_t> &flag = net.activeFlag(n);
                    if (!flag.load(std::memory_order_relaxed))
                        continue;
                    net.router(n).step(now);
                    ++stepsExec;
#if NOC_RACE_CHECK_BUILT
                    if (race)
                        race->noteStep(n, ph, s);
#endif
                    if (!net.router(n).hasLocalWork())
                        flag.store(0, std::memory_order_relaxed);
                }
            } else {
                for (NodeId n : nodes) {
                    net.router(n).step(now);
#if NOC_RACE_CHECK_BUILT
                    if (race)
                        race->noteStep(n, ph, s);
#endif
                }
                stepsExec += nodes.size();
            }
            if (ph + 1 < kNumStepPhases)
                sh.barrier.arriveAndWait();
        }
        sh.barrier.arriveAndWait([&sh] { epilogue(sh); });
        if (sh.stop) {
            sh.stepsExec[static_cast<std::size_t>(s)].value = stepsExec;
            sh.stepsSched[static_cast<std::size_t>(s)].value = stepsSched;
            return;
        }
    }
}

} // namespace

int
effectiveShards(const SimConfig &cfg, int numNodes)
{
    int shards = cfg.shards;
    if (shards == 0) {
        if (const char *v = std::getenv("NOC_SHARDS")) {
            long n = std::strtol(v, nullptr, 10);
            if (n >= 1)
                shards = static_cast<int>(n);
        }
    }
    return std::clamp(shards, 1, numNodes);
}

NOC_PHASE_FN(epilogue)
RunOutcome
runSharded(Network &net, const SimConfig &cfg, int shards,
           obs::Recorder *obs, RunControl &ctl)
{
    ShardPlan plan(cfg.meshWidth, cfg.meshHeight, shards);
    Shared sh(net, cfg, plan, ctl, obs);

#if NOC_RACE_CHECK_BUILT
    // Re-lane the race checker for this shard count (the serial
    // attach sized it for one lane).
    if (par::RaceChecker *race = net.raceChecker())
        race->beginRun(plan.shards());
#endif

    // Per-shard ledgers keep flit-lifecycle counting lock-free; the
    // epilogue reduces them, and the master ledger is restored (with
    // the reduced totals) before returning.
    for (NodeId n = 0; n < static_cast<NodeId>(net.numNodes()); ++n)
        net.bindNodeLedger(n, &sh.ledgers[static_cast<std::size_t>(
                                              plan.shardOf(n))]
                                   .value);
    if (obs != nullptr) {
        std::vector<int> laneOf(static_cast<std::size_t>(net.numNodes()));
        for (NodeId n = 0; n < static_cast<NodeId>(net.numNodes()); ++n)
            laneOf[n] = plan.shardOf(n);
        obs->setShardLanes(plan.shards(), std::move(laneOf));
    }
#if NOC_INVARIANTS_BUILT
    // Warm the lazy env read before the pool shares it.
    check::invariantsEnabled();
#endif

    // Mirror the serial loop's first top-of-cycle bookkeeping (cycle 0
    // flags are decided before any step).
    if (ctl.beginCycle(0, net.traceExhausted(), net.packetsGenerated())) {
        net.resetActivity();
        net.resetContention();
    }

    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(plan.shards() - 1));
    for (int s = 1; s < plan.shards(); ++s)
        workers.emplace_back([&sh, s] { work(sh, s); });
    work(sh, 0);
    for (std::thread &t : workers)
        t.join();

    for (NodeId n = 0; n < static_cast<NodeId>(net.numNodes()); ++n)
        net.bindNodeLedger(n, nullptr);
    net.setLedgerTotals(sh.totals);
    for (int s = 0; s < plan.shards(); ++s)
        net.addRouterSteps(sh.stepsExec[static_cast<std::size_t>(s)].value,
                           sh.stepsSched[static_cast<std::size_t>(s)].value);

    return RunOutcome{sh.now};
}

} // namespace noc::par
