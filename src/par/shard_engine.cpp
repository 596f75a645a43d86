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

/**
 * A shard's progress through the cycle: after stepping the boundary
 * nodes of phase p in cycle c its worker stores c * kNumStepPhases +
 * p + 1 (release); a bordering worker acquires it before stepping its
 * own boundary nodes of a later phase. Monotonic over the run, and
 * padded so each worker spins on its own line.
 */
struct alignas(64) ShardProgress {
    NOC_SHARED_ATOMIC(engine)
    std::atomic<std::uint64_t> published{0};
};

/** One shard's flat step lists: boundary and interior nodes of each
 *  phase (see ShardPlan), built once per run. */
struct ShardSteps {
    std::vector<Network::StepEntry> boundary[kNumStepPhases];
    std::vector<Network::StepEntry> interior[kNumStepPhases];
};

/** Everything the workers share. Each per-shard slot is written only
 *  by its own worker; the other mutable fields only in the
 *  single-threaded barrier epilogue, and the barrier's release /
 *  acquire pair publishes them to every worker. */
struct Shared {
    Network &net;
    const SimConfig &cfg;
    const ShardPlan &plan;
    RunControl &ctl;
    obs::Recorder *obs;
    SpinBarrier barrier;
    const bool spin; // waitUntil's rule for this pool (see barrier.h)
    std::vector<ShardSteps> steps;        // one per shard
    std::vector<ShardProgress> progress;  // one per shard
    std::vector<ShardLedger> ledgers;     // one per shard
    std::vector<ShardCount> generated;    // this cycle, per shard
    std::vector<ShardCount> stepsExec;    // whole run, per shard
    NOC_EPILOGUE_STATE
    Cycle now = 0;   // cycle the workers are about to run
    NOC_EPILOGUE_STATE
    bool stop = false;
    NOC_EPILOGUE_STATE
    FlitLedger totals; // reduction of ledgers, maintained in epilogue

    Shared(Network &n, const SimConfig &c, const ShardPlan &p,
           RunControl &rc, obs::Recorder *o)
        : net(n), cfg(c), plan(p), ctl(rc), obs(o),
          barrier(p.shards()), spin(spinFriendly(p.shards())),
          steps(static_cast<std::size_t>(p.shards())),
          progress(static_cast<std::size_t>(p.shards())),
          ledgers(static_cast<std::size_t>(p.shards())),
          generated(static_cast<std::size_t>(p.shards())),
          stepsExec(static_cast<std::size_t>(p.shards()))
    {
        for (int s = 0; s < p.shards(); ++s) {
            ShardSteps &st = steps[static_cast<std::size_t>(s)];
            for (int ph = 0; ph < kNumStepPhases; ++ph) {
                st.boundary[ph] = n.stepList(p.boundaryNodes(s, ph));
                st.interior[ph] = n.stepList(p.interiorNodes(s, ph));
            }
        }
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

/**
 * One worker's whole run: shard @p s of the plan.
 *
 * Each phase steps the shard's boundary nodes, publishes that on the
 * shard's progress counter, then steps its interior nodes. Cross-shard
 * step conflicts (distance <= 2) exist only between boundary nodes, so
 * waiting for the bordering shards' boundary steps of all earlier
 * phases keeps every conflicting pair in schedule order; interior
 * footprints never meet another shard's, so interior steps need no
 * ordering against other shards at all. The one barrier per cycle runs
 * the epilogue.
 */
NOC_PHASE_FN(engine)
void
work(Shared &sh, int s)
{
    Network &net = sh.net;
    const ShardPlan &plan = sh.plan;
    const ShardSteps &steps = sh.steps[static_cast<std::size_t>(s)];
    const std::vector<int> &border = plan.borderShards(s);
    std::atomic<std::uint64_t> &mine =
        sh.progress[static_cast<std::size_t>(s)].published;
    std::uint64_t stepsExec = 0;
    for (;;) {
        // Cycle state is stable between barriers: the epilogue is the
        // only writer and it runs inside the previous barrier.
        Cycle now = sh.now;
        bool generating = sh.ctl.generating();
        bool measuring = sh.ctl.measuring();

        // This shard's sources, through the serial engine's routine.
        sh.generated[static_cast<std::size_t>(s)].value =
            net.generateTraffic(plan.nodes(s), now, generating, measuring);

        // Identical idle-skip decisions to the serial loop: only this
        // thread clears its routers' flags, and every neighbour that
        // may set one is ordered against the clear by the schedule
        // (same shard: program order; another shard: the progress
        // hand-off below), so every read sees exactly the serial value.
        const std::uint64_t base = now * kNumStepPhases;
        for (int ph = 0; ph < kNumStepPhases; ++ph) {
            if (!steps.boundary[ph].empty()) {
                // Phase ph's boundary steps follow every bordering
                // shard's boundary steps of phases < ph (for phase 0
                // the last cycle's barrier already ordered them).
                const std::uint64_t want =
                    base + static_cast<std::uint64_t>(ph);
                for (int t : border) {
                    const std::atomic<std::uint64_t> &theirs =
                        sh.progress[static_cast<std::size_t>(t)].published;
                    waitUntil(sh.spin, [&] {
                        return theirs.load(std::memory_order_acquire) >= want;
                    });
                }
                stepsExec +=
                    net.stepRouters(steps.boundary[ph], now, ph, s, false);
            }
            mine.store(base + static_cast<std::uint64_t>(ph) + 1,
                       std::memory_order_release);
            stepsExec += net.stepRouters(steps.interior[ph], now, ph, s, true);
        }
        sh.barrier.arriveAndWait([&sh] { epilogue(sh); });
        if (sh.stop) {
            sh.stepsExec[static_cast<std::size_t>(s)].value = stepsExec;
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
    std::uint64_t executed = 0;
    for (const ShardCount &c : sh.stepsExec)
        executed += c.value;
    // Every node is scheduled once per cycle, as in the serial loop.
    net.addRouterSteps(executed, static_cast<std::uint64_t>(sh.now) *
                                     static_cast<std::uint64_t>(
                                         net.numNodes()));

    return RunOutcome{sh.now};
}

} // namespace noc::par
