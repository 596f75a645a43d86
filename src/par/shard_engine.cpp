#include "par/shard_engine.h"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "check/invariant.h"
#include "common/annotations.h"
#include "common/log.h"
#include "obs/recorder.h"
#include "par/barrier.h"
#include "topology/partition.h"

namespace noc::par {

namespace {

/** Every completed-cycle count that is a multiple of this gets the
 *  occupancy probe sample. */
constexpr Cycle kProbePeriod = 256;
/** ...and of this, the network-wide protocol audit. */
constexpr Cycle kAuditPeriod = 1024;
static_assert(kAuditPeriod % kProbePeriod == 0,
              "a fast-forward stops at every probe cycle, so every audit "
              "cycle must be one");

/** What the end-of-cycle step reads and decides, at any shard count. */
struct Loop {
    Network &net;
    RunControl &ctl;
    obs::Recorder *obs;
    NOC_EPILOGUE_STATE
    Cycle now = 0; // cycle the body is about to run
    NOC_EPILOGUE_STATE
    bool stop = false;
    NOC_EPILOGUE_STATE
    bool hitCap = false; // the maxCycles cap, not RunControl, stopped it
};

/**
 * Top-of-cycle bookkeeping for cycle l.now: RunControl's phase flags,
 * and the probe reset when the measurement window opens.
 */
NOC_PHASE_FN(epilogue)
void
startCycle(Loop &l)
{
    if (l.ctl.beginCycle(l.now, l.net.traceExhausted(),
                         l.net.packetsGenerated())) {
        l.net.resetActivity();
        l.net.resetContention();
    }
}

/**
 * Fast-forwards a frozen network from cycle l.now, the next to run.
 * The caller has seen a cycle with generation off in which no router
 * step executed, so every wake flag is clear and only a NIC deadline
 * can act again: until then each cycle's body does nothing and its
 * end-of-cycle step only counts. The jump lands on the first cycle
 * that may do more: a NIC deadline, the cycle whose end fires the stop
 * rule or the cap, or the next cycle ending on a probe period, so
 * every probe sample and audit still runs on its cycle.
 */
NOC_PHASE_FN(epilogue)
void
fastForward(Loop &l)
{
    Network &net = l.net;
    // endCycle just said no for l.now completed cycles, so the stop
    // rule fires at a count above l.now, and the cap above it too.
    const Cycle stopAt = l.ctl.stopsAt(net.quiescent(),
                                       net.lastDeliveryCycle(),
                                       net.ledger().svcPending);
    const Cycle next =
        std::min({net.nextDue(), stopAt - 1, net.config().maxCycles - 1,
                  l.now | (kProbePeriod - 1)});
    if (next <= l.now)
        return;
    const Cycle skipped = next - l.now;
    net.skipCycles(skipped);
    if (RaceChecker *race = net.raceChecker())
        race->skipCycles(skipped);
    l.now = next;
}

/**
 * End of cycle l.now, the one copy for every shard count. Runs
 * single-threaded after the cycle's body: inline at one shard, inside
 * the barrier after the ledger reduction when sharded. @p stepped is
 * the router steps the body executed.
 */
NOC_PHASE_FN(epilogue)
void
endOfCycle(Loop &l, std::uint64_t stepped)
{
    Network &net = l.net;
    // Superstep validation: every step of the cycle has logged its
    // footprint, and no step runs again until this returns.
    if (RaceChecker *race = net.raceChecker())
        race->endCycle(l.now);
    const Cycle done = l.now + 1; // cycles completed

    // Coarse path-set occupancy probe; the period keeps its cost
    // negligible against the per-cycle work.
    if (l.obs && done % kProbePeriod == 0)
        l.obs->samplePathSetOccupancy(net);

    // The stop rule: RunControl's (drained, or blocked past the idle
    // window) before the cycle cap, so that a run draining on its last
    // allowed cycle is not a timeout.
    const bool drained =
        l.ctl.endCycle(done, net.quiescent(), net.lastDeliveryCycle(),
                       net.ledger().svcPending);
    const bool capped = !drained && done >= net.config().maxCycles;

    // Network-wide protocol audit (credit and flit conservation,
    // fault-state consistency, stage masks): periodic, and once more
    // on the run's last cycle.
    if ((done % kAuditPeriod == 0 || drained || capped) &&
        check::invariantsEnabled())
        net.checkProtocolInvariants(done);

    l.now = done;
    l.stop = drained || capped;
    l.hitCap = capped;
    if (l.stop)
        return;
    if (stepped == 0 && !l.ctl.generating())
        fastForward(l);
    startCycle(l);
}

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
 * nodes of phase p in the k-th cycle it executes (from 0), its worker
 * stores k * kNumStepPhases + p + 1 (release); a bordering worker
 * acquires it before stepping its own boundary nodes of a later phase.
 * k counts executed cycles, not the cycle number, so a fast-forward
 * leaves no gap. Monotonic over the run, and padded so each worker
 * spins on its own line.
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
 *  by its own worker; the loop state only in the single-threaded
 *  barrier epilogue, and the barrier's release / acquire pair
 *  publishes it to every worker. */
struct Shared {
    Loop &loop;
    const ShardPlan &plan;
    SpinBarrier barrier;
    const bool spin; // waitUntil's rule for this pool (see barrier.h)
    std::vector<ShardSteps> steps;        // one per shard
    std::vector<ShardProgress> progress;  // one per shard
    std::vector<ShardLedger> ledgers;     // one per shard
    std::vector<ShardCount> generated;    // this cycle, per shard
    std::vector<ShardCount> stepped;      // this cycle, per shard

    Shared(Loop &l, const ShardPlan &p)
        : loop(l), plan(p), barrier(p.shards()),
          spin(spinFriendly(p.shards())),
          steps(static_cast<std::size_t>(p.shards())),
          progress(static_cast<std::size_t>(p.shards())),
          ledgers(static_cast<std::size_t>(p.shards())),
          generated(static_cast<std::size_t>(p.shards())),
          stepped(static_cast<std::size_t>(p.shards()))
    {
        for (int s = 0; s < p.shards(); ++s) {
            ShardSteps &st = steps[static_cast<std::size_t>(s)];
            for (int ph = 0; ph < kNumStepPhases; ++ph) {
                st.boundary[ph] = l.net.stepList(p.boundaryNodes(s, ph));
                st.interior[ph] = l.net.stepList(p.interiorNodes(s, ph));
            }
        }
    }
};

/**
 * The barrier epilogue, run by the last arriver while every other
 * worker is parked: folds the shards' generation and step counts and
 * flit ledgers into the network, then runs the end-of-cycle step.
 */
NOC_PHASE_FN(epilogue)
void
epilogue(Shared &sh)
{
    Network &net = sh.loop.net;
    std::uint64_t gen = 0;
    for (const ShardCount &g : sh.generated)
        gen += g.value;
    net.addGenerated(gen);
    std::uint64_t stepped = 0;
    for (const ShardCount &c : sh.stepped)
        stepped += c.value;
    // Every node is scheduled once per cycle, as in Network::step.
    net.addRouterSteps(stepped,
                       static_cast<std::uint64_t>(net.numNodes()));

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
    net.setLedgerTotals(sum);

    endOfCycle(sh.loop, stepped);
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
    Network &net = sh.loop.net;
    const ShardPlan &plan = sh.plan;
    const ShardSteps &steps = sh.steps[static_cast<std::size_t>(s)];
    const std::vector<int> &border = plan.borderShards(s);
    std::atomic<std::uint64_t> &mine =
        sh.progress[static_cast<std::size_t>(s)].published;
    // Phases every worker completed in the cycles executed before this
    // one (see ShardProgress).
    std::uint64_t base = 0;
    for (;;) {
        // Cycle state is stable between barriers: the epilogue is the
        // only writer and it runs inside the previous barrier.
        Cycle now = sh.loop.now;
        bool generating = sh.loop.ctl.generating();
        bool measuring = sh.loop.ctl.measuring();

        // This shard's sources, through Network::step's routine.
        sh.generated[static_cast<std::size_t>(s)].value =
            net.generateTraffic(plan.nodes(s), now, generating, measuring);

        // Identical idle-skip decisions to Network::step: only this
        // thread clears its routers' flags, and every neighbour that
        // may set one is ordered against the clear by the schedule
        // (same shard: program order; another shard: the progress
        // hand-off below), so every read sees exactly the 1-shard value.
        std::uint64_t stepped = 0;
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
                stepped +=
                    net.stepRouters(steps.boundary[ph], now, ph, s, false);
            }
            mine.store(base + static_cast<std::uint64_t>(ph) + 1,
                       std::memory_order_release);
            stepped += net.stepRouters(steps.interior[ph], now, ph, s, true);
        }
        sh.stepped[static_cast<std::size_t>(s)].value = stepped;
        base += kNumStepPhases;
        sh.barrier.arriveAndWait([&sh] { epilogue(sh); });
        if (sh.loop.stop)
            return;
    }
}

/** The sharded body: @p shards workers until the loop stops. */
NOC_PHASE_FN(epilogue)
void
runShards(Loop &loop, int shards)
{
    Network &net = loop.net;
    ShardPlan plan(net.config().meshWidth, net.config().meshHeight, shards);
    Shared sh(loop, plan);

    // Per-shard ledgers keep flit-lifecycle counting lock-free; the
    // epilogue reduces them into the master ledger, which every node
    // is bound back to before returning.
    for (NodeId n = 0; n < static_cast<NodeId>(net.numNodes()); ++n)
        net.bindNodeLedger(n, &sh.ledgers[static_cast<std::size_t>(
                                              plan.shardOf(n))]
                                   .value);
    if (loop.obs != nullptr) {
        std::vector<int> laneOf(static_cast<std::size_t>(net.numNodes()));
        for (NodeId n = 0; n < static_cast<NodeId>(net.numNodes()); ++n)
            laneOf[n] = plan.shardOf(n);
        loop.obs->setShardLanes(plan.shards(), std::move(laneOf));
    }
    // Warm the lazy env read before the pool shares it.
    check::invariantsEnabled();

    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(plan.shards() - 1));
    for (int s = 1; s < plan.shards(); ++s)
        workers.emplace_back([&sh, s] { work(sh, s); });
    work(sh, 0);
    for (std::thread &t : workers)
        t.join();

    for (NodeId n = 0; n < static_cast<NodeId>(net.numNodes()); ++n)
        net.bindNodeLedger(n, nullptr);
}

} // namespace

int
effectiveShards(const SimConfig &cfg, int numNodes)
{
    int shards = cfg.shards;
    if (shards == 0) {
        shards = 1;
        if (const char *v = std::getenv("NOC_SHARDS")) {
            std::optional<int> n = parseNumber<int>(v);
            if (!n || *n < 1) {
                fatal(("NOC_SHARDS='" + std::string(v) +
                       "' is not a whole number in [1, INT_MAX]")
                          .c_str());
            }
            shards = *n;
        }
    }
    return std::clamp(shards, 1, numNodes);
}

NOC_PHASE_FN(epilogue)
RunOutcome
run(Network &net, obs::Recorder *obs, RunControl &ctl)
{
    const int shards = effectiveShards(net.config(), net.numNodes());
    RaceChecker *const race = net.raceChecker();
    if (race)
        race->beginRun(shards);

    Loop loop{net, ctl, obs};
    startCycle(loop); // cycle 0; endOfCycle starts every later one
    if (shards == 1) {
        do {
            const std::uint64_t stepped =
                net.step(loop.now, ctl.generating(), ctl.measuring());
            endOfCycle(loop, stepped);
        } while (!loop.stop);
    } else {
        runShards(loop, shards);
    }

    // A fail-fast checker aborts inside endCycle on its first finding;
    // a passive one keeps its findings for the caller to inspect.
    if (race && race->failFast())
        NOC_ASSERT(race->findingsTotal() == 0,
                   "NOC_RACE_CHECK findings escaped the per-cycle gate");
    return RunOutcome{loop.now, loop.hitCap};
}

} // namespace noc::par
