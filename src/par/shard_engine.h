/**
 * @file
 * The run loop: every simulation runs through it, at any shard count.
 *
 * par::run advances a network cycle by cycle, and each cycle is a body
 * followed by one end-of-cycle step.
 *
 * At one shard the body is Network::step on the calling thread: no
 * worker thread, no barrier, no per-shard list or ledger.
 *
 * At more shards the body is bulk-synchronous. The mesh is cut into
 * row bands (topology/partition.h), each advanced by its own worker
 * thread. Within a cycle every worker generates its own NICs' traffic,
 * then steps its routers phase by phase of the pentachromatic
 * schedule. Routers in one phase are at Manhattan distance >= 3 from
 * each other, so their step footprints — own state, both directions of
 * the attached links, and the neighbour state the RoCo /
 * path-sensitive reserveInputVc handshake touches — are disjoint, and
 * the steps commute.
 *
 * Across phases only steps within distance 2 of each other conflict,
 * and across shards those are boundary steps only. So each phase runs
 * boundary-first: a worker waits until its bordering shards have
 * published (per-shard progress counters, release/acquire) their
 * boundary steps of every earlier phase, steps its own boundary nodes,
 * publishes, then steps its interior nodes with no wait at all. Every
 * conflicting pair of steps stays in schedule order, so the result is
 * bit-identical to Network::step (which runs the identical schedule)
 * for any shard count. Shards are a pure wall-clock knob.
 *
 * The end-of-cycle step runs single-threaded after either body — when
 * sharded, by the last arriver inside the cycle's one barrier, once the
 * per-shard generation counts and flit ledgers are reduced into the
 * network. It is the only copy of the race checker's superstep
 * validation, the periodic occupancy probe and invariant audit, the
 * warm-up/measure/drain decisions (RunControl) and the stop rule, so
 * every shard count makes the same decisions at the same cycles.
 */
#ifndef ROCOSIM_PAR_SHARD_ENGINE_H_
#define ROCOSIM_PAR_SHARD_ENGINE_H_

#include "common/annotations.h"
#include "common/config.h"
#include "sim/network.h"
#include "sim/run_control.h"

namespace noc::par {

/**
 * Shard count a run should use: cfg.shards, else the NOC_SHARDS
 * environment variable, else 1; clamped to [1, @p numNodes]. A
 * NOC_SHARDS that is not a whole number in [1, INT_MAX] is fatal().
 */
int effectiveShards(const SimConfig &cfg, int numNodes);

struct RunOutcome {
    Cycle endCycle = 0;    ///< cycles completed when the run stopped
    bool timedOut = false; ///< the maxCycles cap stopped the run
};

/**
 * Runs @p net's whole warm-up/measure/drain protocol on
 * effectiveShards(net.config(), ...) shards (the calling thread drives
 * shard 0), leaving the network and @p ctl in the same state at every
 * shard count. Feeds the network's race checker, if one is attached.
 * @p obs may be null; when present and the run is sharded it is
 * switched to per-shard lanes for the rest of its lifetime (summaries
 * merge back losslessly).
 */
NOC_PHASE_FN(epilogue)
RunOutcome run(Network &net, obs::Recorder *obs, RunControl &ctl);

} // namespace noc::par

#endif // ROCOSIM_PAR_SHARD_ENGINE_H_
