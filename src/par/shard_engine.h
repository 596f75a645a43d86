/**
 * @file
 * Deterministic bulk-synchronous sharded execution engine.
 *
 * Cuts the mesh into row bands (topology/partition.h) and advances
 * each band on its own worker thread. Within a cycle every worker
 * generates its own NICs' traffic, then steps its routers phase by
 * phase of the pentachromatic schedule. Routers in one phase are at
 * Manhattan distance >= 3 from each other, so their step footprints —
 * own state, both directions of the attached links, and the
 * neighbour state the RoCo / path-sensitive reserveInputVc handshake
 * touches — are disjoint, and the steps commute.
 *
 * Across phases only steps within distance 2 of each other conflict,
 * and across shards those are boundary steps only. So each phase runs
 * boundary-first: a worker waits until its bordering shards have
 * published (per-shard progress counters, release/acquire) their
 * boundary steps of every earlier phase, steps its own boundary nodes,
 * publishes, then steps its interior nodes with no wait at all. Every
 * conflicting pair of steps stays in schedule order, so the result is
 * bit-identical to the serial loop (which runs the identical schedule)
 * for any shard count. Shards are a pure wall-clock knob.
 *
 * The last arriver at the cycle's one barrier runs the epilogue
 * single-threaded: reduces the per-shard generation counts and flit
 * ledgers, runs the periodic observability / invariant probes, and
 * makes the warm-up/measure/drain decisions through the same
 * RunControl the serial loop uses.
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
 * environment variable, else 1; clamped to [1, @p numNodes].
 */
int effectiveShards(const SimConfig &cfg, int numNodes);

struct RunOutcome {
    Cycle endCycle = 0; ///< cycles completed when the run stopped
};

/**
 * Runs @p net's whole warm-up/measure/drain protocol on @p shards
 * worker threads (the calling thread drives shard 0), leaving the
 * network and @p ctl in exactly the state the serial loop would.
 * @p obs may be null; when present it is switched to per-shard lanes
 * for the rest of its lifetime (summaries merge back losslessly).
 */
NOC_PHASE_FN(epilogue)
RunOutcome runSharded(Network &net, const SimConfig &cfg, int shards,
                      obs::Recorder *obs, RunControl &ctl);

} // namespace noc::par

#endif // ROCOSIM_PAR_SHARD_ENGINE_H_
