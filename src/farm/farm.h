/**
 * @file
 * Multi-process sweep farm driver.
 *
 * runFarm() expands a sweep spec, opens (or resumes) its journal and
 * forks N worker processes. Workers lease pending jobs straight off
 * the journal (work stealing over the filesystem — no coordinator
 * pipe, no shared memory), run them through exp::runSweepPoint and
 * commit result shards atomically. kill -9 of any worker loses at
 * most that worker's leased points: the survivors steal the dead
 * holder's leases immediately (dead-pid detection), and a later
 * `noc_farm --resume` against the same journal completes whatever is
 * left. Because every job is a pure function of config + seed, each
 * shard stores its result as exp::resultJson text and the aggregator
 * copies that text unchanged into canonical schema-4 json, the final
 * BENCH file is byte-identical no matter how many times the sweep was
 * interrupted or how many processes ran it — the tested contract of
 * this module. A shard whose header or result line fails its digest is
 * named in FarmRun::error and no file is written.
 *
 * Workers are forked, not exec'd: they inherit the expanded spec and
 * the warm deadlock/liveness memo caches (the parent pre-proves every
 * distinct design before forking), so a worker's first job starts
 * simulating immediately.
 *
 * Crash injection for the kill/resume tests: with NOC_FARM_CRASH_AFTER
 * set to n, a worker raises SIGKILL on itself right after leasing its
 * n-th job (before running it); NOC_FARM_CRASH_WORKER limits that to
 * one worker index (default: every worker crashes).
 */
#ifndef ROCOSIM_FARM_FARM_H_
#define ROCOSIM_FARM_FARM_H_

#include <string>
#include <vector>

#include "exp/sweep.h"
#include "farm/journal.h"

namespace noc::farm {

struct FarmOptions {
    std::string dir;          ///< journal directory (required)
    int workers = 2;          ///< worker processes to fork
    double leaseTtlSec = 60;  ///< lease-expiry steal backstop
    bool provenance = false;  ///< emit per-point attempt/worker/wallMs
                              ///< from the shard headers (breaks
                              ///< byte-identity; see json_out.h)
    bool progress = false;    ///< per-point stderr progress lines
    /**
     * Final json path; empty = "BENCH_<spec.name>.json" in the
     * journal directory. Written via temp + rename.
     */
    std::string outPath;
};

struct FarmRun {
    bool complete = false;     ///< every job has a committed shard
    std::string jsonPath;      ///< written only when complete
    std::size_t jobs = 0;      ///< points in the sweep
    std::size_t reused = 0;    ///< shards already committed on entry
    std::size_t ran = 0;       ///< shards committed by this invocation
    int workerFailures = 0;    ///< children that exited abnormally
    std::string error;         ///< non-empty on journal/aggregation failure
};

/**
 * Runs @p spec to completion through the journal at opts.dir (fresh or
 * resumed — the manifest fingerprint decides whether the directory
 * matches the spec). Forks workers only when jobs are pending, and
 * blocks until every one exits. When all jobs are committed, streams
 * the aggregate json to opts.outPath one point at a time and reports
 * complete=true; otherwise (or when a shard is corrupt, which the
 * error names) the journal is left ready for a future --resume.
 */
FarmRun runFarm(const exp::SweepSpec &spec, const FarmOptions &opts);

} // namespace noc::farm

#endif // ROCOSIM_FARM_FARM_H_
