/**
 * @file
 * Declarative experiment sweeps and a parallel sweep runner.
 *
 * Every figure bench is a grid walk over (architecture, routing,
 * traffic, injection rate, fault set). SweepSpec captures that grid
 * declaratively; expand() flattens it into an ordered point list; and
 * SweepRunner fans the points across a fixed-size thread pool.
 *
 * Each point is an independent Simulator: all randomness derives from
 * the point's own SimConfig::seed (per-entity xoshiro streams, no
 * global state), so results are bit-identical to serial execution
 * regardless of thread count or scheduling order.
 */
#ifndef ROCOSIM_EXP_SWEEP_H_
#define ROCOSIM_EXP_SWEEP_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "fault/fault.h"
#include "obs/summary.h"
#include "sim/simulator.h"

namespace noc::exp {

/** A named group of faults injected together (one grid-axis value). */
struct FaultSet {
    std::string label; ///< e.g. "crit-2f-s11", "" for fault-free
    std::vector<FaultSpec> faults;
};

/**
 * The grid of one experiment. Empty axes fall back to the base
 * config's value (a single implicit point on that axis), so a bench
 * only lists the axes it actually varies.
 */
struct SweepSpec {
    std::string name;   ///< experiment id, used for JSON file naming
    SimConfig base;     ///< defaults for every non-swept knob
    std::vector<RouterArch> archs;
    std::vector<RoutingKind> routings;
    std::vector<TrafficKind> traffics;
    std::vector<double> rates;
    std::vector<FaultSet> faultSets;

    /** Points on each axis after empty-axis defaulting. */
    std::size_t archCount() const { return archs.empty() ? 1 : archs.size(); }
    std::size_t routingCount() const
    {
        return routings.empty() ? 1 : routings.size();
    }
    std::size_t trafficCount() const
    {
        return traffics.empty() ? 1 : traffics.size();
    }
    std::size_t rateCount() const { return rates.empty() ? 1 : rates.size(); }
    std::size_t faultSetCount() const
    {
        return faultSets.empty() ? 1 : faultSets.size();
    }

    /** Total grid size. */
    std::size_t pointCount() const;

    /**
     * Flat index of a grid cell. Axis order, outermost first:
     * routing, traffic, rate, fault set, arch. Architectures are
     * innermost so the figures' side-by-side arch comparisons sit at
     * consecutive indices.
     */
    std::size_t flatIndex(std::size_t routing, std::size_t traffic,
                          std::size_t rate, std::size_t faultSet,
                          std::size_t arch) const;
};

/** One fully-resolved grid cell, ready to simulate. */
struct SweepPoint {
    std::size_t index = 0; ///< position in expand() order (== flatIndex)
    SimConfig cfg;         ///< base with the axis values applied
    std::vector<FaultSpec> faults;
    std::string faultLabel;
    /** Axis positions of this point in the spec's grid. */
    std::size_t archIdx = 0, routingIdx = 0, trafficIdx = 0, rateIdx = 0,
                faultSetIdx = 0;
};

/** Flattens the grid in flatIndex() order. */
std::vector<SweepPoint> expand(const SweepSpec &spec);

/** One point's outcome plus bookkeeping for reports. */
struct PointResult {
    std::size_t index = 0;
    std::uint64_t seed = 0; ///< the seed the point actually ran with
    double wallMs = 0;      ///< this point's wall-clock time
    SimResult result;
};

/** Everything a sweep produced, in point order. */
struct SweepResults {
    std::vector<SweepPoint> points;
    std::vector<PointResult> results; ///< results[i] is points[i]'s outcome
    double totalWallMs = 0;
    int threads = 1; ///< pool size the sweep ran with

    /**
     * Grid-wide observability aggregate: the per-point recorders'
     * summaries merged under a lock as points finish. Null unless at
     * least one point ran with tracing on (NOC_TRACE=1).
     * Summary::merge is commutative over integer counters, so
     * the aggregate is identical for serial and pooled runs.
     */
    std::shared_ptr<obs::Summary> obs;

    /** Result at a grid cell (axis positions as in SweepSpec). */
    const SimResult &at(const SweepSpec &spec, std::size_t routing,
                        std::size_t traffic, std::size_t rate,
                        std::size_t faultSet, std::size_t arch) const
    {
        return results[spec.flatIndex(routing, traffic, rate, faultSet, arch)]
            .result;
    }
};

/**
 * The shard count SweepRunner fills in for a point left on auto
 * (cfg.shards == 0) when @p spare pool threads are free for it: at
 * most 8, and at most meshHeight / 4 so that every row band keeps 4
 * rows (at 2 shards an 8x8 band then still has interior nodes, see
 * ShardPlan); 0 (stay serial) below 2 or for meshes under 64 nodes.
 * DESIGN section 11 has the measurements behind the cap.
 */
int autoShards(const SimConfig &cfg, int spare);

/**
 * Runs every point of a spec across a fixed-size thread pool.
 *
 * Threads pull points off a shared atomic counter; each result slot is
 * written by exactly one thread, so no locking is needed and the
 * collected vector is in deterministic point order. threads == 0 reads
 * NOC_BENCH_THREADS (a whole number >= 1; anything else is fatal),
 * falling back to std::thread::hardware_concurrency.
 *
 * The thread budget covers both axes of parallelism: when the grid has
 * fewer points than threads, the spare threads are handed to each
 * point's sharded engine (cfg.shards, src/par; see autoShards).
 * Sharded execution is bit-identical to serial, so the policy
 * affects wall-clock time only; explicit cfg.shards / NOC_SHARDS
 * settings are never overridden.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(int threads = 0);

    SweepResults run(const SweepSpec &spec) const;

    int threads() const { return threads_; }

    /** The pool size threads == 0 resolves to (env / hardware). */
    static int defaultThreads();

  private:
    int threads_;
};

} // namespace noc::exp

#endif // ROCOSIM_EXP_SWEEP_H_
