#include "exp/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "check/deadlock.h"
#include "common/config.h"
#include "common/log.h"
#include "model/liveness.h"
#include "obs/recorder.h"

namespace noc::exp {

std::size_t
SweepSpec::pointCount() const
{
    return routingCount() * trafficCount() * rateCount() * faultSetCount() *
           archCount();
}

std::size_t
SweepSpec::flatIndex(std::size_t routing, std::size_t traffic,
                     std::size_t rate, std::size_t faultSet,
                     std::size_t arch) const
{
    NOC_ASSERT(routing < routingCount() && traffic < trafficCount() &&
                   rate < rateCount() && faultSet < faultSetCount() &&
                   arch < archCount(),
               "sweep grid index out of range");
    return (((routing * trafficCount() + traffic) * rateCount() + rate) *
                faultSetCount() +
            faultSet) *
               archCount() +
           arch;
}

std::vector<SweepPoint>
expand(const SweepSpec &spec)
{
    std::vector<SweepPoint> points;
    points.reserve(spec.pointCount());
    for (std::size_t ro = 0; ro < spec.routingCount(); ++ro) {
        for (std::size_t tr = 0; tr < spec.trafficCount(); ++tr) {
            for (std::size_t ra = 0; ra < spec.rateCount(); ++ra) {
                for (std::size_t fs = 0; fs < spec.faultSetCount(); ++fs) {
                    for (std::size_t ar = 0; ar < spec.archCount(); ++ar) {
                        SweepPoint p;
                        p.index = points.size();
                        NOC_ASSERT(p.index == spec.flatIndex(ro, tr, ra, fs,
                                                             ar),
                                   "expand order disagrees with flatIndex");
                        p.cfg = spec.base;
                        if (!spec.archs.empty())
                            p.cfg.arch = spec.archs[ar];
                        if (!spec.routings.empty())
                            p.cfg.routing = spec.routings[ro];
                        if (!spec.traffics.empty())
                            p.cfg.traffic = spec.traffics[tr];
                        if (!spec.rates.empty())
                            p.cfg.injectionRate = spec.rates[ra];
                        if (!spec.faultSets.empty()) {
                            p.faults = spec.faultSets[fs].faults;
                            p.faultLabel = spec.faultSets[fs].label;
                        }
                        p.archIdx = ar;
                        p.routingIdx = ro;
                        p.trafficIdx = tr;
                        p.rateIdx = ra;
                        p.faultSetIdx = fs;
                        points.push_back(std::move(p));
                    }
                }
            }
        }
    }
    return points;
}

int
SweepRunner::defaultThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return envNumber<int>("NOC_BENCH_THREADS",
                          hw > 0 ? static_cast<int>(hw) : 1, 1);
}

SweepRunner::SweepRunner(int threads)
    : threads_(threads > 0 ? threads : defaultThreads())
{
}

namespace {

double
msSince(std::chrono::steady_clock::time_point t0) // noc-lint:allow(det-wallclock) wall time is metadata, not a result
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0) // noc-lint:allow(det-wallclock) wall time is metadata, not a result
        .count();
}

/** Folds per-point recorder summaries into one grid-wide aggregate. */
struct ObsAggregator {
    std::mutex mu;
    std::shared_ptr<obs::Summary> total;

    void
    add(const obs::Recorder *rec)
    {
        if (rec == nullptr)
            return;
        obs::Summary s = rec->summary();
        std::lock_guard<std::mutex> lock(mu);
        if (!total)
            total = std::make_shared<obs::Summary>();
        total->merge(s);
    }
};

/** Runs one point; the only code the pool threads execute. */
void
runPoint(const SweepPoint &p, PointResult &out, ObsAggregator &agg)
{
    auto t0 = std::chrono::steady_clock::now(); // noc-lint:allow(det-wallclock) wall time is metadata, not a result
    Simulator sim(p.cfg, p.faults);
    out.index = p.index;
    out.seed = p.cfg.seed;
    out.result = sim.run();
    agg.add(sim.observer());
    out.wallMs = msSince(t0);
}

} // namespace

int
autoShards(const SimConfig &cfg, int spare)
{
    if (cfg.meshWidth * cfg.meshHeight < 64)
        return 0;
    const int shards = std::min({spare, 8, cfg.meshHeight / 4});
    return shards >= 2 ? shards : 0;
}

SweepResults
SweepRunner::run(const SweepSpec &spec) const
{
    auto t0 = std::chrono::steady_clock::now(); // noc-lint:allow(det-wallclock) wall time is metadata, not a result
    SweepResults res;
    res.points = expand(spec);
    res.results.resize(res.points.size());
    res.threads = threads_;

    // Prove every distinct (arch, routing, mesh, VC) combination
    // deadlock-free and starvation/livelock-free before the pool burns
    // hours simulating an unsound design.  Both checkers memoize, so a
    // sweep over R routings and A architectures pays for R x A proofs,
    // not one per point; pre-warming here also keeps the caches out of
    // the workers' way (they only ever hit the proven fast path).
    for (const SweepPoint &p : res.points) {
        check::validateConfigOrDie(p.cfg);
        model::validateConfigLiveness(p.cfg);
    }

    // One pool budget serves both axes of parallelism: wide grids use
    // the threads across points; small grids of big points hand the
    // spare threads to each point's sharded engine (src/par). Sharding
    // is bit-identical to serial execution, so this policy can never
    // change results — only wall-clock time. An explicit cfg.shards or
    // NOC_SHARDS choice is always respected (the policy only fills in
    // the "auto" value; see autoShards).
    int pool = threads_;
    if (pool > static_cast<int>(res.points.size()))
        pool = static_cast<int>(res.points.size());
    if (pool >= 1 && std::getenv("NOC_SHARDS") == nullptr) {
        int spare = threads_ / pool;
        for (SweepPoint &p : res.points) {
            if (p.cfg.shards == 0)
                p.cfg.shards = autoShards(p.cfg, spare);
        }
    }

    // Work-stealing over a shared counter: each thread claims the next
    // unclaimed point and writes only its own result slot, so the
    // collected vector needs no locks and is already in point order.
    std::atomic<std::size_t> next{0};
    ObsAggregator agg;
    auto worker = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= res.points.size())
                return;
            runPoint(res.points[i], res.results[i], agg);
        }
    };

    if (pool <= 1) {
        worker();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(pool));
        for (int t = 0; t < pool; ++t)
            threads.emplace_back(worker);
        for (std::thread &t : threads)
            t.join();
    }

    res.obs = std::move(agg.total);
    res.totalWallMs = msSince(t0);
    return res;
}

} // namespace noc::exp
