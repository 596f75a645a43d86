#include "farm/farm.h"

#include <cerrno>
#include <cstdio>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "check/deadlock.h"
#include "common/config.h"
#include "exp/json_out.h"
#include "model/liveness.h"

namespace noc::farm {
namespace {

struct CrashInjection {
    int afterLeases = 0; ///< 0 = off
    int onlyWorker = -1; ///< -1 = every worker
};

CrashInjection
crashInjectionFromEnv()
{
    CrashInjection ci;
    ci.afterLeases = envNumber<int>("NOC_FARM_CRASH_AFTER", 0, 0);
    ci.onlyWorker = envNumber<int>("NOC_FARM_CRASH_WORKER", -1, -1);
    return ci;
}

/**
 * One worker process's life: lease pending jobs off the journal, run,
 * commit, repeat until every job in the journal is done. Runs in the
 * forked child; must not return to the caller's stack frames beyond
 * this function (the child _exits).
 */
int
runWorker(Journal &journal, const std::vector<exp::SweepPoint> &points,
          int worker, const FarmOptions &opts, const CrashInjection &ci)
{
    int leased = 0;
    std::size_t n = journal.jobCount();
    // Stagger start offsets so workers don't stampede the same jobs.
    std::size_t start = n == 0 ? 0 : (static_cast<std::size_t>(worker) * n) /
                                         static_cast<std::size_t>(
                                             opts.workers > 0 ? opts.workers
                                                              : 1);
    for (;;) {
        bool progressed = false;
        std::size_t done = 0;
        for (std::size_t k = 0; k < n; ++k) {
            std::size_t i = (start + k) % n;
            if (journal.isDone(i)) {
                ++done;
                continue;
            }
            auto attempt = journal.tryLease(i, worker);
            if (!attempt)
                continue;
            ++leased;
            if (ci.afterLeases > 0 && leased >= ci.afterLeases &&
                (ci.onlyWorker < 0 || ci.onlyWorker == worker)) {
                // Deterministic kill -9 on ourselves, mid-lease: the
                // job stays leased-not-done, exactly the crash the
                // resume tests need to exercise.
                std::fprintf(stderr,
                             "[farm w%d] injected crash after lease %d\n",
                             worker, leased);
                ::raise(SIGKILL);
            }
            exp::PointResult r = exp::runSweepPoint(points[i]);
            journal.commit(i, r, *attempt, worker);
            progressed = true;
            if (opts.progress)
                std::fprintf(stderr,
                             "[farm w%d] job %s (point %zu) done, "
                             "%llu cycles, attempt %u\n",
                             worker, journal.ids()[i].c_str(), i,
                             static_cast<unsigned long long>(
                                 r.result.cycles),
                             *attempt);
        }
        if (done == n)
            return 0;
        if (!progressed) {
            // Everything left is validly leased by someone else; poll
            // until they commit or their leases become stealable.
            ::usleep(2000);
        }
    }
}

int
reapWorkers(std::vector<pid_t> &pids)
{
    int failures = 0;
    for (pid_t pid : pids) {
        int status = 0;
        pid_t r;
        do {
            r = ::waitpid(pid, &status, 0);
        } while (r == -1 && errno == EINTR);
        if (r != pid ||
            !(WIFEXITED(status) && WEXITSTATUS(status) == 0))
            ++failures;
    }
    return failures;
}

/**
 * Streams the aggregate json of a complete journal to opts.outPath
 * (written via temp + rename): sets run.complete and run.jsonPath, or
 * run.error naming the first unreadable shard.
 */
void
aggregate(const exp::SweepSpec &spec,
          const std::vector<exp::SweepPoint> &points, const Journal &journal,
          const FarmOptions &opts, FarmRun &run)
{
    exp::JsonOptions jopts;
    jopts.schema = 4;
    jopts.canonical = true;
    jopts.jobIds = &journal.ids();
    // Provenance metadata is tiny (a few words per point); the results
    // themselves still stream through one shard at a time.
    std::vector<exp::JsonOptions::PointProvenance> prov;
    if (opts.provenance) {
        prov.resize(points.size());
        jopts.provenance = &prov;
    }

    std::string outPath = opts.outPath.empty()
                              ? opts.dir + "/BENCH_" + spec.name + ".json"
                              : opts.outPath;
    std::string tmpPath = outPath + ".tmp." + std::to_string(::getpid());
    std::FILE *f = std::fopen(tmpPath.c_str(), "wb");
    if (f == nullptr) {
        run.error = "cannot write " + tmpPath;
        return;
    }

    auto emit = [&](const std::string &s) {
        return std::fwrite(s.data(), 1, s.size(), f) == s.size();
    };
    bool ok = emit(exp::sweepJsonHeader(spec, 0, 0, nullptr, jopts));
    for (std::size_t i = 0; ok && i < points.size(); ++i) {
        auto shard = journal.readShard(i);
        if (!shard || shard->seed != points[i].cfg.seed) {
            run.error = "shard " + opts.dir + "/shards/" +
                        journal.ids()[i] +
                        " is unreadable or corrupt; delete it and resume "
                        "to re-run its job";
            ok = false;
            break;
        }
        if (opts.provenance) {
            prov[i].attempt = shard->attempt;
            prov[i].worker = shard->worker;
            prov[i].wallMs = shard->wallMs;
        }
        std::string frag = exp::pointJson(points[i], shard->seed,
                                          shard->wallMs, shard->result,
                                          jopts);
        if (i + 1 < points.size())
            frag += ",";
        frag += "\n";
        ok = emit(frag);
    }
    if (ok)
        ok = emit(exp::sweepJsonFooter());
    ok = std::fflush(f) == 0 && ok;
    ok = ::fsync(::fileno(f)) == 0 && ok;
    ok = std::fclose(f) == 0 && ok;
    if (ok)
        ok = ::rename(tmpPath.c_str(), outPath.c_str()) == 0;
    if (!ok) {
        ::unlink(tmpPath.c_str());
        if (run.error.empty())
            run.error = "aggregation I/O failure on " + outPath;
        return;
    }
    run.complete = true;
    run.jsonPath = outPath;
}

} // namespace

FarmRun
runFarm(const exp::SweepSpec &spec, const FarmOptions &opts)
{
    FarmRun run;
    std::vector<exp::SweepPoint> points = exp::expand(spec);
    std::vector<std::string> ids = jobIds(points);
    run.jobs = points.size();

    std::string err;
    auto journal = Journal::open(opts.dir, spec, ids, &err);
    if (!journal) {
        run.error = err;
        return run;
    }
    journal->leaseTtlSec = opts.leaseTtlSec;
    run.reused = journal->doneCount();

    if (run.reused < run.jobs) {
        // Prove every distinct design once, in the parent, before
        // forking: children inherit the warm memo caches and never
        // re-prove (ProofMemoTest pins the single-proof property).
        for (const exp::SweepPoint &p : points) {
            check::validateConfigOrDie(p.cfg);
            model::validateConfigLiveness(p.cfg);
        }

        int workers = opts.workers > 0 ? opts.workers : 1;
        CrashInjection ci = crashInjectionFromEnv();
        std::fflush(nullptr); // no duplicated stdio buffers in children
        std::vector<pid_t> pids;
        pids.reserve(static_cast<std::size_t>(workers));
        for (int w = 0; w < workers; ++w) {
            pid_t pid = ::fork();
            if (pid == 0) {
                int rc = runWorker(*journal, points, w, opts, ci);
                ::_exit(rc);
            }
            if (pid > 0)
                pids.push_back(pid);
            else
                ++run.workerFailures;
        }
        run.workerFailures += reapWorkers(pids);
    }

    std::size_t doneNow = journal->doneCount();
    run.ran = doneNow > run.reused ? doneNow - run.reused : 0;
    if (doneNow < run.jobs) {
        run.error = "sweep incomplete: " + std::to_string(doneNow) + "/" +
                    std::to_string(run.jobs) +
                    " jobs committed (resume to continue)";
        return run;
    }

    aggregate(spec, points, *journal, opts, run);
    return run;
}

} // namespace noc::farm
