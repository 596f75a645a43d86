/**
 * @file
 * rocobench: one process = one cold pass over a workload's batch.
 *
 *   rocobench run   --workload W --seed S [--serial]
 *   rocobench trace --workload W --seed S --spans FILE
 *
 * `run` times set-up (proofs + network build) and Simulator::run for
 * every job of the batch and prints one JSON line with the end-to-end
 * numbers and a digest of each job's simulated statistics. `--serial`
 * forces one shard, giving the reference a sharded run must match.
 *
 * `trace` runs every job three ways — untraced serial Simulator::run,
 * the traced loop (traced.cpp) and the 2-shard engine — checks that all
 * three agree bit for bit, and prints the per-layer metrics. The spans
 * are written to FILE when the process exits.
 *
 * rocobench/run.py drives these processes and refuses environments
 * that change what is measured; run each workload through it, not
 * directly. A process proves every design cold (the proof memos are
 * per process), and its peak RSS is its own.
 */
#include <sys/resource.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "check/deadlock.h"
#include "check/invariant.h"
#include "model/liveness.h"
#include "obs/obs.h"
#include "par/race_check.h"
#include "rocobench.h"

namespace {

using namespace noc;
using namespace rocobench;

/** A flat JSON object built field by field; doubles keep every digit. */
class Json
{
  public:
    Json &
    num(const char *k, double v)
    {
        char b[64];
        std::snprintf(b, sizeof b, "%.17g", std::isfinite(v) ? v : 0.0);
        return raw(k, b);
    }
    Json &
    num(const char *k, std::uint64_t v)
    {
        return raw(k, std::to_string(v));
    }
    Json &
    str(const char *k, const std::string &v)
    {
        return raw(k, "\"" + v + "\"");
    }
    Json &
    boolean(const char *k, bool v)
    {
        return raw(k, v ? "true" : "false");
    }
    Json &
    raw(const char *k, const std::string &v)
    {
        s_ += s_.empty() ? "{" : ", ";
        s_ += "\"";
        s_ += k;
        s_ += "\": ";
        s_ += v;
        return *this;
    }
    std::string done() const { return s_.empty() ? "{}" : s_ + "}"; }

  private:
    std::string s_;
};

std::string
hex(std::uint64_t v)
{
    char b[24];
    std::snprintf(b, sizeof b, "%016" PRIx64, v);
    return b;
}

double
ms(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
provenance()
{
    return Json()
        .str("build_type", ROCOBENCH_BUILD_TYPE)
        .num("noc_invariants", std::uint64_t{NOC_INVARIANTS_BUILT})
        .num("noc_obs", std::uint64_t{NOC_OBS_BUILT})
        .num("noc_race_check", std::uint64_t{NOC_RACE_CHECK_BUILT})
        .str("compiler", __VERSION__)
        .num("nproc",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
        .done();
}

/** Distinct designs of @p jobs under each prover's memo key. */
std::pair<std::size_t, std::size_t>
distinctDesigns(const std::vector<Job> &jobs)
{
    std::set<std::uint64_t> dl, lv;
    for (const Job &j : jobs) {
        dl.insert(check::proofFingerprint(j.cfg, check::ProofScope::Deadlock));
        lv.insert(check::proofFingerprint(j.cfg, check::ProofScope::Liveness));
    }
    return {dl.size(), lv.size()};
}

/** The worst request-class p99 round trip; 0 outside service mode. */
double
rttP99(const SimResult &r)
{
    double worst = 0;
    for (std::size_t c = 0; c < r.classes.size(); ++c) {
        if (!isReplyClass(static_cast<MsgClass>(c)))
            worst = std::max(worst, r.classes[c].p99Rtt);
    }
    return worst;
}

std::string
jobJson(const Job &j, const SimResult &r, const FlitLedger &l, int nodes)
{
    return Json()
        .str("name", j.name)
        .str("digest", hex(statsDigest(r, l)))
        .boolean("timed_out", r.timedOut)
        .num("shards", static_cast<std::uint64_t>(std::max(j.cfg.shards, 1)))
        .num("node_cycles",
             static_cast<std::uint64_t>(r.drainCycles) *
                 static_cast<std::uint64_t>(nodes))
        .num("avg_latency", r.avgLatency)
        .num("p99_latency", r.p99Latency)
        .num("completion", r.completion)
        .num("pef", r.pef)
        .num("rtt_p99", rttP99(r))
        .done();
}

int
cmdRun(const std::vector<Job> &jobs, bool serial)
{
    const std::uint64_t dl0 = check::deadlockProofsPerformed();
    const std::uint64_t lv0 = model::livenessProofsPerformed();
    std::int64_t setupNs = 0, runNs = 0;
    std::uint64_t nodeCycles = 0;
    std::string rows;

    for (const Job &j : jobs) {
        SimConfig cfg = j.cfg;
        if (serial)
            cfg.shards = 1;
        const std::int64_t t0 = nowNs();
        check::validateConfigOrDie(cfg);
        model::validateConfigLiveness(cfg);
        Simulator sim(cfg, j.faults);
        const std::int64_t t1 = nowNs();
        SimResult r = sim.run();
        const std::int64_t t2 = nowNs();
        setupNs += t1 - t0;
        runNs += t2 - t1;
        const int nodes = sim.network().numNodes();
        nodeCycles += static_cast<std::uint64_t>(r.drainCycles) *
                      static_cast<std::uint64_t>(nodes);
        rows += rows.empty() ? "" : ", ";
        rows += jobJson(j, r, sim.network().ledger(), nodes);
    }

    auto [dlDesigns, lvDesigns] = distinctDesigns(jobs);
    const bool cold = check::deadlockProofsPerformed() - dl0 == dlDesigns &&
                      model::livenessProofsPerformed() - lv0 == lvDesigns;
    std::puts(Json()
                  .num("setup_s", static_cast<double>(setupNs) / 1e9)
                  .num("run_s", static_cast<double>(runNs) / 1e9)
                  .num("node_cycles", nodeCycles)
                  .num("peak_rss_mb", peakRssMb())
                  .boolean("cold_proofs", cold)
                  .str("inputs", hex(inputsDigest(jobs)))
                  .raw("jobs", "[" + rows + "]")
                  .raw("provenance", provenance())
                  .done()
                  .c_str());
    return 0;
}

/** Everything two runs of one job must agree on. */
struct Observed {
    std::uint64_t digest = 0;
    std::uint64_t stepsExecuted = 0;
    std::uint64_t stepsScheduled = 0;

    bool
    operator==(const Observed &o) const
    {
        return digest == o.digest && stepsExecuted == o.stepsExecuted &&
               stepsScheduled == o.stepsScheduled;
    }
};

Observed
observe(Simulator &sim, const SimResult &r)
{
    return {statsDigest(r, sim.network().ledger()),
            sim.network().routerStepsExecuted(),
            sim.network().routerStepsScheduled()};
}

bool
writeSpans(const std::string &path, const std::vector<Job> &jobs,
           const std::vector<CycleSpan> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    // One row per engine.cycle span; the nic/router/invariant columns
    // are its child spans' durations (nic.generate over all nodes,
    // router.step summed over the routers stepped, check.invariants).
    std::fprintf(f, "# jobs:");
    for (std::size_t i = 0; i < jobs.size(); ++i)
        std::fprintf(f, " %zu=%s", i, jobs[i].name.c_str());
    std::fprintf(f, "\njob,cycle,phase,begin_ns,end_ns,nic_ns,router_ns,"
                    "invariant_ns,routers_stepped,packets\n");
    for (const CycleSpan &s : spans) {
        std::fprintf(f,
                     "%u,%u,%u,%" PRId64 ",%" PRId64 ",%d,%d,%d,%u,%u\n",
                     s.job, s.cycle, static_cast<unsigned>(s.phase),
                     s.beginNs, s.endNs, s.nicNs, s.routerNs, s.invariantNs,
                     static_cast<unsigned>(s.steps),
                     static_cast<unsigned>(s.packets));
    }
    return std::fclose(f) == 0;
}

int
cmdTrace(const std::vector<Job> &jobs, const std::string &spansPath)
{
    constexpr int kParShards = 2;
    const std::uint64_t dl0 = check::deadlockProofsPerformed();
    const std::uint64_t lv0 = model::livenessProofsPerformed();
    std::int64_t deadlockNs = 0, livenessNs = 0, buildNs = 0;
    std::int64_t serialNs = 0, tracedNs = 0, parNs = 0;
    LayerTimes t;
    LayerCounts n;
    std::uint64_t throttled = 0, requests = 0, timeouts = 0, late = 0;
    std::uint64_t dropped = 0, svcJobs = 0;
    double rttSum = 0;
    std::uint64_t failed = 0;
    std::vector<CycleSpan> spans;
    std::string rows;

    for (std::uint32_t ji = 0; ji < jobs.size(); ++ji) {
        const Job &j = jobs[ji];
        SimConfig cfg = j.cfg;
        cfg.shards = 1;

        std::int64_t t0 = nowNs();
        check::validateConfigOrDie(cfg);
        std::int64_t t1 = nowNs();
        model::validateConfigLiveness(cfg);
        std::int64_t t2 = nowNs();
        deadlockNs += t1 - t0;
        livenessNs += t2 - t1;

        // Untraced serial reference.
        t0 = nowNs();
        Simulator ref(cfg, j.faults);
        t1 = nowNs();
        SimResult refR = ref.run();
        t2 = nowNs();
        buildNs += t1 - t0;
        serialNs += t2 - t1;
        const Observed want = observe(ref, refR);
        const int nodes = ref.network().numNodes();

        // Traced loop on a fresh network.
        Simulator traced(cfg, j.faults);
        t0 = nowNs();
        TracedRun tr = runTraced(traced, cfg, ji, spans);
        tracedNs += nowNs() - t0;
        const Observed got{statsDigest(tr.r, tr.ledger), tr.stepsExecuted,
                           tr.stepsScheduled};

        // Shard engine.
        SimConfig parCfg = cfg;
        parCfg.shards = kParShards;
        Simulator par(parCfg, j.faults);
        t0 = nowNs();
        SimResult parR = par.run();
        parNs += nowNs() - t0;
        const Observed sharded = observe(par, parR);

        // Timeouts are judged by run.py from the job row, like in `run`.
        if (!(got == want && sharded == want)) {
            ++failed;
            std::fprintf(stderr, "rocobench: %s: traced %s, 2-shard %s\n",
                         j.name.c_str(), got == want ? "same" : "DIFFERS",
                         sharded == want ? "same" : "DIFFERS");
        }
        rows += rows.empty() ? "" : ", ";
        rows += jobJson(j, refR, ref.network().ledger(), nodes);

        t += tr.t;
        n += tr.n;
        dropped += tr.ledger.retired - tr.n.flitsDelivered;
        if (cfg.svc.enabled) {
            ++svcJobs;
            throttled += refR.mshrThrottled;
            requests += tr.n.packetsGenerated;
            timeouts += refR.svcTimeouts;
            late += refR.svcLateReplies;
            rttSum += rttP99(refR);
        }
    }

    const std::uint64_t proofs = (check::deadlockProofsPerformed() - dl0) +
                                 (model::livenessProofsPerformed() - lv0);
    // Layer times net of the clock reads that timed them.
    const double clock = clockReadNs();
    auto net = [clock](std::int64_t ns, std::uint64_t reads) {
        return static_cast<double>(ns) - clock * static_cast<double>(reads);
    };
    std::uint64_t executed = 0;
    double routerNs = 0;
    for (int a = 0; a < 3; ++a) {
        executed += n.stepsExecuted[a];
        routerNs += net(t.routerNs[a], n.stepsExecuted[a]);
    }
    double phaseNs[3], cycleNs = 0;
    for (int p = 0; p < 3; ++p) {
        phaseNs[p] = net(t.phaseNs[p], n.clockReads[p]);
        cycleNs += phaseNs[p];
    }
    const double nicNs = net(t.nicNs, n.nicLoops);
    const double invariantNs = net(t.invariantNs, n.invariantChecks);
    auto stepNs = [&](RouterArch a) {
        const int i = static_cast<int>(a);
        return ratio(net(t.routerNs[i], n.stepsExecuted[i]),
                     static_cast<double>(n.stepsExecuted[i]));
    };
    const ActivityCounters &act = n.activity;
    const std::uint64_t hops = act.crossbarTraversals + act.earlyEjections;
    const double cycles = static_cast<double>(n.cycles);

    Json layers;
    layers.num("check.deadlock_ms", ms(deadlockNs))
        .num("model.liveness_ms", ms(livenessNs))
        .num("check.proofs_performed", proofs)
        .num("check.invariant_ms", invariantNs / 1e6)
        .num("sim.build_ms", ms(buildNs))
        .num("sim.reduce_ms", ms(t.reduceNs))
        .num("nic.generate_ns_per_node_cycle",
             ratio(nicNs, static_cast<double>(n.generateCalls)))
        .num("nic.gen_frac", ratio(static_cast<double>(n.packetsGenerated),
                                   static_cast<double>(n.generateCalls)))
        .num("engine.skip_frac",
             1.0 - ratio(static_cast<double>(executed),
                         static_cast<double>(n.stepsScheduled)))
        .num("engine.overhead_ns_per_cycle",
             ratio(cycleNs - nicNs - routerNs - invariantNs, cycles))
        .num("engine.warmup_ms", phaseNs[0] / 1e6)
        .num("engine.measure_ms", phaseNs[1] / 1e6)
        .num("engine.drain_ms", phaseNs[2] / 1e6)
        .num("engine.drain_cycles", n.drainCycles)
        .num("router.generic.step_ns", stepNs(RouterArch::Generic))
        .num("router.ps.step_ns", stepNs(RouterArch::PathSensitive))
        .num("router.roco.step_ns", stepNs(RouterArch::Roco))
        .num("router.steps_executed", executed)
        .num("router.flit_hops", hops)
        .num("router.ns_per_flit_hop",
             ratio(routerNs, static_cast<double>(hops)))
        .num("router.sa_denied_frac",
             ratio(static_cast<double>(n.saDenied),
                   static_cast<double>(n.saTrials)))
        .num("router.va_arbs", act.vaLocalArbs + act.vaGlobalArbs)
        .num("router.sa_arbs", act.saLocalArbs + act.saGlobalArbs)
        .num("router.early_ejections", act.earlyEjections)
        .num("svc.mshr_throttled_frac",
             ratio(static_cast<double>(throttled),
                   static_cast<double>(throttled + requests)))
        .num("svc.timeouts", timeouts)
        .num("svc.late_replies", late)
        .num("svc.rtt_p99_cycles",
             ratio(rttSum, static_cast<double>(svcJobs)))
        .num("fault.flits_dropped", dropped)
        .num("par.run_ms", ms(parNs))
        .num("par.speedup", ratio(static_cast<double>(serialNs),
                                  static_cast<double>(parNs)))
        .num("par.overhead_ns_per_cycle",
             ratio(static_cast<double>(parNs) -
                       static_cast<double>(serialNs) / kParShards,
                   cycles))
        .num("trace.overhead_frac",
             ratio(static_cast<double>(tracedNs - serialNs),
                   static_cast<double>(serialNs)));

    const bool spansOk = writeSpans(spansPath, jobs, spans);
    if (!spansOk)
        std::fprintf(stderr, "rocobench: cannot write %s\n",
                     spansPath.c_str());
    std::puts(Json()
                  .num("failed", failed)
                  .boolean("spans_written", spansOk)
                  .num("clock_read_ns", clock)
                  .str("inputs", hex(inputsDigest(jobs)))
                  .raw("jobs", "[" + rows + "]")
                  .raw("layers", layers.done())
                  .raw("provenance", provenance())
                  .done()
                  .c_str());
    return 0;
}

int
usage()
{
    std::fputs("usage: rocobench run --workload W --seed S [--serial]\n"
               "       rocobench trace --workload W --seed S --spans FILE\n"
               "Run it through rocobench/run.py, which lists the workloads.\n",
               stderr);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string mode = argv[1];
    std::map<std::string, std::string> opt;
    bool serial = false;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--serial") {
            serial = true;
        } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
            opt[a.substr(2)] = argv[++i];
        } else {
            return usage();
        }
    }
    char *end = nullptr;
    const std::string seedArg = opt["seed"];
    const std::uint64_t seed = std::strtoull(seedArg.c_str(), &end, 10);
    if (seedArg.empty() || *end != '\0')
        return usage();
    const std::vector<Job> jobs = makeWorkload(opt["workload"], seed);
    if (jobs.empty())
        return usage();

    if (mode == "run")
        return cmdRun(jobs, serial);
    if (mode == "trace" && !opt["spans"].empty())
        return cmdTrace(jobs, opt["spans"]);
    return usage();
}
