/**
 * @file
 * exp/sweep.h: grid expansion, flat indexing, parallel determinism,
 * JSON emission, and the FlitLedger drain-detection invariant.
 */
#include <cstdlib>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "check/deadlock.h"
#include "exp/json_out.h"
#include "exp/saturation.h"
#include "exp/sweep.h"
#include "fault/fault_injector.h"
#include "model/liveness.h"
#include "result_print.h"
#include "topology/mesh.h"

namespace noc::exp {
namespace {

SimConfig
tinyConfig()
{
    SimConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.warmupPackets = 30;
    cfg.measurePackets = 200;
    cfg.maxCycles = 50000;
    cfg.injectionRate = 0.15;
    return cfg;
}

TEST(SweepSpecTest, EmptyAxesDefaultToBase)
{
    SweepSpec spec;
    spec.base = tinyConfig();
    EXPECT_EQ(spec.pointCount(), 1u);

    auto points = expand(spec);
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].index, 0u);
    EXPECT_EQ(points[0].cfg.arch, spec.base.arch);
    EXPECT_EQ(points[0].cfg.routing, spec.base.routing);
    EXPECT_EQ(points[0].cfg.injectionRate, spec.base.injectionRate);
    EXPECT_TRUE(points[0].faults.empty());
    EXPECT_EQ(points[0].faultLabel, "");
}

TEST(SweepSpecTest, GridExpansionOrderAndFlatIndex)
{
    SweepSpec spec;
    spec.base = tinyConfig();
    spec.archs = {RouterArch::Generic, RouterArch::Roco};
    spec.routings = {RoutingKind::XY, RoutingKind::XYYX,
                     RoutingKind::Adaptive};
    spec.rates = {0.1, 0.2};
    spec.faultSets.push_back({"none", {}});
    spec.faultSets.push_back(
        {"one", {FaultSpec{5, FaultComponent::Crossbar, Module::Row, 0, 0}}});

    // 3 routings x 1 traffic x 2 rates x 2 fault sets x 2 archs.
    EXPECT_EQ(spec.pointCount(), 24u);
    auto points = expand(spec);
    ASSERT_EQ(points.size(), 24u);

    // Architectures are innermost: consecutive points differ in arch
    // only; routing is outermost.
    EXPECT_EQ(points[0].cfg.arch, RouterArch::Generic);
    EXPECT_EQ(points[1].cfg.arch, RouterArch::Roco);
    EXPECT_EQ(points[0].cfg.routing, points[1].cfg.routing);
    EXPECT_EQ(points[0].cfg.routing, RoutingKind::XY);
    EXPECT_EQ(points.back().cfg.routing, RoutingKind::Adaptive);
    EXPECT_EQ(points.back().cfg.arch, RouterArch::Roco);
    EXPECT_EQ(points.back().faultLabel, "one");

    // flatIndex round-trips the stored axis positions for every point.
    for (const SweepPoint &p : points) {
        EXPECT_EQ(p.index,
                  spec.flatIndex(p.routingIdx, p.trafficIdx, p.rateIdx,
                                 p.faultSetIdx, p.archIdx));
        if (!spec.faultSets[p.faultSetIdx].faults.empty()) {
            EXPECT_EQ(p.faults.size(), 1u);
        }
    }

    // Axis values land where flatIndex says they do.
    std::size_t idx = spec.flatIndex(2, 0, 1, 1, 0);
    EXPECT_EQ(points[idx].cfg.routing, RoutingKind::Adaptive);
    EXPECT_EQ(points[idx].cfg.injectionRate, 0.2);
    EXPECT_EQ(points[idx].faultLabel, "one");
    EXPECT_EQ(points[idx].cfg.arch, RouterArch::Generic);
}

TEST(SweepRunnerTest, ParallelMatchesSerialBitExact)
{
    MeshTopology topo(4, 4);
    SweepSpec spec;
    spec.name = "determinism";
    spec.base = tinyConfig();
    spec.archs = {RouterArch::Generic, RouterArch::PathSensitive,
                  RouterArch::Roco};
    spec.routings = {RoutingKind::XY, RoutingKind::Adaptive};
    spec.rates = {0.1, 0.3};
    spec.faultSets.push_back({"none", {}});
    spec.faultSets.push_back(
        {"crit",
         placeRandomFaults(topo, FaultClass::RouterCentricCritical, 1, 3,
                           7)});

    SweepResults serial = SweepRunner(1).run(spec);
    SweepResults pooled = SweepRunner(8).run(spec);
    EXPECT_EQ(serial.threads, 1);
    EXPECT_EQ(pooled.threads, 8);
    ASSERT_EQ(serial.results.size(), spec.pointCount());
    ASSERT_EQ(pooled.results.size(), serial.results.size());
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
        EXPECT_EQ(serial.results[i].index, i);
        EXPECT_EQ(pooled.results[i].index, i);
        EXPECT_EQ(serial.results[i].seed, pooled.results[i].seed);
        EXPECT_EQ(serial.results[i].result, pooled.results[i].result)
            << "point " << i << " diverged across thread counts";
    }
}

TEST(SweepRunnerTest, BurstyTrafficDeterministicAcrossPools)
{
    // Regression for the bursty sources: Pareto ON/OFF (self-similar)
    // and MPEG-2 GOP traffic draw far more per-cycle randomness than
    // the Bernoulli patterns, so any hidden shared state between pool
    // workers would surface here first.
    SweepSpec spec;
    spec.name = "bursty-determinism";
    spec.base = tinyConfig();
    spec.base.injectionRate = 0.08;
    spec.archs = {RouterArch::Generic, RouterArch::Roco};
    spec.traffics = {TrafficKind::SelfSimilar, TrafficKind::Mpeg};
    spec.rates = {0.05, 0.1};

    SweepResults serial = SweepRunner(1).run(spec);
    SweepResults pooled = SweepRunner(6).run(spec);
    ASSERT_EQ(serial.results.size(), spec.pointCount());
    ASSERT_EQ(pooled.results.size(), serial.results.size());
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
        EXPECT_EQ(serial.results[i].result, pooled.results[i].result)
            << "bursty point " << i << " diverged across thread counts";
        EXPECT_GT(serial.results[i].result.delivered, 0u)
            << "bursty point " << i << " delivered nothing";
    }
}

TEST(SweepRunnerTest, ThreadsEnvOverride)
{
    ASSERT_EQ(setenv("NOC_BENCH_THREADS", "3", 1), 0);
    EXPECT_EQ(SweepRunner().threads(), 3);
    ASSERT_EQ(unsetenv("NOC_BENCH_THREADS"), 0);
    EXPECT_GE(SweepRunner().threads(), 1);
    EXPECT_EQ(SweepRunner(5).threads(), 5);
}

TEST(SweepRunnerDeathTest, MalformedThreadsEnvIsFatal)
{
    // Values a lax parser misreads: "3x" as 3, the others as the
    // hardware thread count.
    for (const char *bad : {"3x", "abc", "0", "-2", ""}) {
        ASSERT_EQ(setenv("NOC_BENCH_THREADS", bad, 1), 0);
        EXPECT_EXIT(SweepRunner::defaultThreads(),
                    testing::ExitedWithCode(1),
                    std::string("NOC_BENCH_THREADS='") + bad + "'")
            << bad;
    }
    ASSERT_EQ(unsetenv("NOC_BENCH_THREADS"), 0);
}

TEST(SweepRunnerTest, LedgerStaysConsistentAfterRuns)
{
    // Fault-free and faulty runs both leave created == retired +
    // whatever is still stuck in the network (faulty runs may strand
    // flits at dead nodes; the ledger must never over-retire).
    MeshTopology topo(4, 4);
    for (RouterArch arch :
         {RouterArch::Generic, RouterArch::PathSensitive, RouterArch::Roco}) {
        SimConfig cfg = tinyConfig();
        cfg.arch = arch;

        Simulator clean(cfg);
        clean.run();
        EXPECT_TRUE(clean.network().quiescent())
            << "fault-free run did not drain (" << toString(arch) << ")";
        EXPECT_EQ(clean.network().flitsInFlight(), 0);

        auto faults = placeRandomFaults(
            topo, FaultClass::RouterCentricCritical, 2, 3, 42);
        Simulator faulty(cfg, faults);
        faulty.run();
        const FlitLedger &led = faulty.network().ledger();
        EXPECT_LE(led.retired, led.created);
        EXPECT_EQ(faulty.network().quiescent(),
                  faulty.network().flitsInFlight() == 0 &&
                      led.created == led.retired);
    }
}

TEST(SweepRunnerTest, AutoShardCountKeepsFourRowBands)
{
    // Row bands thinner than 4 rows leave an 8x8 shard no interior
    // node, and measured slower than serial (DESIGN section 11).
    SimConfig cfg;
    cfg.meshWidth = 8;
    cfg.meshHeight = 8;
    EXPECT_EQ(autoShards(cfg, 8), 2);
    EXPECT_EQ(autoShards(cfg, 2), 2);
    EXPECT_EQ(autoShards(cfg, 1), 0);
    cfg.meshWidth = cfg.meshHeight = 16;
    EXPECT_EQ(autoShards(cfg, 8), 4);
    EXPECT_EQ(autoShards(cfg, 3), 3);
    cfg.meshWidth = cfg.meshHeight = 32;
    EXPECT_EQ(autoShards(cfg, 16), 8);
    // 256 nodes, but only one band's worth of rows.
    cfg.meshWidth = 64;
    cfg.meshHeight = 4;
    EXPECT_EQ(autoShards(cfg, 8), 0);
    // Tall enough for two bands, too small to pay for them.
    cfg.meshWidth = 4;
    cfg.meshHeight = 12;
    EXPECT_EQ(autoShards(cfg, 8), 0);
}

TEST(JsonOutTest, SerialisesEveryPoint)
{
    SweepSpec spec;
    spec.name = "json_smoke";
    spec.base = tinyConfig();
    spec.archs = {RouterArch::Roco};
    spec.rates = {0.1, 0.2};
    SweepResults res = SweepRunner(2).run(spec);

    std::string json = sweepJson(spec, res);
    EXPECT_NE(json.find("\"schema\": 3"), std::string::npos);
    // Open-loop runs carry no per-class service block.
    EXPECT_EQ(json.find("\"classes\""), std::string::npos);
    EXPECT_NE(json.find("\"warmupPackets\""), std::string::npos);
    EXPECT_NE(json.find("\"measurePackets\""), std::string::npos);
    EXPECT_NE(json.find("\"bench\": \"json_smoke\""), std::string::npos);
    EXPECT_NE(json.find("\"arch\": \"RoCo\""), std::string::npos);
    EXPECT_NE(json.find("\"rate\": 0.2"), std::string::npos);
    EXPECT_NE(json.find("\"avgLatency\""), std::string::npos);
    // Two points -> two result records.
    std::size_t n = 0;
    for (std::size_t at = json.find("\"result\""); at != std::string::npos;
         at = json.find("\"result\"", at + 1))
        ++n;
    EXPECT_EQ(n, 2u);

    // Quotes and control characters in labels are escaped.
    SweepSpec esc = spec;
    esc.name = "a\"b\\c\n";
    std::string escJson = sweepJson(esc, res);
    EXPECT_NE(escJson.find("\"a\\\"b\\\\c\\u000a\""), std::string::npos);
}

TEST(JsonOutTest, FailedWriteReturnsEmptyAndWarns)
{
    // /dev/full accepts open() and fails every flush with ENOSPC, the
    // way a full disk does.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this host";
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "json_out_XXXXXX")
            .string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    const std::filesystem::path dir(tmpl);
    std::filesystem::create_symlink("/dev/full", dir / "BENCH_t.json");

    const char *keepJson = std::getenv("NOC_BENCH_JSON");
    const std::string savedJson = keepJson ? keepJson : "";
    ASSERT_EQ(::unsetenv("NOC_BENCH_JSON"), 0);
    ASSERT_EQ(::setenv("NOC_BENCH_JSON_DIR", tmpl.c_str(), 1), 0);

    // A body that fits in the stdio buffer fails only at fclose; one
    // larger than the buffer fails in fwrite already.
    for (std::size_t size : {std::size_t{3}, std::size_t{1} << 20}) {
        testing::internal::CaptureStderr();
        EXPECT_EQ(writeBenchJson("t", std::string(size, ' ')), "") << size;
        EXPECT_NE(testing::internal::GetCapturedStderr().find(
                      "warning: cannot write"),
                  std::string::npos)
            << size;
    }
    // The same directory still takes an ordinary file.
    EXPECT_EQ(writeBenchJson("ok", "{}\n"), tmpl + "/BENCH_ok.json");

    ::unsetenv("NOC_BENCH_JSON_DIR");
    if (keepJson)
        ::setenv("NOC_BENCH_JSON", savedJson.c_str(), 1);
    std::filesystem::remove_all(dir);
}

TEST(ProofMemoTest, FingerprintIgnoresOperationalKnobs)
{
    SimConfig a = tinyConfig();
    SimConfig b = a;
    b.seed = 9999;
    b.injectionRate = 0.55;
    b.shards = 4;
    b.idleSkip = !a.idleSkip;
    b.warmupPackets = 0;
    b.measurePackets = 1;
    b.maxCycles = 123;
    EXPECT_EQ(check::proofFingerprint(a, check::ProofScope::Deadlock),
              check::proofFingerprint(b, check::ProofScope::Deadlock));
    EXPECT_EQ(check::proofFingerprint(a, check::ProofScope::Liveness),
              check::proofFingerprint(b, check::ProofScope::Liveness));

    SimConfig c = a;
    c.routing = RoutingKind::Adaptive;
    EXPECT_NE(check::proofFingerprint(a, check::ProofScope::Deadlock),
              check::proofFingerprint(c, check::ProofScope::Deadlock));
    EXPECT_NE(check::proofFingerprint(a, check::ProofScope::Liveness),
              check::proofFingerprint(c, check::ProofScope::Liveness));

    // VC count changes the deadlock graph but not the liveness matrix.
    SimConfig d = a;
    d.vcsPerPort = a.vcsPerPort + 1;
    EXPECT_NE(check::proofFingerprint(a, check::ProofScope::Deadlock),
              check::proofFingerprint(d, check::ProofScope::Deadlock));
    EXPECT_EQ(check::proofFingerprint(a, check::ProofScope::Liveness),
              check::proofFingerprint(d, check::ProofScope::Liveness));
}

TEST(ProofMemoTest, SaturationProbesNeverReprove)
{
    SaturationSpec spec;
    spec.base = tinyConfig();
    spec.base.warmupPackets = 10;
    spec.base.measurePackets = 60;
    spec.base.maxCycles = 20000;
    spec.rounds = 2;
    spec.probesPerRound = 2;
    spec.threads = 1;

    // Warm the memo: the first search proves the design (at most once
    // each — an earlier test in this binary may already have).
    findSaturation(spec);
    std::uint64_t d0 = check::deadlockProofsPerformed();
    std::uint64_t l0 = model::livenessProofsPerformed();

    // Same design under different operational settings: a different
    // pool size, different probe rates, a batch run. None of these may
    // trigger a re-proof — the memo keys on the design fingerprint
    // only.
    spec.threads = 3;
    spec.loRate = 0.03;
    spec.hiRate = 0.5;
    findSaturation(spec);
    runBatch(spec, 40);
    EXPECT_EQ(check::deadlockProofsPerformed(), d0);
    EXPECT_EQ(model::livenessProofsPerformed(), l0);
}

} // namespace
} // namespace noc::exp
