/**
 * @file
 * The sweep farm's contracts (src/farm): shard wire encoding, journal
 * state machine, crash/resume byte-identity and the sweep progress
 * hook.
 *
 * The headline test is FarmTest.KillResumeByteIdentical — the module's
 * acceptance criterion: a sweep whose workers are SIGKILLed mid-lease
 * and later resumed must emit a final BENCH json byte-identical to an
 * uninterrupted single-process run (and to the in-process serialiser).
 * Fork-based tests skip under ThreadSanitizer, which does not follow
 * children.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "exp/json_out.h"
#include "exp/sweep.h"
#include "farm/farm.h"
#include "farm/journal.h"
#include "farm/wire.h"

#if defined(__SANITIZE_THREAD__)
#define FARM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FARM_TSAN 1
#endif
#endif
#ifndef FARM_TSAN
#define FARM_TSAN 0
#endif

namespace {

using namespace noc;

/** A 4-point grid small enough that a whole farm run takes ~a second. */
exp::SweepSpec
tinySpec(const char *name)
{
    exp::SweepSpec spec;
    spec.name = name;
    spec.base.meshWidth = 4;
    spec.base.meshHeight = 4;
    spec.base.warmupPackets = 10;
    spec.base.measurePackets = 80;
    spec.base.maxCycles = 20000;
    spec.archs = {RouterArch::Generic, RouterArch::Roco};
    spec.rates = {0.05, 0.1};
    return spec;
}

void
removeFlatDir(const std::string &d)
{
    if (DIR *dp = ::opendir(d.c_str())) {
        while (dirent *e = ::readdir(dp)) {
            std::string n = e->d_name;
            if (n != "." && n != "..")
                ::unlink((d + "/" + n).c_str());
        }
        ::closedir(dp);
    }
    ::rmdir(d.c_str());
}

/** A journal dir under the test's cwd, wiped on construction + exit. */
struct TempJournal {
    std::string dir;
    explicit TempJournal(const std::string &name)
        : dir("farm_test_" + name)
    {
        wipe();
    }
    ~TempJournal() { wipe(); }
    void
    wipe() const
    {
        removeFlatDir(dir + "/leases");
        removeFlatDir(dir + "/shards");
        removeFlatDir(dir);
    }
};

std::string
readFile(const std::string &path)
{
    std::string out;
    if (std::FILE *f = std::fopen(path.c_str(), "rb")) {
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            out.append(buf, n);
        std::fclose(f);
    }
    return out;
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/** A pid guaranteed dead and reaped (fork a child that exits). */
pid_t
deadPid()
{
    pid_t pid = ::fork();
    if (pid == 0)
        ::_exit(0);
    int status = 0;
    ::waitpid(pid, &status, 0);
    return pid;
}

exp::PointResult
runPoint0(const exp::SweepSpec &spec)
{
    std::vector<exp::SweepPoint> points = exp::expand(spec);
    return exp::runSweepPoint(points[0]);
}

// ---------------------------------------------------------------- wire

TEST(WireTest, ShardRoundTripIsBitExact)
{
    exp::SweepSpec spec = tinySpec("wire_rt");
    std::vector<exp::SweepPoint> points = exp::expand(spec);
    exp::PointResult r = exp::runSweepPoint(points[1]);
    r.wallMs = 12.345678901234567; // survives only via %a hex-floats

    std::string bytes =
        farm::encodePointResult(farm::jobId(points[1]), r, 3, 7);
    auto dec = farm::decodePointResult(bytes);
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(dec->jobId, farm::jobId(points[1]));
    EXPECT_EQ(dec->attempt, 3u);
    EXPECT_EQ(dec->worker, 7);
    EXPECT_EQ(dec->point.index, r.index);
    EXPECT_EQ(dec->point.seed, r.seed);
    // Bit-exact doubles: memcmp, not ==, so -0.0 and NaN patterns
    // would also be caught.
    EXPECT_EQ(std::memcmp(&dec->point.wallMs, &r.wallMs, sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&dec->point.result.avgLatency,
                          &r.result.avgLatency, sizeof(double)),
              0);
    EXPECT_EQ(dec->point.result.cycles, r.result.cycles);
    EXPECT_EQ(dec->point.result.delivered, r.result.delivered);
    EXPECT_EQ(std::memcmp(&dec->point.result.energyPerPacketNj,
                          &r.result.energyPerPacketNj, sizeof(double)),
              0);
}

TEST(WireTest, TornShardRejected)
{
    exp::SweepSpec spec = tinySpec("wire_torn");
    exp::PointResult r = runPoint0(spec);
    std::string bytes = farm::encodePointResult("00000000deadbeef", r);

    // Missing trailer (the torn-write signature).
    std::string noEnd = bytes.substr(0, bytes.rfind("end"));
    EXPECT_FALSE(farm::decodePointResult(noEnd).has_value());

    // Truncated mid-line.
    EXPECT_FALSE(
        farm::decodePointResult(bytes.substr(0, bytes.size() / 2))
            .has_value());

    // Unknown field: reject the whole shard, never skip silently.
    std::string unknown = bytes;
    unknown.insert(unknown.rfind("end"), "bogusField 1\n");
    EXPECT_FALSE(farm::decodePointResult(unknown).has_value());

    // The pristine bytes still decode (the edits above are at fault).
    EXPECT_TRUE(farm::decodePointResult(bytes).has_value());
}

TEST(WireTest, FlatJsonParsesFlatRejectsNested)
{
    auto j = farm::FlatJson::parse(
        "{\"op\": \"sim\", \"rate\": 0.25, \"service\": true}");
    ASSERT_TRUE(j.has_value());
    EXPECT_EQ(j->str("op"), "sim");
    EXPECT_DOUBLE_EQ(j->num("rate"), 0.25);
    EXPECT_DOUBLE_EQ(j->num("mesh", 8), 8);

    EXPECT_FALSE(farm::FlatJson::parse("{\"a\": {\"b\": 1}}").has_value());
    EXPECT_FALSE(farm::FlatJson::parse("{\"a\": [1, 2]}").has_value());
    EXPECT_FALSE(farm::FlatJson::parse("not json").has_value());
}

// ------------------------------------------------------------- journal

TEST(JournalTest, JobIdStableAndBlindToOperationalKnobs)
{
    exp::SweepSpec spec = tinySpec("ids");
    std::vector<exp::SweepPoint> a = exp::expand(spec);
    std::vector<exp::SweepPoint> b = exp::expand(spec);
    ASSERT_EQ(a.size(), 4u);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(farm::jobId(a[i]), farm::jobId(b[i]));

    // Wall-clock-only knobs are not part of a job's identity: the same
    // design run sharded or with idle-skip is the same job.
    exp::SweepPoint knobs = a[0];
    knobs.cfg.shards = 4;
    knobs.cfg.idleSkip = !knobs.cfg.idleSkip;
    EXPECT_EQ(farm::jobId(knobs), farm::jobId(a[0]));

    // Result-affecting fields are.
    exp::SweepPoint seed = a[0];
    seed.cfg.seed += 1;
    EXPECT_NE(farm::jobId(seed), farm::jobId(a[0]));
    exp::SweepPoint rate = a[0];
    rate.cfg.injectionRate += 0.01;
    EXPECT_NE(farm::jobId(rate), farm::jobId(a[0]));

    // Ids are distinct across the grid.
    for (std::size_t i = 0; i < a.size(); ++i)
        for (std::size_t k = i + 1; k < a.size(); ++k)
            EXPECT_NE(farm::jobId(a[i]), farm::jobId(a[k]));
}

TEST(JournalTest, LeaseIsExclusive)
{
    exp::SweepSpec spec = tinySpec("lease");
    std::vector<std::string> ids = farm::jobIds(exp::expand(spec));
    TempJournal tmp("lease");
    std::string err;
    auto j = farm::Journal::open(tmp.dir, spec, ids, &err);
    ASSERT_TRUE(j.has_value()) << err;

    auto first = j->tryLease(0, /*worker=*/0);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(*first, 1u);
    // A live, unexpired lease cannot be claimed or stolen.
    EXPECT_FALSE(j->tryLease(0, /*worker=*/1).has_value());
    // Other jobs are unaffected.
    EXPECT_TRUE(j->tryLease(1, /*worker=*/1).has_value());
}

TEST(JournalTest, DeadHolderLeaseStolenWithAttemptBump)
{
    exp::SweepSpec spec = tinySpec("steal");
    std::vector<std::string> ids = farm::jobIds(exp::expand(spec));
    TempJournal tmp("steal");
    std::string err;
    auto j = farm::Journal::open(tmp.dir, spec, ids, &err);
    ASSERT_TRUE(j.has_value()) << err;

    // Forge job 0's lease as held (attempt 3) by a reaped pid — the
    // kill -9'd worker, as the journal sees it. The timestamp is fresh,
    // so only the dead-holder path can justify the steal.
    std::string lease = tmp.dir + "/leases/" + ids[0];
    std::string body = "{\"pid\": " + std::to_string(deadPid()) +
                       ", \"worker\": 0, \"attempt\": 3, \"sinceMs\": "
                       "9999999999999}";
    std::FILE *f = std::fopen(lease.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);

    auto stolen = j->tryLease(0, /*worker=*/1);
    ASSERT_TRUE(stolen.has_value());
    EXPECT_EQ(*stolen, 4u); // holder's attempt + 1
    EXPECT_TRUE(fileExists(lease + ".stale.3")); // tombstoned, not lost
    auto info = j->readLease(0);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->worker, 1);
    EXPECT_EQ(info->attempt, 4u);
}

TEST(JournalTest, ExpiredLeaseStolenViaTtlBackstop)
{
    exp::SweepSpec spec = tinySpec("ttl");
    std::vector<std::string> ids = farm::jobIds(exp::expand(spec));
    TempJournal tmp("ttl");
    std::string err;
    auto j = farm::Journal::open(tmp.dir, spec, ids, &err);
    ASSERT_TRUE(j.has_value()) << err;
    j->leaseTtlSec = 0.001;

    ASSERT_TRUE(j->tryLease(0, /*worker=*/0).has_value());
    ::usleep(10 * 1000); // let the 1 ms TTL lapse
    // Our own pid is alive, so only the TTL backstop allows this steal
    // (the wedged-worker / recycled-pid recovery path).
    auto stolen = j->tryLease(0, /*worker=*/1);
    ASSERT_TRUE(stolen.has_value());
    EXPECT_EQ(*stolen, 2u);
}

TEST(JournalTest, CommitIsIdempotentAndClearsLease)
{
    exp::SweepSpec spec = tinySpec("commit");
    std::vector<exp::SweepPoint> points = exp::expand(spec);
    std::vector<std::string> ids = farm::jobIds(points);
    TempJournal tmp("commit");
    std::string err;
    auto j = farm::Journal::open(tmp.dir, spec, ids, &err);
    ASSERT_TRUE(j.has_value()) << err;

    exp::PointResult r = exp::runSweepPoint(points[0]);
    std::string bytes = farm::encodePointResult(ids[0], r);

    ASSERT_TRUE(j->tryLease(0, 0).has_value());
    EXPECT_FALSE(j->isDone(0));
    EXPECT_TRUE(j->commit(0, bytes));
    EXPECT_TRUE(j->isDone(0));
    EXPECT_EQ(j->doneCount(), 1u);
    // The lease is gone: a done job is never re-leased.
    EXPECT_FALSE(j->readLease(0).has_value());
    EXPECT_FALSE(j->tryLease(0, 1).has_value());

    // A duplicate commit (the stolen-then-both-finish race) is a no-op:
    // first writer wins, and the first bytes stand.
    std::string other = farm::encodePointResult(ids[0], r, 9, 9);
    EXPECT_FALSE(j->commit(0, other));
    auto back = j->readShard(0);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->attempt, 1u);

    // No temp files left behind by either commit.
    std::string tmpShard = tmp.dir + "/shards/" + ids[0] + ".tmp." +
                           std::to_string(::getpid());
    EXPECT_FALSE(fileExists(tmpShard));
}

TEST(JournalTest, ShardUnderWrongJobIdRejected)
{
    exp::SweepSpec spec = tinySpec("wrongid");
    std::vector<exp::SweepPoint> points = exp::expand(spec);
    std::vector<std::string> ids = farm::jobIds(points);
    TempJournal tmp("wrongid");
    std::string err;
    auto j = farm::Journal::open(tmp.dir, spec, ids, &err);
    ASSERT_TRUE(j.has_value()) << err;

    // Job 1's shard file recorded under job 0's id: decodable bytes,
    // wrong identity — readShard must refuse it.
    exp::PointResult r = exp::runSweepPoint(points[1]);
    ASSERT_TRUE(j->commit(1, farm::encodePointResult(ids[0], r)));
    EXPECT_FALSE(j->readShard(1).has_value());
}

TEST(JournalTest, ManifestRejectsADifferentSpec)
{
    exp::SweepSpec spec = tinySpec("manifest");
    std::vector<std::string> ids = farm::jobIds(exp::expand(spec));
    TempJournal tmp("manifest");
    std::string err;
    ASSERT_TRUE(farm::Journal::open(tmp.dir, spec, ids, &err).has_value())
        << err;

    // Same directory, same point count, different grid: the resumed
    // spec's fingerprint must not match the manifest.
    exp::SweepSpec other = spec;
    other.rates = {0.05, 0.2};
    std::vector<std::string> otherIds = farm::jobIds(exp::expand(other));
    ASSERT_EQ(otherIds.size(), ids.size());
    std::string err2;
    EXPECT_FALSE(
        farm::Journal::open(tmp.dir, other, otherIds, &err2).has_value());
    EXPECT_NE(err2.find("fingerprint"), std::string::npos) << err2;

    // The matching spec still opens (resume path).
    std::string err3;
    EXPECT_TRUE(farm::Journal::open(tmp.dir, spec, ids, &err3).has_value())
        << err3;
}

// ------------------------------------------------- farm (multi-process)

/**
 * The acceptance criterion: SIGKILL both workers mid-lease, resume,
 * and the final json must be byte-identical to (a) an uninterrupted
 * single-worker farm run and (b) the in-process serialiser's canonical
 * schema-4 output for the same spec.
 */
TEST(FarmTest, KillResumeByteIdentical)
{
    if (FARM_TSAN)
        GTEST_SKIP() << "farm forks workers; tsan does not follow forks";

    exp::SweepSpec spec = tinySpec("farm_kill");
    TempJournal interrupted("kill_resume");
    TempJournal clean("uninterrupted");

    // Lane 1: every worker SIGKILLs itself right after its first
    // lease — the sweep makes no progress and leaves dangling leases.
    ::setenv("NOC_FARM_CRASH_AFTER", "1", 1);
    farm::FarmOptions opts;
    opts.dir = interrupted.dir;
    opts.workers = 2;
    farm::FarmRun crashed = farm::runFarm(spec, opts);
    ::unsetenv("NOC_FARM_CRASH_AFTER");
    EXPECT_FALSE(crashed.complete);
    EXPECT_EQ(crashed.workerFailures, 2);
    EXPECT_LT(crashed.ran, crashed.jobs);

    // Resume against the same journal: the survivors steal the dead
    // holders' leases and complete the rest.
    farm::FarmRun resumed = farm::runFarm(spec, opts);
    ASSERT_TRUE(resumed.complete) << resumed.error;
    EXPECT_EQ(resumed.jobs, 4u);

    // Lane 2: the same spec, uninterrupted, one worker, fresh journal.
    farm::FarmOptions cleanOpts;
    cleanOpts.dir = clean.dir;
    cleanOpts.workers = 1;
    farm::FarmRun straight = farm::runFarm(spec, cleanOpts);
    ASSERT_TRUE(straight.complete) << straight.error;

    std::string a = readFile(resumed.jsonPath);
    std::string b = readFile(straight.jsonPath);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "resumed farm json != uninterrupted farm json";

    // Lane 3: the in-process serialiser with the same canonical options
    // — the farm must reproduce its bytes exactly.
    exp::SweepResults res = exp::SweepRunner(1).run(spec);
    exp::JsonOptions jopts;
    jopts.schema = 4;
    jopts.canonical = true;
    std::vector<std::string> ids = farm::jobIds(res.points);
    jopts.jobIds = &ids;
    EXPECT_EQ(a, exp::sweepJson(spec, res, jopts))
        << "farm json != in-process canonical serialisation";
}

TEST(FarmTest, SecondRunReusesEveryShard)
{
    if (FARM_TSAN)
        GTEST_SKIP() << "farm forks workers; tsan does not follow forks";

    exp::SweepSpec spec = tinySpec("farm_reuse");
    TempJournal tmp("reuse");
    farm::FarmOptions opts;
    opts.dir = tmp.dir;
    opts.workers = 2;

    farm::FarmRun first = farm::runFarm(spec, opts);
    ASSERT_TRUE(first.complete) << first.error;
    EXPECT_EQ(first.reused, 0u);
    std::string bytes = readFile(first.jsonPath);

    farm::FarmRun second = farm::runFarm(spec, opts);
    ASSERT_TRUE(second.complete) << second.error;
    EXPECT_EQ(second.reused, 4u);
    EXPECT_EQ(second.ran, 0u);
    EXPECT_EQ(readFile(second.jsonPath), bytes);
}

TEST(FarmTest, ProvenanceBreaksByteIdentityOnPurpose)
{
    if (FARM_TSAN)
        GTEST_SKIP() << "farm forks workers; tsan does not follow forks";

    exp::SweepSpec spec = tinySpec("farm_prov");
    TempJournal tmp("prov");
    farm::FarmOptions opts;
    opts.dir = tmp.dir;
    opts.workers = 1;
    opts.provenance = true;
    farm::FarmRun run = farm::runFarm(spec, opts);
    ASSERT_TRUE(run.complete) << run.error;

    std::string bytes = readFile(run.jsonPath);
    // The operational block is present (attempt/worker/wallMs)...
    EXPECT_NE(bytes.find("\"attempt\": 1"), std::string::npos);
    EXPECT_NE(bytes.find("\"worker\": 0"), std::string::npos);
    // ...and the file no longer matches the canonical serialisation.
    exp::SweepResults res = exp::SweepRunner(1).run(spec);
    exp::JsonOptions jopts;
    jopts.schema = 4;
    jopts.canonical = true;
    std::vector<std::string> ids = farm::jobIds(res.points);
    jopts.jobIds = &ids;
    EXPECT_NE(bytes, exp::sweepJson(spec, res, jopts));
}

// ------------------------------------------------------------ progress

TEST(ProgressTest, CallbackFiresOncePerPointWithoutPerturbingResults)
{
    exp::SweepSpec spec = tinySpec("progress");

    std::mutex mu;
    std::vector<exp::SweepProgress> seen;
    exp::ProgressFn progress = [&](const exp::SweepProgress &p) {
        std::lock_guard<std::mutex> lock(mu);
        seen.push_back(p);
    };
    exp::SweepResults withHook = exp::SweepRunner(2).run(spec, progress);
    exp::SweepResults plain = exp::SweepRunner(2).run(spec);

    ASSERT_EQ(seen.size(), 4u);
    std::vector<bool> indexSeen(4, false), doneSeen(5, false);
    for (const exp::SweepProgress &p : seen) {
        EXPECT_EQ(p.total, 4u);
        ASSERT_LT(p.index, 4u);
        EXPECT_FALSE(indexSeen[p.index]) << "point reported twice";
        indexSeen[p.index] = true;
        ASSERT_GE(p.done, 1u);
        ASSERT_LE(p.done, 4u);
        EXPECT_FALSE(doneSeen[p.done]) << "done count reported twice";
        doneSeen[p.done] = true;
        // The reported cycle count is the point's real one.
        EXPECT_EQ(p.cycles, withHook.results[p.index].result.cycles);
    }

    // Observing progress never changes results.
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(withHook.results[i].result.avgLatency,
                  plain.results[i].result.avgLatency);
        EXPECT_EQ(withHook.results[i].result.cycles,
                  plain.results[i].result.cycles);
        EXPECT_EQ(withHook.results[i].result.energyPerPacketNj,
                  plain.results[i].result.energyPerPacketNj);
    }
}

TEST(ProgressTest, EnvOverridesDefault)
{
    ::setenv("NOC_PROGRESS", "0", 1);
    EXPECT_FALSE(exp::progressEnabled(true));
    ::setenv("NOC_PROGRESS", "1", 1);
    EXPECT_TRUE(exp::progressEnabled(false));
    ::unsetenv("NOC_PROGRESS");
    EXPECT_TRUE(exp::progressEnabled(true));
    EXPECT_FALSE(exp::progressEnabled(false));
}

} // namespace
