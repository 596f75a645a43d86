/**
 * @file
 * The sweep farm's contracts (src/farm): the result shard format,
 * journal state machine, crash/resume byte-identity and the sweep
 * progress hook.
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
#include <optional>
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
#include "result_print.h"

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

/** tinySpec(@p name) and a fresh journal for it (j; nullopt on error). */
struct TestJournal : TempJournal {
    exp::SweepSpec spec;
    std::vector<exp::SweepPoint> points;
    std::vector<std::string> ids;
    std::optional<farm::Journal> j;

    explicit TestJournal(const char *name)
        : TempJournal(name), spec(tinySpec(name)), points(exp::expand(spec)),
          ids(farm::jobIds(points)),
          j(farm::Journal::open(dir, spec, ids, nullptr))
    {
    }
    std::string shard(std::size_t i) const { return dir + "/shards/" + ids[i]; }
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

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
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

// ---------------------------------------------------------------- wire

/** @p shard with the first digit of @p key's value in its result line
 *  moved by one (20.05 -> 21.05, say); unchanged when @p key is absent. */
std::string
bumpDigit(std::string shard, const std::string &key)
{
    const std::string field = "\"" + key + "\": ";
    std::size_t at = shard.find(field, shard.find('\n'));
    if (at != std::string::npos) {
        char &d = shard[at + field.size()];
        d = d == '9' ? '8' : static_cast<char>(d + 1);
    }
    return shard;
}

TEST(WireTest, ShardRoundTripIsBitExact)
{
    TestJournal t("wire_rt");
    ASSERT_TRUE(t.j.has_value());
    auto &j = t.j;

    exp::PointResult r = exp::runSweepPoint(t.points[1]);
    r.wallMs = 12.345678901234567; // needs all 17 significant digits
    r.seed = 0xfedcba9876543211ull; // not representable as a double
    ASSERT_TRUE(j->commit(1, r, 3, 7));

    // Line two is json_out's result text, byte for byte.
    std::string bytes = readFile(t.shard(1));
    ASSERT_NE(bytes.find('\n'), std::string::npos);
    EXPECT_EQ(bytes.substr(bytes.find('\n') + 1),
              exp::resultJson(r.result) + "\n");

    auto back = j->readShard(1);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->seed, r.seed);
    EXPECT_EQ(back->attempt, 3u);
    EXPECT_EQ(back->worker, 7);
    // Bit-exact wall time: memcmp, not ==.
    EXPECT_EQ(std::memcmp(&back->wallMs, &r.wallMs, sizeof(double)), 0);
    EXPECT_EQ(back->result, exp::resultJson(r.result));
}

TEST(WireTest, TornShardRejected)
{
    TestJournal t("wire_torn");
    ASSERT_TRUE(t.j.has_value());
    auto &j = t.j;
    ASSERT_TRUE(j->commit(0, exp::runSweepPoint(t.points[0])));

    const std::string good = readFile(t.shard(0));
    auto rejected = [&](const std::string &bytes) {
        writeFile(t.shard(0), bytes);
        return !j->readShard(0).has_value();
    };

    // One digit of the result line changed.
    EXPECT_TRUE(rejected(bumpDigit(good, "avgLatency")));

    // Truncated: mid-file, at the header, or just the final newline.
    EXPECT_TRUE(rejected(good.substr(0, good.size() / 2)));
    EXPECT_TRUE(rejected(good.substr(0, good.find('\n') + 1)));
    EXPECT_TRUE(rejected(good.substr(0, good.size() - 1)));
    // A trailing line is not part of the format either.
    EXPECT_TRUE(rejected(good + "{}\n"));

    // A shard in the older line-per-field format.
    EXPECT_TRUE(rejected("rocosim-shard 1\njob " + t.ids[0] +
                         "\nattempt 1\nworker 0\nindex 0\n"
                         "avgLatency 0x1.4p+4\nend\n"));

    // The pristine bytes still read (the edits above are at fault).
    EXPECT_FALSE(rejected(good));
}

TEST(WireTest, FlatJsonParsesFlatRejectsNested)
{
    auto j = farm::FlatJson::parse(
        "{\"op\": \"sim\", \"rate\": 0.25, \"service\": true}");
    ASSERT_TRUE(j.has_value());
    EXPECT_EQ(j->str("op"), "sim");
    EXPECT_EQ(j->num<double>("rate"), 0.25);
    EXPECT_FALSE(j->num<int>("rate").has_value()); // not a whole number
    EXPECT_FALSE(j->num<double>("op").has_value()); // a string
    EXPECT_FALSE(j->num<double>("mesh").has_value()); // absent

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
    TestJournal t("lease");
    ASSERT_TRUE(t.j.has_value());
    auto &j = t.j;

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
    TestJournal t("steal");
    ASSERT_TRUE(t.j.has_value());
    auto &j = t.j;

    // Forge job 0's lease as held (attempt 3) by a reaped pid — the
    // kill -9'd worker, as the journal sees it. The timestamp is fresh,
    // so only the dead-holder path can justify the steal.
    std::string lease = t.dir + "/leases/" + t.ids[0];
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
    TestJournal t("ttl");
    ASSERT_TRUE(t.j.has_value());
    auto &j = t.j;
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
    TestJournal t("commit");
    ASSERT_TRUE(t.j.has_value());
    auto &j = t.j;

    exp::PointResult r = exp::runSweepPoint(t.points[0]);

    ASSERT_TRUE(j->tryLease(0, 0).has_value());
    EXPECT_FALSE(j->isDone(0));
    EXPECT_TRUE(j->commit(0, r));
    EXPECT_TRUE(j->isDone(0));
    EXPECT_EQ(j->doneCount(), 1u);
    // The lease is gone: a done job is never re-leased.
    EXPECT_FALSE(j->readLease(0).has_value());
    EXPECT_FALSE(j->tryLease(0, 1).has_value());

    // A duplicate commit (the stolen-then-both-finish race) is a no-op:
    // first writer wins, and the first bytes stand.
    EXPECT_FALSE(j->commit(0, r, 9, 9));
    auto back = j->readShard(0);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->attempt, 1u);

    // No temp files left behind by either commit.
    EXPECT_FALSE(fileExists(t.shard(0) + ".tmp." +
                            std::to_string(::getpid())));
}

TEST(JournalTest, ShardUnderWrongJobIdRejected)
{
    TestJournal t("wrongid");
    ASSERT_TRUE(t.j.has_value());
    auto &j = t.j;

    // Job 0's shard filed as job 1's: intact bytes, wrong identity —
    // readShard must refuse it.
    ASSERT_TRUE(j->commit(0, exp::runSweepPoint(t.points[0])));
    writeFile(t.shard(1), readFile(t.shard(0)));
    EXPECT_TRUE(j->readShard(0).has_value());
    EXPECT_FALSE(j->readShard(1).has_value());
}

TEST(FarmTest, CorruptShardIsNamedAndNoJsonWritten)
{
    TestJournal t("corrupt");
    ASSERT_TRUE(t.j.has_value());
    for (std::size_t i = 0; i < t.points.size(); ++i)
        ASSERT_TRUE(t.j->commit(i, exp::runSweepPoint(t.points[i])));

    farm::FarmOptions opts;
    opts.dir = t.dir;
    farm::FarmRun good = farm::runFarm(t.spec, opts);
    ASSERT_TRUE(good.complete) << good.error;
    ASSERT_EQ(::unlink(good.jsonPath.c_str()), 0);

    // One digit changed in shard 2's result line.
    const std::string shard2 = readFile(t.shard(2));
    writeFile(t.shard(2), bumpDigit(shard2, "cycles"));

    farm::FarmRun bad = farm::runFarm(t.spec, opts);
    EXPECT_FALSE(bad.complete);
    EXPECT_NE(bad.error.find(t.ids[2]), std::string::npos) << bad.error;
    EXPECT_FALSE(fileExists(good.jsonPath));

    // Shard 2 restored; shard 1's header claims a seventh attempt. The
    // digest covers the header too, so --provenance never sees it.
    writeFile(t.shard(2), shard2);
    std::string shard1 = readFile(t.shard(1));
    const std::size_t at = shard1.find("\"attempt\": 1,");
    ASSERT_NE(at, std::string::npos) << shard1;
    shard1[at + std::string("\"attempt\": ").size()] = '7';
    writeFile(t.shard(1), shard1);

    opts.provenance = true;
    farm::FarmRun edited = farm::runFarm(t.spec, opts);
    EXPECT_FALSE(edited.complete);
    EXPECT_NE(edited.error.find(t.ids[1]), std::string::npos)
        << edited.error;
    EXPECT_FALSE(fileExists(good.jsonPath));
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
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(withHook.results[i].result, plain.results[i].result);
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
