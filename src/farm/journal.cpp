#include "farm/journal.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string_view>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include "exp/json_out.h"

namespace noc::farm {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

struct Fnv {
    std::uint64_t h = kFnvOffset;

    void
    bytes(const void *p, std::size_t n)
    {
        const unsigned char *c = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= c[i];
            h *= kFnvPrime;
        }
    }
    void
    u64(std::uint64_t v)
    {
        bytes(&v, sizeof(v));
    }
    void
    f64(double v)
    {
        // Hash the bit pattern: exact, and distinguishes -0.0 / NaN
        // payloads just like the simulation would.
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }
    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
};

/** Wall-clock epoch milliseconds, for lease timestamps only. */
std::uint64_t
nowMs()
{
    struct timespec ts;
    clock_gettime(CLOCK_REALTIME, &ts); // noc-lint:allow(det-wallclock) lease expiry is operational metadata, never a result
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000ull +
           static_cast<std::uint64_t>(ts.tv_nsec) / 1000000ull;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    out.clear();
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    bool ok = std::ferror(f) == 0;
    std::fclose(f);
    return ok;
}

/** Writes @p bytes to @p path and fsyncs it; no file on failure. */
bool
writeDurable(const std::string &path, const std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        return false;
    bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    ok = std::fflush(f) == 0 && ok;
    ok = ::fsync(::fileno(f)) == 0 && ok;
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        ::unlink(path.c_str());
    return ok;
}

/** write-temp-then-rename: readers never observe a partial file. */
bool
writeFileAtomic(const std::string &path, const std::string &bytes)
{
    std::string tmp = path + ".tmp." + std::to_string(::getpid());
    if (!writeDurable(tmp, bytes))
        return false;
    if (::rename(tmp.c_str(), path.c_str()) == 0)
        return true;
    ::unlink(tmp.c_str());
    return false;
}

/** 16 lower-case hex digits, the spelling of job ids and digests. */
std::string
hex16(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

/** Where a shard header's digest field starts: it is the last field. */
constexpr std::string_view kDigestField = ", \"digest\": \"";

/**
 * Shard line one: @p head (every header field but the digest) closed
 * by the digest field, the FNV-1a hash of @p head, a newline and the
 * result line @p result. An edit to any header field or to the result
 * then fails the digest.
 */
std::string
sealedHeader(std::string_view head, const std::string &result)
{
    Fnv h;
    h.bytes(head.data(), head.size());
    h.bytes("\n", 1);
    h.bytes(result.data(), result.size());
    std::string line(head);
    line += kDigestField;
    line += hex16(h.h);
    line += "\"}";
    return line;
}

bool
ensureDir(const std::string &path)
{
    if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST)
        return true;
    return false;
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

} // namespace

std::uint64_t
jobKey(const exp::SweepPoint &p)
{
    Fnv h;
    // Grid position: keeps ids unique even if two cells resolve to the
    // same config (e.g. a rate listed twice), and is just as stable.
    h.u64(p.index);

    const SimConfig &c = p.cfg;
    h.u64(static_cast<std::uint64_t>(c.meshWidth));
    h.u64(static_cast<std::uint64_t>(c.meshHeight));
    h.u64(static_cast<std::uint64_t>(c.arch));
    h.u64(static_cast<std::uint64_t>(c.routing));
    h.u64(static_cast<std::uint64_t>(c.vcsPerPort));
    h.u64(static_cast<std::uint64_t>(c.bufferDepthGeneric));
    h.u64(static_cast<std::uint64_t>(c.bufferDepthModular));
    h.u64(static_cast<std::uint64_t>(c.hopDelay));
    h.u64(static_cast<std::uint64_t>(c.creditDelay));
    h.u64(static_cast<std::uint64_t>(c.traffic));
    h.f64(c.injectionRate);
    h.u64(static_cast<std::uint64_t>(c.flitsPerPacket));
    h.u64(static_cast<std::uint64_t>(c.flitBits));
    h.f64(c.hotspotFraction);
    h.str(c.traceFile);
    h.u64(c.seed);
    h.u64(c.warmupPackets);
    h.u64(c.measurePackets);
    h.u64(c.maxCycles);
    // cfg.shards and cfg.idleSkip deliberately not hashed: wall-clock
    // knobs, bit-identical results (src/par contract).
    h.u64(c.svc.enabled ? 1 : 0);
    h.f64(c.svc.highTierFraction);
    h.u64(static_cast<std::uint64_t>(c.svc.mshrsPerNode));
    h.u64(c.svc.serviceLatency);
    h.u64(c.svc.mshrTimeout);
    h.u64(c.svc.classVcPartition ? 1 : 0);
    h.u64(c.svc.endpointReserve ? 1 : 0);
    h.u64(static_cast<std::uint64_t>(c.svc.replyFlits));
    h.u64(c.svc.sloHighCycles);
    h.u64(c.svc.sloBulkCycles);
    h.u64(c.svc.batch ? 1 : 0);

    h.str(p.faultLabel);
    h.u64(p.faults.size());
    for (const FaultSpec &f : p.faults) {
        h.u64(static_cast<std::uint64_t>(f.node));
        h.u64(static_cast<std::uint64_t>(f.component));
        h.u64(static_cast<std::uint64_t>(f.module));
        h.u64(static_cast<std::uint64_t>(f.portIndex));
        h.u64(static_cast<std::uint64_t>(f.vcIndex));
    }
    return h.h;
}

std::string
jobId(const exp::SweepPoint &p)
{
    return hex16(jobKey(p));
}

std::vector<std::string>
jobIds(const std::vector<exp::SweepPoint> &points)
{
    std::vector<std::string> ids;
    ids.reserve(points.size());
    for (const exp::SweepPoint &p : points)
        ids.push_back(jobId(p));
    return ids;
}

std::string
specFingerprint(const exp::SweepSpec &spec,
                const std::vector<std::string> &ids)
{
    Fnv h;
    h.str(spec.name);
    h.u64(ids.size());
    for (const std::string &id : ids)
        h.str(id);
    return hex16(h.h);
}

std::optional<Journal>
Journal::open(const std::string &dir, const exp::SweepSpec &spec,
              const std::vector<std::string> &ids, std::string *err)
{
    auto fail = [&](const std::string &why) -> std::optional<Journal> {
        if (err)
            *err = why;
        return std::nullopt;
    };

    if (!ensureDir(dir) || !ensureDir(dir + "/leases") ||
        !ensureDir(dir + "/shards"))
        return fail("cannot create journal directory " + dir);

    std::string fp = specFingerprint(spec, ids);
    std::string manifestPath = dir + "/MANIFEST.json";
    std::string existing;
    if (readFile(manifestPath, existing)) {
        auto m = FlatJson::parse(existing);
        if (!m)
            return fail("corrupt manifest in " + dir);
        if (m->str("bench") != spec.name)
            return fail("journal belongs to bench '" + m->str("bench") +
                        "', not '" + spec.name + "'");
        if (m->num<std::uint64_t>("points") != ids.size() ||
            m->str("fingerprint") != fp)
            return fail("journal spec fingerprint mismatch — the journal "
                        "was created from a different sweep spec");
    } else {
        std::string m = "{\"farm\": 1, \"bench\": \"" + spec.name +
                        "\", \"points\": " + std::to_string(ids.size()) +
                        ", \"fingerprint\": \"" + fp + "\"}";
        if (!writeFileAtomic(manifestPath, m))
            return fail("cannot write manifest in " + dir);
    }

    Journal j;
    j.dir_ = dir;
    j.ids_ = ids;
    return j;
}

std::string
Journal::leasePath(std::size_t i) const
{
    return dir_ + "/leases/" + ids_[i];
}

std::string
Journal::shardPath(std::size_t i) const
{
    return dir_ + "/shards/" + ids_[i];
}

bool
Journal::isDone(std::size_t i) const
{
    return fileExists(shardPath(i));
}

std::size_t
Journal::doneCount() const
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < ids_.size(); ++i)
        if (isDone(i))
            ++n;
    return n;
}

std::optional<LeaseInfo>
Journal::readLease(std::size_t i) const
{
    std::string bytes;
    if (!readFile(leasePath(i), bytes))
        return std::nullopt;
    auto j = FlatJson::parse(bytes);
    if (!j)
        return std::nullopt;
    LeaseInfo info;
    info.pid = j->num<int>("pid").value_or(0);
    info.worker = j->num<int>("worker").value_or(-1);
    info.attempt = static_cast<std::uint32_t>(
        j->num<std::uint64_t>("attempt").value_or(1));
    info.sinceMs = j->num<std::uint64_t>("sinceMs").value_or(0);
    return info;
}

namespace {

/** O_CREAT|O_EXCL claim; the exclusive create is the race arbiter. */
bool
createLease(const std::string &path, int worker, std::uint32_t attempt)
{
    int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0666);
    if (fd < 0)
        return false;
    std::string body = "{\"pid\": " + std::to_string(::getpid()) +
                       ", \"worker\": " + std::to_string(worker) +
                       ", \"attempt\": " + std::to_string(attempt) +
                       ", \"sinceMs\": " + std::to_string(nowMs()) + "}";
    bool ok =
        ::write(fd, body.data(), body.size()) ==
        static_cast<ssize_t>(body.size());
    ::close(fd);
    if (!ok)
        ::unlink(path.c_str());
    return ok;
}

} // namespace

std::optional<std::uint32_t>
Journal::tryLease(std::size_t i, int worker)
{
    if (isDone(i))
        return std::nullopt;

    std::string path = leasePath(i);
    if (createLease(path, worker, 1))
        return 1;

    // Somebody holds (or held) the lease. Steal only when the holder
    // is provably gone or the TTL backstop has expired.
    auto info = readLease(i);
    if (!info)
        return std::nullopt; // vanished: committed or stolen, rescan
    bool holderDead =
        info->pid > 0 &&
        ::kill(static_cast<pid_t>(info->pid), 0) == -1 && errno == ESRCH;
    bool expired =
        leaseTtlSec > 0 &&
        nowMs() > info->sinceMs +
                      static_cast<std::uint64_t>(leaseTtlSec * 1000.0);
    if (!holderDead && !expired)
        return std::nullopt;

    // rename() is atomic: exactly one of the racing stealers moves the
    // stale lease to its tombstone; everyone else gets ENOENT.
    std::string tomb =
        path + ".stale." + std::to_string(info->attempt);
    if (::rename(path.c_str(), tomb.c_str()) != 0)
        return std::nullopt;
    std::uint32_t attempt = info->attempt + 1;
    if (!createLease(path, worker, attempt))
        return std::nullopt; // a third claimant slipped in; let it run
    if (isDone(i)) {
        // The old holder committed between our expiry check and the
        // steal; our fresh lease is moot. Drop it.
        ::unlink(path.c_str());
        return std::nullopt;
    }
    return attempt;
}

bool
Journal::commit(std::size_t i, const exp::PointResult &r,
                std::uint32_t attempt, int worker)
{
    std::string result = exp::resultJson(r.result);
    std::string head = "{\"shard\": 3, \"job\": \"" + ids_[i] +
                       "\", \"index\": " + std::to_string(r.index) +
                       ", \"seed\": " + std::to_string(r.seed) +
                       ", \"attempt\": " + std::to_string(attempt) +
                       ", \"worker\": " + std::to_string(worker) +
                       ", \"wallMs\": ";
    exp::appendNum(head, r.wallMs);
    std::string bytes = sealedHeader(head, result);
    bytes += '\n';
    bytes += result;
    bytes += '\n';

    std::string tmp =
        shardPath(i) + ".tmp." + std::to_string(::getpid());
    if (!writeDurable(tmp, bytes))
        return false;
    // link() publishes the fully-written temp file under the final
    // name atomically; EEXIST is a duplicate commit of the same
    // deterministic job — the first writer's (identical) bytes stand.
    bool created = ::link(tmp.c_str(), shardPath(i).c_str()) == 0;
    bool duplicate = !created && errno == EEXIST;
    ::unlink(tmp.c_str());
    if (created || duplicate)
        ::unlink(leasePath(i).c_str());
    return created;
}

std::optional<Shard>
Journal::readShard(std::size_t i) const
{
    std::string bytes;
    if (!readFile(shardPath(i), bytes))
        return std::nullopt;
    // Exactly two newline-terminated lines: header, then result.
    std::size_t eol = bytes.find('\n');
    if (eol == std::string::npos ||
        bytes.find('\n', eol + 1) != bytes.size() - 1)
        return std::nullopt;
    const std::string_view header(bytes.data(), eol);
    Shard s;
    s.result = bytes.substr(eol + 1, bytes.size() - eol - 2);
    const std::size_t sealAt = header.rfind(kDigestField);
    if (sealAt == std::string_view::npos ||
        header != sealedHeader(header.substr(0, sealAt), s.result))
        return std::nullopt;
    auto h = FlatJson::parse(std::string(header));
    if (!h)
        return std::nullopt;
    auto seed = h->num<std::uint64_t>("seed");
    auto attempt = h->num<std::uint64_t>("attempt");
    auto worker = h->num<int>("worker");
    auto wallMs = h->num<double>("wallMs");
    if (h->num<int>("shard") != 3 || h->str("job") != ids_[i] ||
        h->num<std::uint64_t>("index") != i || !seed || !attempt ||
        *attempt < 1 || *attempt > UINT32_MAX || !worker || *worker < 0 ||
        !wallMs)
        return std::nullopt;
    s.seed = *seed;
    s.attempt = static_cast<std::uint32_t>(*attempt);
    s.worker = *worker;
    s.wallMs = *wallMs;
    return s;
}

} // namespace noc::farm
