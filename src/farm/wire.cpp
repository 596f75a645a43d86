#include "farm/wire.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/flit.h"

namespace noc::farm {

std::string
encodeDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

namespace {

void
line(std::string &out, const char *key, double v)
{
    out += key;
    out += ' ';
    out += encodeDouble(v);
    out += '\n';
}

void
line(std::string &out, const char *key, std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    out += key;
    out += ' ';
    out += buf;
    out += '\n';
}

/**
 * One `key value` line reader over the shard bytes. Values never
 * contain spaces (numbers, hex-floats, class names are space-free), so
 * the first space splits key from value.
 */
struct LineReader {
    const std::string &bytes;
    std::size_t pos = 0;

    bool
    next(std::string &key, std::string &value)
    {
        if (pos >= bytes.size())
            return false;
        std::size_t eol = bytes.find('\n', pos);
        if (eol == std::string::npos)
            return false; // unterminated line == torn write
        std::string ln = bytes.substr(pos, eol - pos);
        pos = eol + 1;
        std::size_t sp = ln.find(' ');
        if (sp == std::string::npos) {
            key = ln;
            value.clear();
        } else {
            key = ln.substr(0, sp);
            value = ln.substr(sp + 1);
        }
        return true;
    }
};

bool
parseDouble(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(s.c_str(), &end);
    return end != nullptr && *end == '\0';
}

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    out = std::strtoull(s.c_str(), &end, 10);
    return end != nullptr && *end == '\0';
}

/** Maps a stored class name back onto msgClassName's static strings
 *  (ClassResult::name is a non-owning const char*). */
const char *
internClassName(const std::string &s)
{
    for (int i = 0; i < kNumMsgClasses; ++i) {
        const char *n = msgClassName(static_cast<MsgClass>(i));
        if (s == n)
            return n;
    }
    return nullptr;
}

} // namespace

std::string
encodePointResult(const std::string &jobId, const exp::PointResult &r,
                  std::uint32_t attempt, int worker)
{
    std::string out;
    out.reserve(1024);
    out += "rocosim-shard 1\n";
    out += "job " + jobId + "\n";
    line(out, "attempt", static_cast<std::uint64_t>(attempt));
    line(out, "worker", static_cast<std::uint64_t>(worker < 0 ? 0 : worker));
    line(out, "index", static_cast<std::uint64_t>(r.index));
    line(out, "seed", r.seed);
    line(out, "wallMs", r.wallMs);
    const SimResult &s = r.result;
    line(out, "avgLatency", s.avgLatency);
    line(out, "latencyStddev", s.latencyStddev);
    line(out, "maxLatency", s.maxLatency);
    line(out, "p50Latency", s.p50Latency);
    line(out, "p99Latency", s.p99Latency);
    line(out, "throughputFlits", s.throughputFlits);
    line(out, "injected", s.injected);
    line(out, "delivered", s.delivered);
    line(out, "completion", s.completion);
    line(out, "energy.bufferPj", s.energy.bufferPj);
    line(out, "energy.crossbarPj", s.energy.crossbarPj);
    line(out, "energy.arbiterPj", s.energy.arbiterPj);
    line(out, "energy.routingPj", s.energy.routingPj);
    line(out, "energy.linkPj", s.energy.linkPj);
    line(out, "energy.leakagePj", s.energy.leakagePj);
    line(out, "energyPerPacketNj", s.energyPerPacketNj);
    line(out, "edp", s.edp);
    line(out, "pef", s.pef);
    line(out, "cycles", static_cast<std::uint64_t>(s.cycles));
    line(out, "timedOut", static_cast<std::uint64_t>(s.timedOut ? 1 : 0));
    line(out, "rowContention", s.rowContention);
    line(out, "colContention", s.colContention);
    for (const SimResult::ClassResult &c : s.classes) {
        out += "class ";
        out += c.name;
        out += '\n';
        line(out, "c.injected", c.injected);
        line(out, "c.delivered", c.delivered);
        line(out, "c.avgLatency", c.avgLatency);
        line(out, "c.p50Latency", c.p50Latency);
        line(out, "c.p99Latency", c.p99Latency);
        line(out, "c.avgRtt", c.avgRtt);
        line(out, "c.p99Rtt", c.p99Rtt);
        line(out, "c.rttCount", c.rttCount);
        line(out, "c.sloViolations", c.sloViolations);
    }
    if (!s.classes.empty()) {
        line(out, "replyCount", s.replyCount);
        line(out, "mshrThrottled", s.mshrThrottled);
        line(out, "svcTimeouts", s.svcTimeouts);
        line(out, "svcLateReplies", s.svcLateReplies);
        line(out, "drainCycles", static_cast<std::uint64_t>(s.drainCycles));
    }
    out += "end\n";
    return out;
}

std::optional<DecodedShard>
decodePointResult(const std::string &bytes)
{
    LineReader rd{bytes};
    std::string key, value;
    if (!rd.next(key, value) || key != "rocosim-shard" || value != "1")
        return std::nullopt;

    DecodedShard d;
    exp::PointResult &r = d.point;
    SimResult &s = r.result;
    SimResult::ClassResult *cls = nullptr;
    bool sawEnd = false;

    auto d64 = [](const std::string &v, double &dst) {
        return parseDouble(v, dst);
    };
    auto u64 = [](const std::string &v, std::uint64_t &dst) {
        return parseU64(v, dst);
    };

    while (rd.next(key, value)) {
        bool ok = true;
        std::uint64_t u = 0;
        if (key == "end") {
            sawEnd = true;
            break;
        } else if (key == "job") {
            d.jobId = value;
            ok = !value.empty();
        } else if (key == "attempt") {
            ok = u64(value, u);
            d.attempt = static_cast<std::uint32_t>(u);
        } else if (key == "worker") {
            ok = u64(value, u);
            d.worker = static_cast<int>(u);
        } else if (key == "index") {
            ok = u64(value, u);
            r.index = static_cast<std::size_t>(u);
        } else if (key == "seed") {
            ok = u64(value, r.seed);
        } else if (key == "wallMs") {
            ok = d64(value, r.wallMs);
        } else if (key == "avgLatency") {
            ok = d64(value, s.avgLatency);
        } else if (key == "latencyStddev") {
            ok = d64(value, s.latencyStddev);
        } else if (key == "maxLatency") {
            ok = d64(value, s.maxLatency);
        } else if (key == "p50Latency") {
            ok = d64(value, s.p50Latency);
        } else if (key == "p99Latency") {
            ok = d64(value, s.p99Latency);
        } else if (key == "throughputFlits") {
            ok = d64(value, s.throughputFlits);
        } else if (key == "injected") {
            ok = u64(value, s.injected);
        } else if (key == "delivered") {
            ok = u64(value, s.delivered);
        } else if (key == "completion") {
            ok = d64(value, s.completion);
        } else if (key == "energy.bufferPj") {
            ok = d64(value, s.energy.bufferPj);
        } else if (key == "energy.crossbarPj") {
            ok = d64(value, s.energy.crossbarPj);
        } else if (key == "energy.arbiterPj") {
            ok = d64(value, s.energy.arbiterPj);
        } else if (key == "energy.routingPj") {
            ok = d64(value, s.energy.routingPj);
        } else if (key == "energy.linkPj") {
            ok = d64(value, s.energy.linkPj);
        } else if (key == "energy.leakagePj") {
            ok = d64(value, s.energy.leakagePj);
        } else if (key == "energyPerPacketNj") {
            ok = d64(value, s.energyPerPacketNj);
        } else if (key == "edp") {
            ok = d64(value, s.edp);
        } else if (key == "pef") {
            ok = d64(value, s.pef);
        } else if (key == "cycles") {
            ok = u64(value, u);
            s.cycles = u;
        } else if (key == "timedOut") {
            ok = u64(value, u) && u <= 1;
            s.timedOut = u != 0;
        } else if (key == "rowContention") {
            ok = d64(value, s.rowContention);
        } else if (key == "colContention") {
            ok = d64(value, s.colContention);
        } else if (key == "class") {
            const char *name = internClassName(value);
            if (name == nullptr)
                return std::nullopt;
            s.classes.emplace_back();
            cls = &s.classes.back();
            cls->name = name;
        } else if (key.rfind("c.", 0) == 0) {
            if (cls == nullptr)
                return std::nullopt; // class field before any "class"
            if (key == "c.injected")
                ok = u64(value, cls->injected);
            else if (key == "c.delivered")
                ok = u64(value, cls->delivered);
            else if (key == "c.avgLatency")
                ok = d64(value, cls->avgLatency);
            else if (key == "c.p50Latency")
                ok = d64(value, cls->p50Latency);
            else if (key == "c.p99Latency")
                ok = d64(value, cls->p99Latency);
            else if (key == "c.avgRtt")
                ok = d64(value, cls->avgRtt);
            else if (key == "c.p99Rtt")
                ok = d64(value, cls->p99Rtt);
            else if (key == "c.rttCount")
                ok = u64(value, cls->rttCount);
            else if (key == "c.sloViolations")
                ok = u64(value, cls->sloViolations);
            else
                ok = false;
        } else if (key == "replyCount") {
            ok = u64(value, s.replyCount);
        } else if (key == "mshrThrottled") {
            ok = u64(value, s.mshrThrottled);
        } else if (key == "svcTimeouts") {
            ok = u64(value, s.svcTimeouts);
        } else if (key == "svcLateReplies") {
            ok = u64(value, s.svcLateReplies);
        } else if (key == "drainCycles") {
            ok = u64(value, u);
            s.drainCycles = u;
        } else {
            ok = false; // unknown field: version skew, reject the shard
        }
        if (!ok)
            return std::nullopt;
    }
    if (!sawEnd || d.jobId.empty())
        return std::nullopt;
    return d;
}

namespace {

void
skipWs(const std::string &s, std::size_t &i)
{
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
        ++i;
}

bool
parseJsonString(const std::string &s, std::size_t &i, std::string &out)
{
    if (i >= s.size() || s[i] != '"')
        return false;
    ++i;
    out.clear();
    while (i < s.size() && s[i] != '"') {
        char c = s[i++];
        if (c == '\\') {
            if (i >= s.size())
                return false;
            char e = s[i++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'n': out += '\n'; break;
            case 't': out += '\t'; break;
            case 'r': out += '\r'; break;
            default: return false; // \uXXXX etc: protocol never sends it
            }
        } else {
            out += c;
        }
    }
    if (i >= s.size())
        return false;
    ++i; // closing quote
    return true;
}

} // namespace

std::optional<FlatJson>
FlatJson::parse(const std::string &ln)
{
    FlatJson out;
    std::size_t i = 0;
    skipWs(ln, i);
    if (i >= ln.size() || ln[i] != '{')
        return std::nullopt;
    ++i;
    skipWs(ln, i);
    if (i < ln.size() && ln[i] == '}') {
        ++i;
        skipWs(ln, i);
        return i == ln.size() ? std::optional<FlatJson>(out) : std::nullopt;
    }
    for (;;) {
        skipWs(ln, i);
        Entry e;
        if (!parseJsonString(ln, i, e.key))
            return std::nullopt;
        skipWs(ln, i);
        if (i >= ln.size() || ln[i] != ':')
            return std::nullopt;
        ++i;
        skipWs(ln, i);
        if (i >= ln.size())
            return std::nullopt;
        if (ln[i] == '"') {
            if (!parseJsonString(ln, i, e.value))
                return std::nullopt;
            e.isString = true;
        } else if (ln[i] == '{' || ln[i] == '[') {
            return std::nullopt; // flat protocol only
        } else {
            // Number / true / false / null: take the literal token.
            std::size_t start = i;
            while (i < ln.size() && ln[i] != ',' && ln[i] != '}' &&
                   !std::isspace(static_cast<unsigned char>(ln[i])))
                ++i;
            e.value = ln.substr(start, i - start);
            if (e.value.empty())
                return std::nullopt;
        }
        out.entries_.push_back(std::move(e));
        skipWs(ln, i);
        if (i >= ln.size())
            return std::nullopt;
        if (ln[i] == ',') {
            ++i;
            continue;
        }
        if (ln[i] == '}') {
            ++i;
            skipWs(ln, i);
            return i == ln.size() ? std::optional<FlatJson>(out)
                                  : std::nullopt;
        }
        return std::nullopt;
    }
}

std::string
FlatJson::str(const std::string &key, const std::string &fallback) const
{
    for (const Entry &e : entries_)
        if (e.key == key)
            return e.isString ? e.value : fallback;
    return fallback;
}

double
FlatJson::num(const std::string &key, double fallback) const
{
    for (const Entry &e : entries_) {
        if (e.key == key && !e.isString) {
            double v = 0;
            if (parseDouble(e.value, v))
                return v;
        }
    }
    return fallback;
}

} // namespace noc::farm
