#include "exp/json_out.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

namespace noc::exp {

void
appendNum(std::string &out, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    // Prefer a shorter form when it round-trips to the same value.
    for (int prec = 1; prec < 17; ++prec) {
        char shorter[40];
        std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
        if (std::strtod(shorter, nullptr) == v) {
            out += shorter;
            return;
        }
    }
    out += buf;
}

void
appendNum(std::string &out, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    out += buf;
}

namespace {

/** The fault labels / names we emit contain no characters needing escapes,
 *  but guard anyway so a future label can't corrupt the file. */
void
appendStr(std::string &out, std::string_view s)
{
    out += '"';
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    out += '"';
}

/** `"key": v, ` (no comma after the @p last field); T is double or
 *  std::uint64_t. */
template <typename T>
void
appendField(std::string &out, const char *key, T v, bool last = false)
{
    out += '"';
    out += key;
    out += "\": ";
    appendNum(out, v);
    if (!last)
        out += ", ";
}

} // namespace

std::string
resultJson(const SimResult &r)
{
    std::string out;
    out.reserve(512);
    out += "{";
    appendField(out, "avgLatency", r.avgLatency);
    appendField(out, "latencyStddev", r.latencyStddev);
    appendField(out, "maxLatency", r.maxLatency);
    appendField(out, "p50Latency", r.p50Latency);
    appendField(out, "p99Latency", r.p99Latency);
    appendField(out, "throughputFlits", r.throughputFlits);
    appendField(out, "injected", r.injected);
    appendField(out, "delivered", r.delivered);
    appendField(out, "completion", r.completion);
    out += "\"energy\": {";
    appendField(out, "bufferPj", r.energy.bufferPj);
    appendField(out, "crossbarPj", r.energy.crossbarPj);
    appendField(out, "arbiterPj", r.energy.arbiterPj);
    appendField(out, "routingPj", r.energy.routingPj);
    appendField(out, "linkPj", r.energy.linkPj);
    appendField(out, "leakagePj", r.energy.leakagePj, true);
    out += "}, ";
    appendField(out, "energyPerPacketNj", r.energyPerPacketNj);
    appendField(out, "edp", r.edp);
    appendField(out, "pef", r.pef);
    appendField(out, "cycles", static_cast<std::uint64_t>(r.cycles));
    if (!r.classes.empty()) {
        // Service-mode per-class block (schema 3). Omitted entirely
        // for open-loop runs so their output is byte-stable vs schema 2
        // apart from the version bump.
        out += "\"classes\": [";
        for (std::size_t c = 0; c < r.classes.size(); ++c) {
            const SimResult::ClassResult &cr = r.classes[c];
            if (c)
                out += ", ";
            out += "{\"name\": ";
            appendStr(out, cr.name);
            out += ", ";
            appendField(out, "injected", cr.injected);
            appendField(out, "delivered", cr.delivered);
            appendField(out, "avgLatency", cr.avgLatency);
            appendField(out, "p50Latency", cr.p50Latency);
            appendField(out, "p99Latency", cr.p99Latency);
            appendField(out, "avgRtt", cr.avgRtt);
            appendField(out, "p99Rtt", cr.p99Rtt);
            appendField(out, "rttCount", cr.rttCount);
            appendField(out, "sloViolations", cr.sloViolations, true);
            out += "}";
        }
        out += "], ";
        appendField(out, "replyCount", r.replyCount);
        appendField(out, "mshrThrottled", r.mshrThrottled);
        appendField(out, "svcTimeouts", r.svcTimeouts);
        appendField(out, "svcLateReplies", r.svcLateReplies);
        appendField(out, "drainCycles",
                    static_cast<std::uint64_t>(r.drainCycles));
    }
    out += "\"timedOut\": ";
    out += r.timedOut ? "true" : "false";
    out += ", ";
    appendField(out, "rowContention", r.rowContention);
    appendField(out, "colContention", r.colContention, true);
    out += "}";
    return out;
}

namespace {

/** One histogram as {count, overflow, min, max, mean, pXX...}. */
void
appendHistogram(std::string &out, const obs::HdrHistogram &h)
{
    out += "{";
    appendField(out, "count", h.count());
    appendField(out, "overflow", h.overflow());
    appendField(out, "min", h.min());
    appendField(out, "max", h.max());
    appendField(out, "mean", h.mean());
    appendField(out, "p50", h.percentile(0.50));
    appendField(out, "p90", h.percentile(0.90));
    appendField(out, "p99", h.percentile(0.99));
    appendField(out, "p999", h.percentile(0.999), true);
    out += "}";
}

/** The sweep-wide observability aggregate (schema 2 "obs" block). */
void
appendObs(std::string &out, const obs::Summary &s)
{
    out += "{\n    \"stages\": {";
    bool first = true;
    for (int st = 0; st < obs::kStageCount; ++st) {
        const char *label = obs::residencyLabel(static_cast<obs::Stage>(st));
        if (label == nullptr)
            continue; // terminal stages open no residency interval
        if (!first)
            out += ", ";
        first = false;
        out += '"';
        out += label;
        out += "\": ";
        appendHistogram(out, s.residency[static_cast<std::size_t>(st)]);
    }
    out += "},\n    \"endToEnd\": ";
    appendHistogram(out, s.endToEnd);
    out += ",\n    \"endToEndMeasured\": ";
    appendHistogram(out, s.endToEndMeasured);
    out += ",\n    \"byDistance\": [";
    for (std::size_t d = 0; d < s.byDistance.size(); ++d) {
        if (d)
            out += ", ";
        appendHistogram(out, s.byDistance[d]);
    }
    out += "],\n    \"events\": {";
    for (int st = 0; st < obs::kStageCount; ++st) {
        if (st)
            out += ", ";
        out += '"';
        out += obs::toString(static_cast<obs::Stage>(st));
        out += "\": ";
        appendNum(out, s.counters.events[st]);
    }
    out += "},\n    ";
    appendField(out, "sampledPackets", s.counters.sampledPackets);
    appendField(out, "ringDropped", s.counters.ringDropped);
    appendField(out, "occupancySamples", s.counters.occupancySamples);
    out += "\"pathSetOccupancy\": {";
    appendField(out, "row", s.occupancyAvg(0));
    appendField(out, "col", s.occupancyAvg(1), true);
    out += "}\n  }";
}

} // namespace

std::string
sweepJson(const SweepSpec &spec, const SweepResults &res)
{
    std::string out;
    out.reserve(1024 + res.points.size() * 640);
    out += "{\n  \"schema\": 3,\n  \"bench\": ";
    appendStr(out, spec.name);
    out += ",\n  \"threads\": ";
    appendNum(out, static_cast<std::uint64_t>(res.threads));
    out += ",\n  \"baseSeed\": ";
    appendNum(out, spec.base.seed);
    out += ",\n  \"warmupPackets\": ";
    appendNum(out, spec.base.warmupPackets);
    out += ",\n  \"measurePackets\": ";
    appendNum(out, spec.base.measurePackets);
    out += ",\n  \"totalWallMs\": ";
    appendNum(out, res.totalWallMs);
    if (res.obs) {
        out += ",\n  \"obs\": ";
        appendObs(out, *res.obs);
    }
    out += ",\n  \"points\": [\n";
    for (std::size_t i = 0; i < res.points.size(); ++i) {
        const SweepPoint &p = res.points[i];
        const PointResult &r = res.results[i];
        out += "    {";
        appendField(out, "index", static_cast<std::uint64_t>(p.index));
        out += "\"arch\": ";
        appendStr(out, toString(p.cfg.arch));
        out += ", \"routing\": ";
        appendStr(out, toString(p.cfg.routing));
        out += ", \"traffic\": ";
        appendStr(out, toString(p.cfg.traffic));
        out += ", ";
        appendField(out, "rate", p.cfg.injectionRate);
        out += "\"faults\": ";
        appendStr(out, p.faultLabel);
        out += ", ";
        appendField(out, "seed", r.seed);
        appendField(out, "wallMs", r.wallMs);
        out += "\"result\": ";
        out += resultJson(r.result);
        out += i + 1 < res.points.size() ? "},\n" : "}\n";
    }
    out += "  ]\n}\n";
    return out;
}

std::string
writeBenchJson(const std::string &name, const std::string &body)
{
    if (const char *v = std::getenv("NOC_BENCH_JSON")) {
        if (std::strcmp(v, "0") == 0)
            return "";
    }
    const char *dir = std::getenv("NOC_BENCH_JSON_DIR");
    std::string path = dir && *dir ? std::string(dir) + "/" : std::string();
    path += "BENCH_" + name + ".json";

    std::FILE *f = std::fopen(path.c_str(), "w");
    bool ok = f != nullptr &&
              std::fwrite(body.data(), 1, body.size(), f) == body.size();
    // fclose flushes the buffer, so a full disk may only show here.
    if (f != nullptr && std::fclose(f) != 0)
        ok = false;
    if (!ok) {
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
        return "";
    }
    return path;
}

std::string
writeSweepJson(const SweepSpec &spec, const SweepResults &res)
{
    return writeBenchJson(spec.name, sweepJson(spec, res));
}

} // namespace noc::exp
