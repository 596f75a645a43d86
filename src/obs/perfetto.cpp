#include "obs/perfetto.h"

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <string>

#include <sys/stat.h>
#include <unistd.h>

#include "obs/recorder.h"

namespace noc::obs {

namespace {

void
append(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    if (n > 0)
        out.append(buf, std::min<std::size_t>(static_cast<std::size_t>(n),
                                              sizeof(buf) - 1));
}

int
trackCount(RouterArch arch)
{
    switch (arch) {
      case RouterArch::Roco: return 2;
      case RouterArch::PathSensitive: return 4;
      case RouterArch::Generic: return 1;
    }
    return 1;
}

const char *
trackName(RouterArch arch, int track)
{
    if (arch == RouterArch::Roco)
        return track == 0 ? "row module" : "column module";
    if (arch == RouterArch::PathSensitive) {
        static const char *kQuad[4] = {"quadrant 0", "quadrant 1",
                                       "quadrant 2", "quadrant 3"};
        return kQuad[track & 3];
    }
    return "pipeline";
}

void
appendCommonTail(std::string &out, const ObsEvent &e)
{
    append(out,
           "\"pid\":%u,\"tid\":%d,\"args\":{\"packet\":%llu,"
           "\"src\":%u,\"dst\":%u,\"vc\":%d}},\n",
           e.node, static_cast<int>(e.track),
           static_cast<unsigned long long>(e.packetId), e.src, e.dst,
           static_cast<int>(e.vc));
}

/** Writes @p data to @p path opened with fopen @p mode; false unless
 *  every byte reached the file and it closed cleanly. */
bool
writeFile(const std::string &path, const std::string &data, const char *mode)
{
    std::FILE *f = std::fopen(path.c_str(), mode);
    if (f == nullptr)
        return false;
    const bool wrote = std::fwrite(data.data(), 1, data.size(), f) ==
                       data.size();
    return std::fclose(f) == 0 && wrote;
}

} // namespace

std::string
perfettoJson(const Recorder &rec)
{
    const Recorder::Options &opt = rec.options();
    std::string out;
    out.reserve(1 << 16);
    out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";

    // Track metadata: one process per router, one thread per lane.
    for (int n = 0; n < opt.nodes; ++n) {
        append(out,
               "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,"
               "\"args\":{\"name\":\"router %d (%d,%d)\"}},\n",
               n, n, n % opt.meshWidth, n / opt.meshWidth);
        for (int t = 0; t < trackCount(opt.arch); ++t)
            append(out,
                   "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,"
                   "\"tid\":%d,\"args\":{\"name\":\"%s\"}},\n",
                   n, t, trackName(opt.arch, t));
    }

    // Packet lifetime spans, accumulated while walking the rings.
    struct Span {
        Cycle lo = ~Cycle{0};
        Cycle hi = 0;
        NodeId src = kInvalidNode;
        NodeId dst = kInvalidNode;
    };
    std::map<std::uint64_t, Span> spans;

    for (int n = 0; n < opt.nodes; ++n) {
        const EventRing &ring = rec.ring(static_cast<NodeId>(n));
        for (std::size_t i = 0; i < ring.size(); ++i) {
            const ObsEvent &e = ring.at(i);
            Span &sp = spans[e.packetId];
            sp.lo = std::min(sp.lo, e.start);
            sp.hi = std::max(sp.hi, e.end);
            sp.src = e.src;
            sp.dst = e.dst;
            const char *label = residencyLabel(e.stage);
            if (label != nullptr) {
                append(out,
                       "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"stage\","
                       "\"ts\":%llu,\"dur\":%llu,",
                       label, static_cast<unsigned long long>(e.start),
                       static_cast<unsigned long long>(e.end - e.start));
            } else {
                append(out,
                       "{\"ph\":\"i\",\"name\":\"%s\",\"cat\":\"stage\","
                       "\"s\":\"t\",\"ts\":%llu,",
                       toString(e.stage),
                       static_cast<unsigned long long>(e.start));
            }
            appendCommonTail(out, e);
        }
    }

    for (const auto &[pid, sp] : spans) {
        append(out,
               "{\"ph\":\"b\",\"cat\":\"packet\",\"name\":\"pkt %llu\","
               "\"id\":%llu,\"ts\":%llu,\"pid\":%u,\"tid\":0,"
               "\"args\":{\"src\":%u,\"dst\":%u}},\n",
               static_cast<unsigned long long>(pid),
               static_cast<unsigned long long>(pid),
               static_cast<unsigned long long>(sp.lo), sp.src, sp.src,
               sp.dst);
        append(out,
               "{\"ph\":\"e\",\"cat\":\"packet\",\"name\":\"pkt %llu\","
               "\"id\":%llu,\"ts\":%llu,\"pid\":%u,\"tid\":0,"
               "\"args\":{}},\n",
               static_cast<unsigned long long>(pid),
               static_cast<unsigned long long>(pid),
               static_cast<unsigned long long>(sp.hi), sp.src);
    }

    // Strip the trailing ",\n" so the array is valid JSON.
    if (out.size() >= 2 && out[out.size() - 2] == ',')
        out.erase(out.size() - 2, 1);
    out += "]}\n";
    return out;
}

bool
writePerfetto(const Recorder &rec, const std::string &path)
{
    const std::string json = perfettoJson(rec);
    // A device, pipe or symlink is written through in place: a rename
    // would replace it instead.
    struct stat st;
    if (lstat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode))
        return writeFile(path, json, "wb");
    // A regular file is replaced whole: write a temp file of this
    // process and call beside it, then rename it over the target.
    static std::atomic<unsigned> serial{0};
    const std::string tmp = path + ".tmp." + std::to_string(getpid()) +
                            "." + std::to_string(serial.fetch_add(1));
    if (writeFile(tmp, json, "wbx") &&
        std::rename(tmp.c_str(), path.c_str()) == 0)
        return true;
    std::remove(tmp.c_str());
    return false;
}

} // namespace noc::obs
