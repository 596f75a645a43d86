#include "common/config.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <type_traits>

#include "common/log.h"

namespace noc {

const char *
toString(TrafficKind t)
{
    switch (t) {
      case TrafficKind::Uniform: return "uniform";
      case TrafficKind::Transpose: return "transpose";
      case TrafficKind::BitComplement: return "bit-complement";
      case TrafficKind::Hotspot: return "hotspot";
      case TrafficKind::Tornado: return "tornado";
      case TrafficKind::NearestNeighbor: return "nearest-neighbor";
      case TrafficKind::SelfSimilar: return "self-similar";
      case TrafficKind::Mpeg: return "mpeg-2";
      case TrafficKind::BitReverse: return "bit-reverse";
      case TrafficKind::Shuffle: return "shuffle";
      case TrafficKind::Trace: return "trace";
    }
    return "?";
}

namespace {

template <typename E>
struct Spelling {
    std::string_view name;
    E value;
};

constexpr Spelling<RouterArch> kArchSpellings[] = {
    {"generic", RouterArch::Generic},
    {"ps", RouterArch::PathSensitive},
    {"pathsensitive", RouterArch::PathSensitive},
    {"roco", RouterArch::Roco},
};

constexpr Spelling<RoutingKind> kRoutingSpellings[] = {
    {"xy", RoutingKind::XY},
    {"xyyx", RoutingKind::XYYX},
    {"adaptive", RoutingKind::Adaptive},
};

constexpr Spelling<TrafficKind> kTrafficSpellings[] = {
    {"uniform", TrafficKind::Uniform},
    {"transpose", TrafficKind::Transpose},
    {"bitcomp", TrafficKind::BitComplement},
    {"hotspot", TrafficKind::Hotspot},
    {"tornado", TrafficKind::Tornado},
    {"neighbor", TrafficKind::NearestNeighbor},
    {"selfsimilar", TrafficKind::SelfSimilar},
    {"mpeg", TrafficKind::Mpeg},
    {"bitreverse", TrafficKind::BitReverse},
    {"shuffle", TrafficKind::Shuffle},
    {"trace", TrafficKind::Trace},
};

template <typename E, std::size_t N>
std::optional<E>
lookup(const Spelling<E> (&table)[N], std::string_view s)
{
    for (const Spelling<E> &e : table)
        if (e.name == s)
            return e.value;
    return std::nullopt;
}

} // namespace

std::optional<RouterArch>
parseArch(std::string_view s)
{
    return lookup(kArchSpellings, s);
}

std::optional<RoutingKind>
parseRouting(std::string_view s)
{
    return lookup(kRoutingSpellings, s);
}

std::optional<TrafficKind>
parseTraffic(std::string_view s)
{
    return lookup(kTrafficSpellings, s);
}

template <typename T>
std::optional<T>
parseNumber(std::string_view s)
{
    T v{};
    const char *end = s.data() + s.size();
    auto [last, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc() || last != end)
        return std::nullopt;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(v))
            return std::nullopt;
    }
    return v;
}

template std::optional<int> parseNumber<int>(std::string_view);
template std::optional<std::uint64_t>
    parseNumber<std::uint64_t>(std::string_view);
template std::optional<double> parseNumber<double>(std::string_view);

template <typename T>
T
envNumber(const char *name, T fallback, T lo, T hi)
{
    const char *v = std::getenv(name);
    if (v == nullptr)
        return fallback;
    std::optional<T> n = parseNumber<T>(v);
    if (!n || *n < lo || *n > hi) {
        fatal((std::string(name) + "='" + v +
               "' is not a whole number in [" + std::to_string(lo) +
               ", " + std::to_string(hi) + "]")
                  .c_str());
    }
    return *n;
}

template int envNumber<int>(const char *, int, int, int);
template std::uint64_t envNumber<std::uint64_t>(const char *, std::uint64_t,
                                                std::uint64_t,
                                                std::uint64_t);

int
SimConfig::bufferDepth() const
{
    return arch == RouterArch::Generic ? bufferDepthGeneric
                                       : bufferDepthModular;
}

int
SimConfig::totalBufferFlits() const
{
    // Generic: 5 ports x v VCs; PS/RoCo: 4 path sets x v VCs.
    int vcs = (arch == RouterArch::Generic ? kNumPorts : 4) * vcsPerPort;
    return vcs * bufferDepth();
}

void
SimConfig::validate() const
{
    if (meshWidth < kMinMeshSide || meshHeight < kMinMeshSide)
        fatal("mesh must be at least 2x2");
    if (meshWidth > kMaxMeshSide || meshHeight > kMaxMeshSide)
        fatal("mesh dimension too large");
    if (vcsPerPort < 1 || vcsPerPort > 8)
        fatal("vcsPerPort out of range [1,8]");
    if (arch != RouterArch::Generic && vcsPerPort < 3)
        fatal("PS/RoCo routers need >=3 VCs per path set (Table 1)");
    if (bufferDepthGeneric < 1 || bufferDepthModular < 1)
        fatal("buffer depth must be positive");
    if (hopDelay < 1 || hopDelay > kMaxLinkDelay)
        fatal("hopDelay out of range [1,7]");
    if (creditDelay < 1 || creditDelay > kMaxLinkDelay)
        fatal("creditDelay out of range [1,7]");
    if (injectionRate < 0.0 || injectionRate > 1.0)
        fatal("injectionRate must be in [0,1] flits/node/cycle");
    if (flitsPerPacket < 1 || flitsPerPacket > 1024)
        fatal("flitsPerPacket out of range");
    if (flitBits < 8)
        fatal("flitBits too small");
    if (hotspotFraction < 0.0 || hotspotFraction > 1.0)
        fatal("hotspotFraction must be in [0,1]");
    if (traffic == TrafficKind::Trace && traceFile.empty())
        fatal("trace traffic requires a traceFile");
    if (maxCycles == 0)
        fatal("maxCycles must be positive");
    // RunControl's generation target is the sum; a wrapped sum stops
    // generation before measurement opens and reports an empty run.
    if (measurePackets >
        std::numeric_limits<std::uint64_t>::max() - warmupPackets)
        fatal("warmupPackets + measurePackets overflows 64 bits");
    if (shards < 0)
        fatal("shards must be >= 0 (0 = auto via NOC_SHARDS)");
    if (svc.enabled) {
        if (svc.highTierFraction < 0.0 || svc.highTierFraction > 1.0)
            fatal("svc.highTierFraction must be in [0,1]");
        if (svc.mshrsPerNode < 1 || svc.mshrsPerNode > 4096)
            fatal("svc.mshrsPerNode out of range [1,4096]");
        if (svc.serviceLatency < 1)
            fatal("svc.serviceLatency must be >= 1 cycle");
        if (svc.mshrTimeout < svc.serviceLatency)
            fatal("svc.mshrTimeout must cover svc.serviceLatency");
        if (svc.replyFlits < 0 || svc.replyFlits > 1024)
            fatal("svc.replyFlits out of range [0,1024]");
        if (traffic == TrafficKind::Trace)
            fatal("service mode drives its own request stream; "
                  "trace replay is open-loop only");
    }
}

} // namespace noc
