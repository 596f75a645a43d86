#include "obs/recorder.h"

#include <cstdlib>

#include "common/config.h"
#include "common/log.h"
#include "router/roco/roco_router.h"
#include "sim/network.h"

namespace noc::obs {

namespace {

/** splitmix64 finaliser: decorrelates packet ids from the sample mask. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** NOC_TRACE_BUF's ceiling: one ring per router must stay allocatable. */
constexpr std::uint64_t kMaxRingCapacity = std::uint64_t{1} << 20;

} // namespace

Recorder::Recorder(const Options &opt) : opt_(opt)
{
    NOC_ASSERT(opt_.nodes > 0, "recorder needs at least one node");
    if (opt_.sampleEvery == 0)
        opt_.sampleEvery = 1;
    rings_.reserve(static_cast<std::size_t>(opt_.nodes));
    for (int n = 0; n < opt_.nodes; ++n)
        rings_.emplace_back(opt_.ringCapacity);
}

std::shared_ptr<Recorder>
Recorder::fromEnv(const SimConfig &cfg)
{
    if (envNumber<int>("NOC_TRACE", 0, 0, 1) == 0)
        return nullptr;
    Options opt;
    opt.nodes = cfg.meshWidth * cfg.meshHeight;
    opt.meshWidth = cfg.meshWidth;
    opt.meshHeight = cfg.meshHeight;
    opt.arch = cfg.arch;
    opt.sampleEvery = envNumber<std::uint64_t>("NOC_TRACE_SAMPLE", 1);
    opt.ringCapacity = static_cast<std::size_t>(
        envNumber<std::uint64_t>("NOC_TRACE_BUF", 2048, 0, kMaxRingCapacity));
    return std::make_shared<Recorder>(opt);
}

bool
Recorder::sampled(std::uint64_t packetId) const
{
    return opt_.sampleEvery <= 1 || mix(packetId) % opt_.sampleEvery == 0;
}

void
Recorder::setShardLanes(int lanes, std::vector<int> laneOf)
{
    NOC_ASSERT(lanes >= 1 &&
                   laneOf.size() == static_cast<std::size_t>(opt_.nodes),
               "shard lane map must cover every node");
    lanes_.resize(static_cast<std::size_t>(lanes));
    laneOf_ = std::move(laneOf);
    if (lanes > 1 && !stripes_)
        stripes_ = std::make_unique<std::mutex[]>(kCursorStripes);
}

Summary &
Recorder::laneFor(NodeId node)
{
    if (laneOf_.empty())
        return lanes_[0];
    return lanes_[static_cast<std::size_t>(laneOf_[node])];
}

void
Recorder::record(Stage stage, const Flit &f, NodeId node, Cycle now,
                 int track, int vcSlot)
{
    if (!opt_.enabled)
        return;
    Summary &lane = laneFor(node);
    ++lane.counters.events[static_cast<int>(stage)];
    if (!isHead(f.type) || !sampled(f.packetId))
        return;

    // Cursor ops are keyed by packet id; a packet's head is processed
    // by exactly one router per cycle, so concurrent shard workers
    // always act on *different* packets and the stripe locks only
    // protect each stripe's table structure, never an ordering.
    const std::size_t stripe = mix(f.packetId) % kCursorStripes;
    std::unique_lock<std::mutex> lock;
    if (stripes_)
        lock = std::unique_lock<std::mutex>(stripes_[stripe]);

    auto &cursors = cursors_[stripe];
    auto it = cursors.find(f.packetId);
    if (it != cursors.end()) {
        // Close the open slice: the packet sat in the cursor's state
        // from the cursor's cycle until this event. The ring pushed to
        // belongs to this node or a neighbour, which the step schedule
        // keeps race-free (see setShardLanes).
        const Cursor &c = it->second;
        rings_[c.node].push(ObsEvent{f.packetId, c.cycle, now, c.node,
                                     f.src, f.dst, c.stage, c.track,
                                     c.vc});
        lane.residency[static_cast<int>(c.stage)].record(now - c.cycle);
    } else if (stage == Stage::SourceEnqueue) {
        ++lane.counters.sampledPackets;
    }

    bool terminal = residencyLabel(stage) == nullptr;
    if (terminal) {
        rings_[node].push(ObsEvent{f.packetId, now, now, node, f.src,
                                   f.dst, stage,
                                   static_cast<std::uint8_t>(track),
                                   static_cast<std::int16_t>(vcSlot)});
        if (it != cursors.end())
            cursors.erase(it);
        return;
    }

    Cursor next{stage, now, node, static_cast<std::uint8_t>(track),
                static_cast<std::int16_t>(vcSlot)};
    if (it != cursors.end())
        it->second = next;
    else
        cursors.emplace(f.packetId, next);
}

void
Recorder::recordEndToEnd(const Flit &head, Cycle now)
{
    if (!opt_.enabled)
        return;
    // Called from the destination's ejection path, so the caller is
    // the worker driving head.dst's shard.
    Summary &lane = laneFor(head.dst);
    std::uint64_t lat = now - head.createTime;
    lane.endToEnd.record(lat);
    if (head.measured)
        lane.endToEndMeasured.record(lat);
    int w = opt_.meshWidth;
    int dist = std::abs(static_cast<int>(head.src % w) -
                        static_cast<int>(head.dst % w)) +
               std::abs(static_cast<int>(head.src / w) -
                        static_cast<int>(head.dst / w));
    if (static_cast<std::size_t>(dist) >= lane.byDistance.size())
        lane.byDistance.resize(static_cast<std::size_t>(dist) + 1);
    lane.byDistance[static_cast<std::size_t>(dist)].record(lat);
}

Summary
Recorder::summary() const
{
    Summary out = lanes_[0];
    for (std::size_t i = 1; i < lanes_.size(); ++i)
        out.merge(lanes_[i]);
    out.counters.ringDropped = 0;
    for (const EventRing &r : rings_)
        out.counters.ringDropped += r.dropped();
    return out;
}

void
Recorder::samplePathSetOccupancy(const Network &net)
{
    if (!opt_.enabled)
        return;
    for (NodeId n = 0; n < static_cast<NodeId>(net.numNodes()); ++n) {
        const Router &r = net.router(n);
        if (r.arch() == RouterArch::Roco) {
            const auto &roco = static_cast<const RocoRouter &>(r);
            lanes_[0].counters.occupancySum[0] +=
                static_cast<std::uint64_t>(
                    roco.moduleOccupancy(Module::Row));
            lanes_[0].counters.occupancySum[1] +=
                static_cast<std::uint64_t>(
                    roco.moduleOccupancy(Module::Column));
        } else {
            lanes_[0].counters.occupancySum[0] +=
                static_cast<std::uint64_t>(r.bufferedFlits());
        }
    }
    ++lanes_[0].counters.occupancySamples;
}

} // namespace noc::obs
