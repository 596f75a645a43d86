/**
 * @file
 * Per-node traffic generator: composes an injection process with a
 * destination pattern as selected by the configuration.
 */
#ifndef ROCOSIM_TRAFFIC_TRAFFIC_H_
#define ROCOSIM_TRAFFIC_TRAFFIC_H_

#include <memory>
#include <optional>

#include "common/config.h"
#include "common/log.h"
#include "common/rng.h"
#include "topology/mesh.h"
#include "traffic/injection.h"
#include "traffic/patterns.h"

namespace noc {

/**
 * One node's traffic source. Deterministic given (config seed, node id).
 * Every draw comes from the source's InjectionLane, so the arrival
 * stream is the same whether a caller asks maybeGenerate() per node or
 * an engine sweeps the lanes and asks destination() only on a firing
 * draw.
 */
class TrafficGenerator
{
  public:
    /**
     * Seeds the source's stream into @p lane (a Network's lane array;
     * it must outlive the generator), or into a lane of its own when
     * @p lane is null.
     */
    TrafficGenerator(const SimConfig &cfg, const MeshTopology &topo,
                     NodeId src, InjectionLane *lane = nullptr);

    /**
     * Destination of a packet generated during cycle @p now, or
     * std::nullopt when none. Patterns may suppress a firing (e.g. a
     * transpose diagonal node), in which case nothing is generated.
     *
     * Bernoulli sources (the default) draw through the lane's inlined
     * fires(); rarer processes pay the virtual call. RNG consumption is
     * identical on both paths (BernoulliInjection::fire is exactly
     * nextBool(rate)).
     */
    std::optional<NodeId>
    maybeGenerate(Cycle now)
    {
        if (!arrives(now))
            return std::nullopt;
        NodeId dst = destination();
        if (dst == kInvalidNode)
            return std::nullopt;
        return dst;
    }

    /**
     * The arrival draw of cycle @p now alone: true when a packet is
     * offered, whose destination() the caller draws next.
     */
    bool
    arrives(Cycle now)
    {
        return bernoulli() ? lane_->fires() : process_->fire(now, lane_->rng);
    }

    /**
     * Destination of the packet whose arrival draw just fired, or
     * kInvalidNode when the pattern suppresses this source. Draws from
     * the lane after the arrival draw, as maybeGenerate() does.
     */
    NodeId
    destination()
    {
        NodeId dst = pattern_->pick(src_, lane_->rng);
        NOC_ASSERT(dst != src_, "pattern returned the source itself");
        return dst;
    }

    /** True when the arrival draw is the lane's fires() (Bernoulli). */
    bool bernoulli() const { return lane_->rate >= 0.0; }

    /** The lane this source draws from. */
    InjectionLane &lane() { return *lane_; }

    /** Long-run offered load in packets/cycle from this node. */
    double packetRate() const { return process_->packetRate(); }

  private:
    NodeId src_;
    std::unique_ptr<InjectionLane> ownLane_; ///< standalone use only
    InjectionLane *lane_;
    std::unique_ptr<InjectionProcess> process_;
    std::unique_ptr<DestinationPattern> pattern_;
};

/**
 * Default hotspot placement: the four interior nodes nearest the mesh
 * quarter points, which is the conventional 4-hotspot layout.
 */
std::vector<NodeId> defaultHotspots(const MeshTopology &topo);

} // namespace noc

#endif // ROCOSIM_TRAFFIC_TRAFFIC_H_
