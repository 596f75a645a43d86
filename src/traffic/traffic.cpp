#include "traffic/traffic.h"

#include "common/log.h"
#include "traffic/mpeg.h"

namespace noc {

std::vector<NodeId>
defaultHotspots(const MeshTopology &topo)
{
    int qx = topo.width() / 4;
    int qy = topo.height() / 4;
    int qx2 = 3 * topo.width() / 4;
    int qy2 = 3 * topo.height() / 4;
    std::vector<NodeId> hs = {
        topo.node({qx, qy}), topo.node({qx2, qy}),
        topo.node({qx, qy2}), topo.node({qx2, qy2}),
    };
    // Small meshes can collapse quarter points onto each other; dedup.
    std::vector<NodeId> out;
    for (NodeId h : hs) {
        bool dup = false;
        for (NodeId o : out)
            dup = dup || o == h;
        if (!dup)
            out.push_back(h);
    }
    return out;
}

TrafficGenerator::TrafficGenerator(const SimConfig &cfg,
                                   const MeshTopology &topo, NodeId src,
                                   InjectionLane *lane)
    : src_(src),
      ownLane_(lane ? nullptr : std::make_unique<InjectionLane>()),
      lane_(lane ? lane : ownLane_.get())
{
    lane_->rng = Rng(cfg.seed, 0x7F4A7C15ull + src);
    lane_->rate = -1.0;
    if (cfg.traffic == TrafficKind::Trace) {
        // Replay is driven by the NIC's TraceReplayer; the synthetic
        // source stays silent.
        process_ = std::make_unique<BernoulliInjection>(0.0,
                                                        cfg.flitsPerPacket);
        lane_->rate = process_->packetRate();
        pattern_ = std::make_unique<UniformPattern>(topo);
        return;
    }
    switch (cfg.traffic) {
      case TrafficKind::SelfSimilar:
        process_ = std::make_unique<ParetoOnOffInjection>(
            cfg.injectionRate, cfg.flitsPerPacket);
        break;
      case TrafficKind::Mpeg:
        process_ = std::make_unique<MpegInjection>(cfg.injectionRate,
                                                   cfg.flitsPerPacket);
        break;
      default:
        process_ = std::make_unique<BernoulliInjection>(cfg.injectionRate,
                                                        cfg.flitsPerPacket);
        lane_->rate = process_->packetRate();
        break;
    }

    switch (cfg.traffic) {
      case TrafficKind::Transpose:
        pattern_ = std::make_unique<TransposePattern>(topo);
        break;
      case TrafficKind::BitComplement:
        pattern_ = std::make_unique<BitComplementPattern>(topo);
        break;
      case TrafficKind::Hotspot:
        pattern_ = std::make_unique<HotspotPattern>(
            topo, defaultHotspots(topo), cfg.hotspotFraction);
        break;
      case TrafficKind::Tornado:
        pattern_ = std::make_unique<TornadoPattern>(topo);
        break;
      case TrafficKind::NearestNeighbor:
        pattern_ = std::make_unique<NearestNeighborPattern>(topo);
        break;
      case TrafficKind::BitReverse:
        pattern_ = std::make_unique<BitReversePattern>(topo);
        break;
      case TrafficKind::Shuffle:
        pattern_ = std::make_unique<ShufflePattern>(topo);
        break;
      default:
        pattern_ = std::make_unique<UniformPattern>(topo);
        break;
    }
}

} // namespace noc
