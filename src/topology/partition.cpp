#include "topology/partition.h"

#include <algorithm>
#include <cstdlib>

#include "common/log.h"

namespace noc {

ShardPlan::ShardPlan(int width, int height, int shards)
    : width_(width), height_(height)
{
    NOC_ASSERT(width > 0 && height > 0, "empty mesh");
    const int n = width * height;
    shards_ = std::clamp(shards, 1, n);

    shardOf_.resize(static_cast<std::size_t>(n));
    nodes_.resize(static_cast<std::size_t>(shards_));
    for (NodeId id = 0; id < static_cast<NodeId>(n); ++id) {
        const int s = static_cast<int>(
            (static_cast<long long>(id) * shards_) / n);
        shardOf_[id] = s;
        nodes_[static_cast<std::size_t>(s)].push_back(id);
    }

    // A node is on the boundary when some node of another shard lies
    // within Manhattan distance 2: exactly the nodes whose step
    // footprints ({R} and its neighbours) can meet another shard's.
    const std::size_t slots =
        static_cast<std::size_t>(shards_) * kNumStepPhases;
    phaseNodes_.resize(slots);
    boundary_.resize(slots);
    interior_.resize(slots);
    border_.resize(static_cast<std::size_t>(shards_));
    for (NodeId id = 0; id < static_cast<NodeId>(n); ++id) {
        const int s = shardOf_[id];
        const int x = static_cast<int>(id) % width;
        const int y = static_cast<int>(id) / width;
        bool onBoundary = false;
        for (int dy = -2; dy <= 2; ++dy) {
            for (int dx = -2 + std::abs(dy); dx <= 2 - std::abs(dy); ++dx) {
                const int nx = x + dx, ny = y + dy;
                if (nx < 0 || nx >= width || ny < 0 || ny >= height)
                    continue;
                const int t = shardOf_[static_cast<std::size_t>(ny) *
                                           static_cast<std::size_t>(width) +
                                       static_cast<std::size_t>(nx)];
                if (t != s) {
                    onBoundary = true;
                    border_[static_cast<std::size_t>(s)].push_back(t);
                }
            }
        }
        const std::size_t k = slot(s, stepPhase(x, y));
        phaseNodes_[k].push_back(id);
        (onBoundary ? boundary_ : interior_)[k].push_back(id);
    }

    for (std::vector<int> &b : border_) {
        std::sort(b.begin(), b.end());
        b.erase(std::unique(b.begin(), b.end()), b.end());
    }
}

} // namespace noc
