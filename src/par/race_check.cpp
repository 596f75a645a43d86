#include "par/race_check.h"

#include <algorithm>
#include <cstdio>

#include "common/config.h"
#include "common/log.h"

namespace noc::par {

namespace {

const char *const kDirName[kNumCardinal] = {"north", "east", "south",
                                            "west"};

/**
 * Sort key for conflict scanning: records of the same (object, phase)
 * become adjacent, ordered by actor so a group's distinct actors are
 * found in one pass. The order is a pure function of the records, so
 * diagnostics are deterministic across reruns and shard counts.
 */
bool
recordLess(const AccessRecord &a, const AccessRecord &b)
{
    if (a.object != b.object)
        return a.object < b.object;
    if (a.phase != b.phase)
        return a.phase < b.phase;
    if (a.actor != b.actor)
        return a.actor < b.actor;
    return static_cast<int>(a.cls) < static_cast<int>(b.cls);
}

} // namespace

RaceChecker::RaceChecker(int width, int height)
    : width_(width), height_(height), numNodes_(width * height)
{
    NOC_ASSERT(width > 0 && height > 0, "race checker needs a mesh");
    lanes_.resize(1);
}

void
RaceChecker::beginRun(int shards)
{
    NOC_ASSERT(shards >= 1, "race checker needs at least one shard");
    lanes_.assign(static_cast<std::size_t>(shards), {});
    // A step logs at most 1 + 3 * kNumCardinal records; reserving for
    // the worst case keeps the per-step hook allocation-free in steady
    // state.
    for (auto &lane : lanes_)
        lane.reserve(static_cast<std::size_t>(numNodes_) *
                     (1 + 3 * kNumCardinal));
}

void
RaceChecker::noteAccess(const AccessRecord &rec, int shard)
{
    lanes_[static_cast<std::size_t>(shard)].push_back(rec);
}

void
RaceChecker::noteStep(NodeId n, int phase, int shard, bool interior)
{
    auto &lane = lanes_[static_cast<std::size_t>(shard)];
    AccessRecord rec;
    rec.actor = n;
    rec.phase = static_cast<std::uint8_t>(phase);
    rec.shard = static_cast<std::uint16_t>(shard);
    rec.atomicOp = true;
    rec.interior = interior;

    // The stepped router's own pipeline state.
    rec.object = static_cast<std::int32_t>(n);
    rec.cls = AccessClass::Owned;
    lane.push_back(rec);

    const int x = static_cast<int>(n) % width_;
    const int y = static_cast<int>(n) / width_;
    for (int d = 0; d < kNumCardinal; ++d) {
        int nx = x, ny = y;
        switch (static_cast<Direction>(d)) {
          case Direction::North: ++ny; break;
          case Direction::South: --ny; break;
          case Direction::East: ++nx; break;
          case Direction::West: --nx; break;
          default: break;
        }
        if (nx < 0 || nx >= width_ || ny < 0 || ny >= height_)
            continue;
        const std::int32_t m = ny * width_ + nx;

        // The in-cycle reserveInputVc handshake against the neighbour
        // shares the neighbour's router-state object, so it conflicts
        // with the neighbour's own step (distance-1 violations) and
        // with any other router's handshake (distance-2 violations).
        rec.object = m;
        rec.cls = AccessClass::Reserve;
        lane.push_back(rec);

        // The neighbour's occupancy mirror for the link from this
        // router: the mirror slot on m faces back toward n.
        const int dirAtM =
            static_cast<int>(opposite(static_cast<Direction>(d)));
        rec.object = static_cast<std::int32_t>(numNodes_) +
                     m * kNumCardinal + dirAtM;
        rec.cls = AccessClass::Mirror;
        lane.push_back(rec);

        // The neighbour's wake flag (commuting store of 1).
        rec.object = static_cast<std::int32_t>(numNodes_) * (1 + kNumCardinal) + m;
        rec.cls = AccessClass::Wake;
        lane.push_back(rec);
    }
}

std::string
RaceChecker::objectName(std::int32_t object) const
{
    if (object < numNodes_) {
        return "router " + std::to_string(object) +
               "'s router-private state";
    }
    const std::int32_t mirrorBase = numNodes_;
    const std::int32_t wakeBase = numNodes_ * (1 + kNumCardinal);
    if (object < wakeBase) {
        const std::int32_t t = (object - mirrorBase) / kNumCardinal;
        const std::int32_t d = (object - mirrorBase) % kNumCardinal;
        return "router " + std::to_string(t) + "'s " + kDirName[d] +
               " occupancy mirror";
    }
    return "router " + std::to_string(object - wakeBase) + "'s wake flag";
}

void
RaceChecker::addFinding(std::string msg)
{
    ++findingsTotal_;
    if (findings_.size() < kMaxFindings)
        findings_.push_back(std::move(msg));
}

void
RaceChecker::skipCycles(Cycle n)
{
    for (const auto &lane : lanes_)
        NOC_ASSERT(lane.empty(), "a skipped superstep logged a step");
    cyclesChecked_ += n;
}

void
RaceChecker::endCycle(Cycle now)
{
    merged_.clear();
    for (auto &lane : lanes_) {
        merged_.insert(merged_.end(), lane.begin(), lane.end());
        lane.clear();
    }
    recordsLogged_ += merged_.size();
    ++cyclesChecked_;
    std::sort(merged_.begin(), merged_.end(), recordLess);

    const std::uint64_t before = findingsTotal_;
    for (std::size_t i = 0; i < merged_.size();) {
        std::size_t j = i;
        bool allWake = true;
        while (j < merged_.size() &&
               merged_[j].object == merged_[i].object &&
               merged_[j].phase == merged_[i].phase) {
            if (merged_[j].cls == AccessClass::Mirror &&
                !merged_[j].atomicOp) {
                const AccessRecord &r = merged_[j];
                addFinding(
                    "cycle " + std::to_string(now) + ": router " +
                    std::to_string(r.actor) + " (shard " +
                    std::to_string(r.shard) + ", phase " +
                    std::to_string(r.phase) +
                    ") made a non-atomic access to " +
                    objectName(r.object) +
                    "; cross-shard occupancy mirrors must be "
                    "std::atomic (relaxed load/store) for the hand-off "
                    "to be defined");
            }
            allWake = allWake && merged_[j].cls == AccessClass::Wake;
            ++j;
        }
        // Distinct actors on the same object in the same phase: only
        // commuting wake-flag stores are sanctioned. Records are
        // actor-sorted, so first-vs-last spans the group.
        if (!allWake && merged_[j - 1].actor != merged_[i].actor) {
            const AccessRecord &a = merged_[i];
            const AccessRecord &b = merged_[j - 1];
            addFinding(
                "cycle " + std::to_string(now) + ": routers " +
                std::to_string(a.actor) + " (shard " +
                std::to_string(a.shard) + ") and " +
                std::to_string(b.actor) + " (shard " +
                std::to_string(b.shard) +
                ") were stepped in the same schedule phase (phase pair " +
                std::to_string(a.phase) + "/" + std::to_string(b.phase) +
                ") with overlapping footprints on " +
                objectName(a.object) +
                "; same-phase steps must sit at Manhattan distance >= 3 "
                "(the distance-2 colouring is violated)");
        }
        i = j;
    }

    // Window rule, per object over all phases: an interior step runs
    // unordered against every other shard, so nothing it touched may
    // be touched by another shard in this cycle.
    for (std::size_t i = 0; i < merged_.size();) {
        std::size_t k = i;
        const AccessRecord *inner = nullptr;
        for (; k < merged_.size() && merged_[k].object == merged_[i].object;
             ++k) {
            if (inner == nullptr && merged_[k].interior)
                inner = &merged_[k];
        }
        for (std::size_t m = i; inner != nullptr && m < k; ++m) {
            const AccessRecord &o = merged_[m];
            if (o.shard == inner->shard)
                continue;
            addFinding(
                "cycle " + std::to_string(now) + ": router " +
                std::to_string(inner->actor) + " (shard " +
                std::to_string(inner->shard) + ", phase " +
                std::to_string(inner->phase) +
                ", interior window) and router " + std::to_string(o.actor) +
                " (shard " + std::to_string(o.shard) + ", phase " +
                std::to_string(o.phase) + ") both touched " +
                objectName(o.object) +
                "; an interior step must sit at Manhattan distance >= 3 "
                "from every other shard's node (a boundary node was "
                "filed as interior)");
            break;
        }
        i = k;
    }

    if (failFast_ && findingsTotal_ > before) {
        for (const std::string &f : findings_)
            std::fprintf(stderr, "noc-race-check: %s\n", f.c_str());
        fatal("NOC_RACE_CHECK: shard-ownership violation (see above)");
    }
}

bool
RaceChecker::enabledFromEnv()
{
    return envNumber<int>("NOC_RACE_CHECK", 0, 0, 1) == 1;
}

} // namespace noc::par
