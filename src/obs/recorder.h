/**
 * @file
 * Per-run trace recorder: rings + histograms behind one record() call.
 *
 * One Recorder serves one Simulator. The pipeline hooks, one
 * `if (obs_)` test each, feed it flit lifecycle events while it is
 * attached; it keeps
 *
 *   - scalar event counters per stage (every flit, always cheap),
 *   - residency histograms built from *sampled* packet head flits by
 *     pairing consecutive events into slices (see obs/event.h),
 *   - a fixed-capacity EventRing per router holding the recent slices
 *     for the Perfetto exporter,
 *   - end-to-end latency histograms (all packets, plus per-distance
 *     and measurement-window views).
 *
 * Sampling is deterministic — a hash of the packet id, not a coin flip
 * — so a run traced at 1/N samples the same packets no matter how a
 * sweep schedules it, and re-runs are reproducible.
 */
#ifndef ROCOSIM_OBS_RECORDER_H_
#define ROCOSIM_OBS_RECORDER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/flit.h"
#include "common/types.h"
#include "obs/event.h"
#include "obs/ring_buffer.h"
#include "obs/summary.h"

namespace noc {
struct SimConfig;
class Network;
} // namespace noc

namespace noc::obs {

class Recorder
{
  public:
    struct Options {
        int nodes = 0;
        int meshWidth = 0;
        int meshHeight = 0;
        RouterArch arch = RouterArch::Roco;
        /** Master switch; a disabled recorder ignores every call. */
        bool enabled = true;
        /** Trace 1 of every N packets (1 = all). */
        std::uint64_t sampleEvery = 1;
        /** Ring capacity per router, in events. */
        std::size_t ringCapacity = 2048;
    };

    explicit Recorder(const Options &opt);

    /**
     * Builds a recorder from the environment, or nullptr when tracing
     * is off. NOC_TRACE=1 enables (0 or unset: off); NOC_TRACE_SAMPLE=N
     * samples 1/N packets (default every packet); NOC_TRACE_BUF=N sizes
     * the per-router rings (N <= 2^20). A malformed value is fatal.
     */
    static std::shared_ptr<Recorder> fromEnv(const SimConfig &cfg);

    /**
     * A flit reached lifecycle stage @p stage at router/NIC @p node.
     * Counts every call; head flits of sampled packets additionally
     * close the packet's open residency slice and feed @p node's ring.
     * @p track is the hardware lane (RoCo module / PS quadrant),
     * @p vcSlot the VC or path-set slot index when known.
     */
    void record(Stage stage, const Flit &f, NodeId node, Cycle now,
                int track = 0, int vcSlot = -1);

    /** A packet fully delivered; feeds the end-to-end histograms. */
    void recordEndToEnd(const Flit &head, Cycle now);

    /**
     * Occupancy probe: buffered flits per path-set group. RoCo splits
     * row/column modules; other architectures report their total in
     * slot 0 (the row/column split only exists in RoCo hardware).
     */
    void samplePathSetOccupancy(const Network &net);

    /** True when packet @p packetId is traced at the current rate. */
    bool sampled(std::uint64_t packetId) const;

    /**
     * Prepares the recorder for the sharded engine (src/par): summary
     * state splits into one lane per shard (@p laneOf maps node ->
     * lane, all < @p lanes) and the sampled-packet cursor table
     * switches to striped locking. Per-lane writes stay lock-free
     * because an event at node n is only ever recorded by the worker
     * driving n's shard, and the pentachromatic step schedule keeps
     * every ring single-writer within a phase; summary() merges the
     * lanes, and Summary::merge is commutative, so the merged result
     * is bit-identical to an unsharded run. Lanes persist for the
     * recorder's remaining lifetime.
     */
    void setShardLanes(int lanes, std::vector<int> laneOf);

    /** Histogram/counter aggregate (copy; safe to merge elsewhere). */
    Summary summary() const;

    const Options &options() const { return opt_; }
    bool enabled() const { return opt_.enabled; }
    int numNodes() const { return opt_.nodes; }
    const EventRing &ring(NodeId n) const { return rings_[n]; }

  private:
    /** Open residency slice of one sampled packet's head flit. */
    struct Cursor {
        Stage stage;
        Cycle cycle;
        NodeId node;
        std::uint8_t track;
        std::int16_t vc;
    };

    /** Summary lane events at @p node are recorded into. */
    Summary &laneFor(NodeId node);

    static constexpr std::size_t kCursorStripes = 64;

    Options opt_;
    std::vector<EventRing> rings_;
    /** Open cursors, one table per stripe: a table is only touched
     *  under its stripe's lock, so two shards never mutate one table. */
    std::unordered_map<std::uint64_t, Cursor> cursors_[kCursorStripes];
    /** One Summary per shard lane; lanes_[0] doubles as the 1-shard
     *  summary (samplePathSetOccupancy always records there — it runs
     *  in the run loop's single-threaded end-of-cycle step). */
    std::vector<Summary> lanes_{1};
    std::vector<int> laneOf_; ///< node -> lane; empty = all lane 0
    /** Cursor-table stripe locks; allocated only when lanes > 1. */
    std::unique_ptr<std::mutex[]> stripes_;
};

} // namespace noc::obs

#endif // ROCOSIM_OBS_RECORDER_H_
