/**
 * @file
 * Counter-level observability: the network-wide activity totals and
 * their derived rates (link utilisation, crossbar grant rate,
 * mirror-allocator tie rate, early-ejection hit rate) exported to the
 * BENCH JSON.
 *
 * These read the routers' ActivityCounters directly, so they need no
 * attached Recorder: they are the activity counters the energy model
 * already keeps, not the flit-level trace.
 */
#ifndef ROCOSIM_OBS_COUNTERS_H_
#define ROCOSIM_OBS_COUNTERS_H_

#include <cstdint>
#include <string>

#include "common/types.h"

namespace noc {
class Network;
} // namespace noc

namespace noc::obs {

/** Network-wide counter snapshot with the derived rates. */
struct CounterSummary {
    std::uint64_t cycles = 0;
    std::uint64_t linkTraversals = 0;
    std::uint64_t crossbarTraversals = 0;
    std::uint64_t earlyEjections = 0;
    std::uint64_t mirrorTies = 0;
    std::uint64_t saGlobalArbs = 0;
    std::uint64_t deliveredFlits = 0;

    /** linkTraversals / (cycles * directed mesh links). */
    double linkUtilization = 0;
    /** crossbarTraversals / (cycles * routers). */
    double crossbarGrantRate = 0;
    /** earlyEjections / delivered flits. */
    double earlyEjectionRate = 0;
    /** mirror ties / SA global arbitrations. */
    double mirrorTieRate = 0;
};

/** Snapshot of @p net after @p cycles simulated cycles. */
CounterSummary snapshot(const Network &net, Cycle cycles);

/** The summary as a flat JSON object. */
std::string countersJson(const CounterSummary &s);

} // namespace noc::obs

#endif // ROCOSIM_OBS_COUNTERS_H_
