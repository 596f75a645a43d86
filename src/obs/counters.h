/**
 * @file
 * Counter-level observability: per-router metric extraction and the
 * derived network-wide rates (link utilisation, crossbar grant rate,
 * mirror-allocator tie rate, early-ejection hit rate) exported to the
 * BENCH JSON / CSV dumps.
 *
 * These read the routers' ActivityCounters directly, so they work in
 * every build — the NOC_OBS option only gates the flit-level tracing
 * hooks, not the activity counters the energy model already keeps.
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

/** Per-router activity metrics exposed for the CSV dump. */
enum class Metric : std::uint8_t {
    BufferWrites = 0,
    BufferReads,
    CrossbarTraversals,
    LinkTraversals,
    VaGlobalArbs,
    SaGlobalArbs,
    MirrorTies,
    EarlyEjections,
};

/** Human-readable metric name (stable: used as CSV column header). */
const char *toString(Metric m);

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

/**
 * Per-router metric table as CSV: one row per router
 * (node,x,y,<metric...>), one column per Metric.
 */
std::string countersCsv(const Network &net);

} // namespace noc::obs

#endif // ROCOSIM_OBS_COUNTERS_H_
