/**
 * @file
 * The rocosim benchmark: workload table, result digests and the traced
 * serial cycle loop. See rocobench/README.md for the metrics and why
 * each workload exists.
 */
#ifndef ROCOBENCH_ROCOBENCH_H_
#define ROCOBENCH_ROCOBENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/flit.h"
#include "fault/fault.h"
#include "sim/simulator.h"

namespace rocobench {

/** One simulation of a workload's batch. */
struct Job {
    std::string name;
    noc::SimConfig cfg;
    std::vector<noc::FaultSpec> faults;
};

/**
 * The batch of simulations workload @p name runs for workload seed
 * @p seed. The seed sets every traffic stream and fault placement; it
 * never reaches the program except through the generated configs.
 * Empty when @p name is unknown.
 */
std::vector<Job> makeWorkload(const std::string &name, std::uint64_t seed);

/** Digest of a batch's generated inputs (per-job config seed, faults). */
std::uint64_t inputsDigest(const std::vector<Job> &jobs);

/**
 * Digest of one run's simulated statistics: cycles, packet counts,
 * latency, the flit ledger (incl. flitCycles), energy, PEF and the
 * service block. Host-side counters such as executed router steps are
 * deliberately left out, so an idle-skip change keeps the digest.
 */
std::uint64_t statsDigest(const noc::SimResult &r, const noc::FlitLedger &l);

/** Host time spent in each layer by one traced run (nanoseconds). */
struct LayerTimes {
    std::int64_t nicNs = 0;       ///< Nic::generate calls
    std::int64_t routerNs[3] = {}; ///< Router::step, by RouterArch
    std::int64_t invariantNs = 0; ///< Network::checkProtocolInvariants
    std::int64_t phaseNs[3] = {}; ///< whole cycles in warm-up/measure/drain
    std::int64_t reduceNs = 0;    ///< result reduction and energy model

    LayerTimes &operator+=(const LayerTimes &o);
};

/** Work counts of one traced run, taken at the same boundaries. */
struct LayerCounts {
    std::uint64_t cycles = 0;
    std::uint64_t generateCalls = 0;
    std::uint64_t packetsGenerated = 0;
    std::uint64_t stepsScheduled = 0;
    std::uint64_t stepsExecuted[3] = {}; ///< by RouterArch
    std::uint64_t drainCycles = 0;       ///< cycles after generation ended
    std::uint64_t flitsDelivered = 0;    ///< flits ejected at a NIC
    std::uint64_t nicLoops = 0;          ///< cycles whose NIC loop ran
    std::uint64_t invariantChecks = 0;
    /** Clock reads that each phase's cycle spans contain, counting the
     *  span's own boundary as one (see clockReadNs()). */
    std::uint64_t clockReads[3] = {};
    noc::ActivityCounters activity;      ///< whole run, all phases
    std::uint64_t saDenied = 0;          ///< SA global-stage losses
    std::uint64_t saTrials = 0;

    LayerCounts &operator+=(const LayerCounts &o);
};

/** One cycle of a traced run, kept in memory until the process exits. */
struct CycleSpan {
    std::uint32_t job = 0;
    std::uint32_t cycle = 0;
    std::uint8_t phase = 0; ///< 0 warm-up, 1 measure, 2 drain
    std::uint16_t steps = 0;
    std::uint16_t packets = 0;
    std::int64_t beginNs = 0; ///< from the start of the job's loop
    std::int64_t endNs = 0;
    std::int32_t nicNs = 0;
    std::int32_t routerNs = 0;
    std::int32_t invariantNs = 0;
};

/** What a traced run produces; r and ledger must match Simulator::run. */
struct TracedRun {
    noc::SimResult r;
    noc::FlitLedger ledger;
    std::uint64_t stepsExecuted = 0;
    std::uint64_t stepsScheduled = 0;
    LayerTimes t;
    LayerCounts n;
};

/**
 * Runs @p sim's network to completion through public calls only —
 * RunControl, Nic::generate, Router::step in stepPhase order under the
 * idle-skip protocol, and the periodic invariant audit — timing each
 * layer call and appending one span per cycle to @p spans (tagged
 * @p jobIndex). @p sim must be freshly constructed and never run.
 */
TracedRun runTraced(noc::Simulator &sim, const noc::SimConfig &cfg,
                    std::uint32_t jobIndex, std::vector<CycleSpan> &spans);

/** Host monotonic clock in nanoseconds. */
std::int64_t nowNs();

/**
 * Measured cost of one nowNs() call. A span timed by two reads carries
 * about one read's cost on top of the work it times, so the per-layer
 * numbers subtract this once per span and once per read inside it.
 */
double clockReadNs();

} // namespace rocobench

#endif // ROCOBENCH_ROCOBENCH_H_
