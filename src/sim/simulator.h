/**
 * @file
 * Simulation driver: warm-up, measurement and drain phases, and the
 * aggregated result record every bench and figure is built from.
 */
#ifndef ROCOSIM_SIM_SIMULATOR_H_
#define ROCOSIM_SIM_SIMULATOR_H_

#include <memory>
#include <string_view>
#include <vector>

#include "common/config.h"
#include "common/stats.h"
#include "fault/fault.h"
#include "power/energy_model.h"
#include "sim/network.h"

namespace noc {

/** Everything a run produces (the paper's reported quantities). */
struct SimResult {
    // Performance.
    double avgLatency = 0;      ///< cycles, measured packets (Figs 8-10)
    double latencyStddev = 0;
    double maxLatency = 0;
    double p50Latency = 0;      ///< median
    double p99Latency = 0;      ///< tail (2-cycle histogram bins)
    double throughputFlits = 0; ///< delivered flits/node/cycle

    // Reliability.
    std::uint64_t injected = 0;   ///< measured packets offered
    std::uint64_t delivered = 0;  ///< measured packets completed
    double completion = 1.0;      ///< Figs 11-12

    // Energy.
    EnergyBreakdown energy;       ///< measurement window
    double energyPerPacketNj = 0; ///< Fig 13

    // Composite metrics (Section 5.3).
    double edp = 0; ///< latency x energy/packet (nJ*cycles)
    double pef = 0; ///< EDP / completion probability (Fig 14)

    // Diagnostics.
    Cycle cycles = 0;      ///< measurement-window length
    bool timedOut = false; ///< the maxCycles cap stopped the run
    double rowContention = 0; ///< Fig 3a probe
    double colContention = 0; ///< Fig 3b probe

    // Closed-loop traffic service (cfg.svc.enabled runs only).
    /** Per-message-class latency/SLO block (BENCH json "classes"). */
    struct ClassResult {
        std::string_view name;     ///< msgClassName(): a static string
        std::uint64_t injected = 0;
        std::uint64_t delivered = 0;
        double avgLatency = 0;     ///< one-way, measured packets
        double p50Latency = 0;
        double p99Latency = 0;
        double avgRtt = 0;         ///< request classes only
        double p99Rtt = 0;
        std::uint64_t rttCount = 0;
        std::uint64_t sloViolations = 0;

        bool operator==(const ClassResult &) const = default;
    };
    std::vector<ClassResult> classes; ///< kNumMsgClasses entries, or empty
    std::uint64_t replyCount = 0;     ///< reply packets delivered
    std::uint64_t mshrThrottled = 0;  ///< draws discarded, window full
    std::uint64_t svcTimeouts = 0;    ///< MSHRs reclaimed by timeout
    std::uint64_t svcLateReplies = 0; ///< replies after MSHR timeout
    Cycle drainCycles = 0;            ///< total run length incl. drain

    /**
     * Every field equal (doubles by ==): what "identical" means in
     * every serial / shard / idle-skip / pool identity gate.
     */
    bool operator==(const SimResult &) const = default;
};

/**
 * Runs one configuration to completion.
 *
 * Protocol (Section 5.4): inject warmupPackets network-wide, then tag
 * and measure measurePackets more; generation then stops and the run
 * drains.  Faulty networks may never drain — the run ends after an
 * inactivity window of twice the expected drain time or at maxCycles,
 * and undelivered measured packets lower the completion probability.
 *
 * The constructor runs the proofs; run() attaches the recorder and
 * race checker, drives the run loop of src/par (par::run) and reduces
 * the result. With cfg.shards > 1
 * (or NOC_SHARDS set) that loop runs sharded, with bit-identical
 * results; shard count only changes wall-clock time.
 */
class Simulator
{
  public:
    explicit Simulator(const SimConfig &cfg,
                       const std::vector<FaultSpec> &faults = {});

    /** Runs to completion and returns the aggregated results. */
    NOC_PHASE_FN(engine)
    SimResult run();

    Network &network() { return net_; }

    /**
     * Attaches a trace recorder for this run (wired into every router
     * and NIC). Without an explicit recorder, run() consults the
     * NOC_TRACE environment (obs::Recorder::fromEnv).
     */
    void attachObserver(std::shared_ptr<obs::Recorder> obs);

    /** The run's recorder, or nullptr when tracing is off. */
    obs::Recorder *observer() const { return obs_.get(); }

  private:
    /** Runs the up-front deadlock-freedom proof, then returns @p cfg. */
    static const SimConfig &validated(const SimConfig &cfg);

    SimConfig cfg_;
    Network net_;
    std::shared_ptr<obs::Recorder> obs_;
};

} // namespace noc

#endif // ROCOSIM_SIM_SIMULATOR_H_
