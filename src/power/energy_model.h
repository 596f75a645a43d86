/**
 * @file
 * Activity-based energy accounting.
 *
 * Routers increment ActivityCounters as their components fire; the
 * EnergyModel multiplies the counters by the per-event constants and
 * adds leakage integrated over simulated time — exactly the paper's
 * methodology of back-annotating synthesis power into the simulator.
 */
#ifndef ROCOSIM_POWER_ENERGY_MODEL_H_
#define ROCOSIM_POWER_ENERGY_MODEL_H_

#include <cstdint>

#include "power/energy_params.h"

namespace noc {

/** Raw event counts for one router (or summed over the network). */
struct ActivityCounters {
    std::uint64_t bufferWrites = 0;
    std::uint64_t bufferReads = 0;
    std::uint64_t crossbarTraversals = 0;
    std::uint64_t linkTraversals = 0;
    std::uint64_t rcComputations = 0;
    std::uint64_t vaLocalArbs = 0;
    std::uint64_t vaGlobalArbs = 0;
    std::uint64_t saLocalArbs = 0;
    std::uint64_t saGlobalArbs = 0;
    /** SA grants decided by the mirror allocator's 2:1 tie arbiter. */
    std::uint64_t saMirrorTies = 0;
    std::uint64_t earlyEjections = 0;

    ActivityCounters &operator+=(const ActivityCounters &o);
    void reset() { *this = ActivityCounters(); }
};

/** Energy totals broken into the components the paper reports. */
struct EnergyBreakdown {
    double bufferPj = 0;
    double crossbarPj = 0;
    double arbiterPj = 0; ///< VA + SA
    double routingPj = 0;
    double linkPj = 0;
    double leakagePj = 0;

    double dynamicPj() const;
    double totalPj() const { return dynamicPj() + leakagePj; }

    bool operator==(const EnergyBreakdown &) const = default;
};

/** Stateless calculator from (counters, params, time, router count). */
class EnergyModel
{
  public:
    explicit EnergyModel(const EnergyParams &params) : params_(params) {}

    /**
     * Energy for @p activity accumulated over @p cycles of simulated
     * time across @p numRouters routers (leakage term).
     */
    EnergyBreakdown compute(const ActivityCounters &activity, Cycle cycles,
                            int numRouters) const;

    /** Total energy / packets, in nanojoules (Figure 13's unit). */
    static double perPacketNj(const EnergyBreakdown &e,
                              std::uint64_t packets);

    const EnergyParams &params() const { return params_; }

  private:
    EnergyParams params_;
};

} // namespace noc

#endif // ROCOSIM_POWER_ENERGY_MODEL_H_
