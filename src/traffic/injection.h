/**
 * @file
 * Packet injection processes.
 *
 * An injection process decides *when* a node offers a packet to the
 * network; the destination pattern (patterns.h) decides *where to*.
 * Rates are expressed in flits/node/cycle throughout, matching the
 * paper's x axes; processes convert to packets internally.
 */
#ifndef ROCOSIM_TRAFFIC_INJECTION_H_
#define ROCOSIM_TRAFFIC_INJECTION_H_

#include <memory>

#include "common/rng.h"
#include "common/types.h"

namespace noc {

/** Abstract packet arrival process for a single node. */
class InjectionProcess
{
  public:
    virtual ~InjectionProcess() = default;

    /** True when a packet should be offered during cycle @p now. */
    virtual bool fire(Cycle now, Rng &rng) = 0;

    /** Long-run offered load in packets/cycle. */
    virtual double packetRate() const = 0;
};

/**
 * One node's source stream: the RNG its traffic generator draws every
 * choice from, and its Bernoulli packet rate. A Network keeps one lane
 * per node in a contiguous array, so an engine can run every plain
 * Bernoulli source with one sweep that touches only the lanes and
 * calls into a NIC when a draw fires or its deadline is due
 * (Network::generateTraffic); a standalone TrafficGenerator owns its
 * lane. One cache line per lane, so two shard threads sweeping
 * neighbouring nodes never share one.
 */
struct alignas(64) InjectionLane {
    Rng rng{0};
    /** Packets/cycle when the process is Bernoulli, else -1. */
    double rate = -1.0;
    /**
     * The first cycle at which the node's service endpoint has work of
     * its own (a reply to pump, an MSHR to expire), kNever when it has
     * none or the node runs no endpoint. Kept by the NIC.
     */
    Cycle due = kNever;

    /** This cycle's arrival draw (exactly BernoulliInjection::fire). */
    bool fires() { return rng.nextBool(rate); }
};

/** Memoryless Bernoulli arrivals (the classic open-loop load model). */
class BernoulliInjection : public InjectionProcess
{
  public:
    /** @p flitRate flits/node/cycle, @p flitsPerPacket flits/packet. */
    BernoulliInjection(double flitRate, int flitsPerPacket);

    bool fire(Cycle now, Rng &rng) override;
    double packetRate() const override { return packetRate_; }

  private:
    double packetRate_;
};

/**
 * Pareto-distributed ON/OFF source.
 *
 * Superposing heavy-tailed ON/OFF sources is the standard generative
 * model for the self-similar web traffic of Barford & Crovella [1]
 * (the paper's reference for its self-similar workload). During ON
 * periods packets arrive as Bernoulli at the peak rate
 * flitRate / dutyCycle; OFF periods are silent. The OFF-period shape
 * parameter < 2 gives infinite variance, hence long-range dependence.
 */
class ParetoOnOffInjection : public InjectionProcess
{
  public:
    /**
     * @param flitRate   average offered load, flits/node/cycle
     * @param flitsPerPacket flits per packet
     * @param alphaOn    Pareto shape of ON durations (default 1.9)
     * @param alphaOff   Pareto shape of OFF durations (default 1.25)
     * @param meanOn     mean ON duration in cycles (default 40)
     * @param dutyCycle  long-run fraction of time ON (default 0.35)
     */
    ParetoOnOffInjection(double flitRate, int flitsPerPacket,
                         double alphaOn = 1.9, double alphaOff = 1.25,
                         double meanOn = 40.0, double dutyCycle = 0.35);

    bool fire(Cycle now, Rng &rng) override;
    double packetRate() const override { return packetRate_; }

    bool on() const { return on_; }

  private:
    void drawPeriod(Rng &rng);

    double packetRate_;
    double peakProb_;
    double alphaOn_, alphaOff_;
    double xmOn_, xmOff_;
    bool on_ = false;
    Cycle remaining_ = 0;
};

} // namespace noc

#endif // ROCOSIM_TRAFFIC_INJECTION_H_
