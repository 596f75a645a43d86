/**
 * @file
 * Warm-up / measurement / drain phase control for one run.
 *
 * The run loop (par::run, src/par) calls it from its end-of-cycle step,
 * the one copy for every shard count, so every shard count makes the
 * same phase decisions at the same cycles: beginCycle() with the
 * generation counter as of the previous cycle, endCycle() with the
 * post-cycle drain state.
 */
#ifndef ROCOSIM_SIM_RUN_CONTROL_H_
#define ROCOSIM_SIM_RUN_CONTROL_H_

#include <algorithm>

#include "common/config.h"

namespace noc {

class RunControl
{
  public:
    /**
     * Inactivity window: in a faulty network blocked packets never
     * drain; the paper stops after twice the fault-free completion
     * time, approximated here with a generous idle window.
     */
    static constexpr Cycle kIdleWindow = 5000;

    explicit RunControl(const SimConfig &cfg)
        : warmTarget_(cfg.warmupPackets),
          genTarget_(cfg.warmupPackets + cfg.measurePackets),
          traceDriven_(cfg.traffic == TrafficKind::Trace)
    {
    }

    /**
     * Top-of-cycle bookkeeping for cycle @p now. @p packetsGenerated
     * is the network's base-1 generation counter; @p traceExhausted
     * replaces the packet-count cutoff for trace-driven runs. Returns
     * true when the measurement window just opened — the caller must
     * then reset the activity and contention probes.
     */
    bool
    beginCycle(Cycle now, bool traceExhausted,
               std::uint64_t packetsGenerated)
    {
        bool genDone =
            traceDriven_ ? traceExhausted : packetsGenerated > genTarget_;
        if (generating_ && genDone) {
            generating_ = false;
            generationEnd_ = now;
        }
        if (!measuring_ && packetsGenerated > warmTarget_) {
            measuring_ = true;
            measureStart_ = now;
            return true;
        }
        return false;
    }

    /**
     * Stop decision after completing the cycle before @p now (@p now
     * counts completed cycles). True once the network has drained, or
     * after the idle window expires with blocked packets (faulty
     * networks). Never stops while generation is still on.
     *
     * @p svcPending is the closed-loop service's count of replies
     * scheduled but not yet injected (ledger svcPending). While any
     * obligation is outstanding the run must not stop — not even via
     * the idle window, which otherwise truncates a reply whose
     * service latency outlasts kIdleWindow of network silence. No
     * hang is possible: every obligation fires at a fixed cycle and
     * injects into an unbounded source queue.
     */
    bool
    endCycle(Cycle now, bool quiescent, Cycle lastDelivery,
             std::uint64_t svcPending = 0) const
    {
        return now >= stopsAt(quiescent, lastDelivery, svcPending);
    }

    /**
     * The completed-cycle count from which endCycle() returns true as
     * long as none of its other arguments changes: 0 once drained,
     * the end of the idle window when blocked, kNever while generation
     * is on or a reply obligation is outstanding. The run loop's
     * fast-forward (par::run) reads the stop rule here, so it is
     * written once.
     */
    Cycle
    stopsAt(bool quiescent, Cycle lastDelivery,
            std::uint64_t svcPending = 0) const
    {
        if (generating_ || svcPending > 0)
            return kNever;
        if (quiescent)
            return 0;
        return std::max(lastDelivery, generationEnd_) + kIdleWindow + 1;
    }

    bool generating() const { return generating_; }
    bool measuring() const { return measuring_; }
    Cycle measureStart() const { return measureStart_; }
    Cycle generationEnd() const { return generationEnd_; }

  private:
    std::uint64_t warmTarget_;
    std::uint64_t genTarget_;
    bool traceDriven_;
    bool generating_ = true;
    bool measuring_ = false;
    Cycle measureStart_ = 0;
    Cycle generationEnd_ = 0;
};

} // namespace noc

#endif // ROCOSIM_SIM_RUN_CONTROL_H_
