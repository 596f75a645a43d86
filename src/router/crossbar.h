/**
 * @file
 * Crossbar conflict checker and activity counter.
 *
 * The simulator moves flits directly between buffers and links; the
 * Crossbar object enforces the structural constraints a real switch
 * imposes — one flit per input and per output per cycle — and counts
 * traversals for the energy model.
 */
#ifndef ROCOSIM_ROUTER_CROSSBAR_H_
#define ROCOSIM_ROUTER_CROSSBAR_H_

#include <cstdint>

#include "common/log.h"

namespace noc {

class Crossbar
{
  public:
    Crossbar(int numInputs, int numOutputs)
        : numInputs_(numInputs), numOutputs_(numOutputs)
    {
        NOC_ASSERT(numInputs >= 1 && numInputs <= 32, "bad crossbar shape");
        NOC_ASSERT(numOutputs >= 1 && numOutputs <= 32,
                   "bad crossbar shape");
    }

    /** Clears this cycle's connection state. */
    void
    beginCycle()
    {
        inUsed_ = 0;
        outUsed_ = 0;
    }

    /** Connects input @p in to output @p out; asserts on conflicts. */
    void
    traverse(int in, int out)
    {
        NOC_ASSERT(in >= 0 && in < numInputs_, "crossbar input range");
        NOC_ASSERT(out >= 0 && out < numOutputs_, "crossbar output range");
        NOC_ASSERT(!(inUsed_ & (1u << in)),
                   "two flits on one crossbar input in one cycle");
        NOC_ASSERT(!(outUsed_ & (1u << out)),
                   "two flits on one crossbar output in one cycle");
        inUsed_ |= 1u << in;
        outUsed_ |= 1u << out;
        ++traversals_;
    }

    std::uint64_t traversals() const { return traversals_; }
    int numInputs() const { return numInputs_; }
    int numOutputs() const { return numOutputs_; }

  private:
    int numInputs_;
    int numOutputs_;
    std::uint32_t inUsed_ = 0;
    std::uint32_t outUsed_ = 0;
    std::uint64_t traversals_ = 0;
};

} // namespace noc

#endif // ROCOSIM_ROUTER_CROSSBAR_H_
