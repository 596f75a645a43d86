/**
 * @file
 * Arbiters used by the allocators.
 *
 * RoundRobinArbiter is the paper's workhorse (v:1 local stages, P:1
 * global stages). MatrixArbiter provides least-recently-served fairness
 * and is used by the ablation benches to contrast allocator choices.
 */
#ifndef ROCOSIM_ROUTER_ARBITER_H_
#define ROCOSIM_ROUTER_ARBITER_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "common/log.h"

namespace noc {

/**
 * Rotating-priority arbiter over up to 64 requesters.
 *
 * Grants the first requester at or after the rotating pointer; on a
 * grant the pointer moves one past the winner, giving round-robin
 * fairness under persistent load.
 */
class RoundRobinArbiter
{
  public:
    explicit RoundRobinArbiter(int size);

    /**
     * Grants one requester from @p requestMask (bit i = requester i),
     * or -1 when the mask is empty. Updates priority on a grant.
     */
    int
    arbitrate(std::uint64_t requestMask)
    {
        int winner = peek(requestMask);
        if (winner >= 0)
            next_ = winner + 1 < size_ ? winner + 1 : 0; // no divide
        return winner;
    }

    /** Like arbitrate() but leaves the priority pointer untouched. */
    int
    peek(std::uint64_t requestMask) const
    {
        NOC_ASSERT(size_ >= 64 || (requestMask >> size_) == 0,
                   "request mask wider than the arbiter");
        if (requestMask == 0)
            return -1;
        // Rotating priority in two finds: the first requester at or
        // after the pointer, else the wrap's first requester overall.
        const std::uint64_t atOrAfter = requestMask >> next_;
        return atOrAfter ? next_ + std::countr_zero(atOrAfter)
                         : std::countr_zero(requestMask);
    }

    int size() const { return size_; }

  private:
    int size_;
    int next_ = 0;
};

/**
 * Matrix (least-recently-served) arbiter: a triangular priority matrix
 * where the winner becomes lowest priority against everyone.
 */
class MatrixArbiter
{
  public:
    explicit MatrixArbiter(int size);

    /** Grants the highest-priority requester in @p requestMask or -1. */
    int arbitrate(std::uint64_t requestMask);

    int size() const { return size_; }

  private:
    /** prio_[i*size_+j] true when i beats j. */
    std::vector<bool> prio_;
    int size_;
};

} // namespace noc

#endif // ROCOSIM_ROUTER_ARBITER_H_
