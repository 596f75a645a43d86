/**
 * @file
 * Centralised sense-reversing spin barrier for the sharded engine,
 * and the wait rule it shares with the engine's progress counters.
 *
 * The engine erects one barrier per simulated cycle and waits on its
 * neighbours' progress counters several times more, so a wait must be
 * cheap when the workers are genuinely parallel — hence spinning on a
 * counter instead of a futex — yet not pathological when the host has
 * fewer cores than shards, hence the immediate yield() once the pool
 * oversubscribes the machine (waitUntil).
 *
 * The last arriver may run an epilogue functor *inside* the barrier:
 * every other party is still parked on the epoch at that point, so the
 * epilogue executes strictly single-threaded between cycles (the
 * engine uses this for its reductions and run-control updates). The
 * release store on the epoch publishes everything the epilogue wrote
 * to every waiter's subsequent acquire load.
 */
#ifndef ROCOSIM_PAR_BARRIER_H_
#define ROCOSIM_PAR_BARRIER_H_

#include <atomic>
#include <cstdint>
#include <thread>

#include "common/log.h"

namespace noc::par {

/** Whether a pool of @p parties threads may busy-wait on this host:
 *  only when every party can own a hardware thread. */
inline bool
spinFriendly(int parties)
{
    return static_cast<unsigned>(parties) <=
           std::thread::hardware_concurrency();
}

/**
 * Waits until @p ready() holds. With @p spin a brief busy-wait comes
 * first; otherwise (an oversubscribed pool) the core is given away at
 * once, since the awaited party may need this very core to progress.
 */
template <typename Ready>
void
waitUntil(bool spin, Ready &&ready)
{
    constexpr int kSpinLimit = 4096;
    int spins = 0;
    while (!ready()) {
        if (!spin || ++spins > kSpinLimit)
            std::this_thread::yield();
    }
}

class SpinBarrier
{
  public:
    explicit SpinBarrier(int parties)
        : parties_(parties), spinFriendly_(spinFriendly(parties))
    {
        NOC_ASSERT(parties > 0, "barrier needs at least one party");
    }

    SpinBarrier(const SpinBarrier &) = delete;
    SpinBarrier &operator=(const SpinBarrier &) = delete;

    /**
     * Blocks until all parties have arrived; the last arriver runs
     * @p epilogue alone before releasing the others.
     */
    template <typename Fn>
    void
    arriveAndWait(Fn &&epilogue)
    {
        // Ordering argument (audited in DESIGN section 14; the
        // ShardBarrierTest tsan suite exercises every edge):
        //
        //   * the relaxed epoch read needs no ordering: it only picks
        //     the value the subsequent acquire loads compare against,
        //     and epoch_ is monotonic, so a stale read can only make
        //     the waiter spin one extra iteration.
        //   * arrived_.fetch_add must be acq_rel. The release half
        //     publishes this worker's phase writes (router state,
        //     race-checker lanes) to the last arriver that runs the
        //     epilogue; the acquire half makes the last arriver's RMW
        //     the sync point that sees *every* earlier party's writes
        //     before the epilogue reads them.
        //   * the arrived_ reset can be relaxed: only the epilogue
        //     runner writes it while all other parties are parked, and
        //     the epoch release below sequences it before any later
        //     fetch_add from the released waiters.
        //   * epoch_.store(release) / epoch_.load(acquire) is the
        //     hand-off that publishes everything the single-threaded
        //     epilogue wrote (the loop's now / stop — the
        //     NOC_EPILOGUE_STATE members — and the reduced ledger) to
        //     every waiter's next cycle.
        std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            parties_) {
            epilogue();
            arrived_.store(0, std::memory_order_relaxed);
            epoch_.store(epoch + 1, std::memory_order_release);
            return;
        }
        waitUntil(spinFriendly_, [&] {
            return epoch_.load(std::memory_order_acquire) != epoch;
        });
    }

    void
    arriveAndWait()
    {
        arriveAndWait([] {});
    }

  private:
    const int parties_;
    const bool spinFriendly_;
    std::atomic<int> arrived_{0};
    std::atomic<std::uint64_t> epoch_{0};
    static_assert(std::atomic<int>::is_always_lock_free &&
                      std::atomic<std::uint64_t>::is_always_lock_free,
                  "a locking atomic would let the arrival RMW block "
                  "while peers spin on the epoch — the barrier's "
                  "forward-progress argument assumes lock-free both");
};

} // namespace noc::par

#endif // ROCOSIM_PAR_BARRIER_H_
