/**
 * @file
 * Arrival-slot links between routers (and the generic router's
 * ejection pipe).
 *
 * A link with delay L is a fixed ring of bit_ceil(L + 1) slots: a value
 * sent during cycle t lands in slot (t + L) & mask and is read back in
 * cycle t + L from slot now & mask. Because the ring has more than L
 * slots, the slot a sender writes in cycle t is never the slot due in
 * cycle t, so the sender and the receiver may be stepped in either
 * order within a cycle; and nothing sent in cycle t is due before
 * t + 1, which is what makes the two-phase engine deterministic.
 *
 * A ring is storage only. Which slots hold a value is recorded in the
 * receiving router: one bit per flit slot (Router::pendFlitIn_), and
 * one pair of VC masks per credit slot (Router::pendCreditIn_; credits
 * have no ring at all). The receiver consumes every value in the cycle
 * it is due, so it touches a link only when a flit arrives on it, and
 * it never writes the link. The sender's write and the receiver's read
 * sit in different schedule phases (topology/partition.h), so relaxed
 * load/store, never read-modify-write, suffices on the receiver-held
 * words.
 */
#ifndef ROCOSIM_TOPOLOGY_CHANNEL_H_
#define ROCOSIM_TOPOLOGY_CHANNEL_H_

#include <atomic>
#include <bit>
#include <cstdint>

#include "common/config.h"
#include "common/flit.h"
#include "common/log.h"
#include "common/types.h"

namespace noc {

/** Slots of the longest ring: bit_ceil(kMaxLinkDelay + 1), one byte. */
inline constexpr int kMaxLinkSlots = 8;
static_assert(std::bit_ceil(static_cast<unsigned>(kMaxLinkDelay) + 1) ==
                  kMaxLinkSlots,
              "a flit link's occupied slots are one bit each of a byte");

/** Credit slot ids a VC mask can carry (output slots per direction). */
inline constexpr int kMaxCreditVcs = 32;

/**
 * Slot arithmetic of a link with a fixed delay. Slot counts are powers
 * of two, so picking a slot is a mask, never a division.
 */
class SlotClock
{
  public:
    explicit SlotClock(int delay)
        : delay_(static_cast<unsigned>(delay)),
          mask_(std::bit_ceil(static_cast<unsigned>(delay) + 1) - 1)
    {
        NOC_ASSERT(delay >= 0 && delay <= kMaxLinkDelay,
                   "link delay outside [0, kMaxLinkDelay]");
    }

    int delay() const { return static_cast<int>(delay_); }
    int slots() const { return static_cast<int>(mask_ + 1); }

    /** Slot of a value sent during cycle @p now (due at now + delay). */
    unsigned
    sendSlot(Cycle now) const
    {
        return static_cast<unsigned>(now + delay_) & mask_;
    }

    /** Slot due during cycle @p now. */
    unsigned
    dueSlot(Cycle now) const
    {
        return static_cast<unsigned>(now) & mask_;
    }

  private:
    // Three bits each: the type itself bounds every slot index below
    // kMaxLinkSlots, which fixed kMaxLinkSlots-slot rings rely on.
    unsigned delay_ : 3;
    unsigned mask_ : 3;
};

// --- flit links ------------------------------------------------------
//
// A flit link is a ring of clock.slots() Flit slots; @p occ is the
// receiver's occupancy byte for it (bit s set: slot s holds a flit that
// has not been consumed).

/**
 * Sender side: writes @p f into the slot due at now + delay and marks
 * it occupied. A link carries one flit per cycle and every flit is
 * consumed in the cycle it is due, so an occupied slot is a bug.
 */
inline void
putFlit(Flit *ring, const SlotClock &clock, std::atomic<std::uint8_t> &occ,
        const Flit &f, Cycle now)
{
    const unsigned s = clock.sendSlot(now);
    const std::uint8_t bits = occ.load(std::memory_order_relaxed);
    NOC_ASSERT(!(bits & (1u << s)),
               "flit slot still occupied: a link carries one flit per "
               "cycle and the receiver consumes it when due");
    ring[s] = f;
    occ.store(static_cast<std::uint8_t>(bits | (1u << s)),
              std::memory_order_relaxed);
}

/** Receiver side: the flit due during @p now, or nullptr. */
inline const Flit *
dueFlit(const Flit *ring, const SlotClock &clock,
        const std::atomic<std::uint8_t> &occ, Cycle now)
{
    const unsigned s = clock.dueSlot(now);
    if (!(occ.load(std::memory_order_relaxed) & (1u << s)))
        return nullptr;
    return &ring[s];
}

/**
 * Receiver side: consumes the flit due during @p now. Only the
 * occupancy bit changes; the slot keeps its stale copy until the next
 * send into it overwrites it.
 */
inline void
takeFlit(const SlotClock &clock, std::atomic<std::uint8_t> &occ, Cycle now)
{
    const unsigned s = clock.dueSlot(now);
    occ.store(static_cast<std::uint8_t>(
                  occ.load(std::memory_order_relaxed) & ~(1u << s)),
              std::memory_order_relaxed);
}

// --- credit links ----------------------------------------------------
//
// One arrival slot of one credit link is a pair of VC masks, bit v of
// either mask one credit for output slot v. Two masks because one VC
// can return two credits in one cycle: the drain of a discarded
// packet's tail and the next packet's traversal from the same VC. The
// second mask only ever holds bits the first one holds.

using CreditMask = std::atomic<std::uint32_t>;

/** Sender side: posts one credit for VC @p vc into slot masks @p m. */
inline void
postCredit(CreditMask (&m)[2], unsigned vc)
{
    NOC_ASSERT(vc < kMaxCreditVcs, "credit VC outside the mask");
    const std::uint32_t bit = 1u << vc;
    const std::uint32_t first = m[0].load(std::memory_order_relaxed);
    if (!(first & bit)) {
        m[0].store(first | bit, std::memory_order_relaxed);
        return;
    }
    const std::uint32_t second = m[1].load(std::memory_order_relaxed);
    NOC_ASSERT(!(second & bit),
               "a third credit for one VC in one cycle");
    m[1].store(second | bit, std::memory_order_relaxed);
}

/**
 * Receiver side: calls @p fn(vc) once per credit in slot masks @p m,
 * in VC order, and empties them.
 */
template <typename Fn>
inline void
takeCredits(CreditMask (&m)[2], Fn &&fn)
{
    std::uint32_t first = m[0].load(std::memory_order_relaxed);
    if (first == 0)
        return; // the second mask is a subset of the first
    std::uint32_t second = m[1].load(std::memory_order_relaxed);
    m[0].store(0, std::memory_order_relaxed);
    if (second != 0)
        m[1].store(0, std::memory_order_relaxed);
    for (; first; first &= first - 1)
        fn(static_cast<unsigned>(std::countr_zero(first)));
    for (; second; second &= second - 1)
        fn(static_cast<unsigned>(std::countr_zero(second)));
}

static_assert(std::atomic<std::uint8_t>::is_always_lock_free &&
                  CreditMask::is_always_lock_free,
              "receiver-held slot words must be plain lock-free stores; a "
              "locking atomic would serialise every shard on a mutex");

} // namespace noc

#endif // ROCOSIM_TOPOLOGY_CHANNEL_H_
