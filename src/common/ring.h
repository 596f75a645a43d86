/**
 * @file
 * Flat ring buffers for the cycle-loop hot path.
 *
 * The per-cycle data structures used to be std::deque instances — one
 * heap block chain per VC buffer, per channel and per source queue,
 * with every push a potential allocation. Both rings here keep their
 * elements in one contiguous block so a router step is tight loops
 * over flat state:
 *
 *  - RingView<T>: fixed-capacity ring over caller-owned storage.
 *    Routers carve all their VC flit slots and packet-control records
 *    out of a single arena (see router/vc_buffer.h), so "the buffers
 *    of router r" is one cache-friendly run of memory and pushing a
 *    flit never allocates.
 *  - GrowRing<T>: power-of-two ring that owns its storage and doubles
 *    on overflow. Used where capacity is unbounded in principle but
 *    tiny and stable in practice (NIC source queues): after warm-up it
 *    never allocates again. Links need neither: they are fixed rings
 *    of arrival slots (topology/channel.h).
 */
#ifndef ROCOSIM_COMMON_RING_H_
#define ROCOSIM_COMMON_RING_H_

#include <cstddef>
#include <vector>

#include "common/log.h"

namespace noc {

/**
 * Fixed-capacity FIFO over caller-owned storage.
 *
 * Never allocates; overflow is a caller bug (the credit protocol and
 * the packet-control bound depth+1 guarantee capacity, see callers).
 * Wrap-around uses a compare instead of a mask so capacities need not
 * be powers of two (buffer depths are 4 and 5 at paper defaults).
 */
template <typename T>
class RingView
{
  public:
    RingView() = default;
    RingView(T *base, int capacity) { bind(base, capacity); }

    /** Points the ring at @p capacity slots starting at @p base. */
    void
    bind(T *base, int capacity)
    {
        NOC_ASSERT(base != nullptr && capacity >= 1,
                   "ring storage must be non-empty");
        base_ = base;
        cap_ = capacity;
        head_ = 0;
        size_ = 0;
    }

    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == cap_; }
    int size() const { return size_; }
    int capacity() const { return cap_; }

    void
    push_back(const T &v)
    {
        NOC_ASSERT(!full(), "ring overflow");
        base_[wrap(head_ + size_)] = v;
        ++size_;
    }

    const T &
    front() const
    {
        NOC_ASSERT(!empty(), "front() on empty ring");
        return base_[head_];
    }

    T &
    front()
    {
        NOC_ASSERT(!empty(), "front() on empty ring");
        return base_[head_];
    }

    T &
    back()
    {
        NOC_ASSERT(!empty(), "back() on empty ring");
        return base_[wrap(head_ + size_ - 1)];
    }

    const T &
    back() const
    {
        return const_cast<RingView *>(this)->back();
    }

    void
    pop_front()
    {
        NOC_ASSERT(!empty(), "pop_front() on empty ring");
        head_ = wrap(head_ + 1);
        --size_;
    }

  private:
    int
    wrap(int i) const
    {
        return i >= cap_ ? i - cap_ : i;
    }

    T *base_ = nullptr;
    int cap_ = 0;
    int head_ = 0;
    int size_ = 0;
};

/**
 * Growable power-of-two FIFO that owns its storage.
 *
 * Doubling keeps amortized pushes O(1); steady-state traffic never
 * grows the ring, so the cycle loop performs no heap traffic. Elements
 * must be copyable (they are PODs here: flits).
 */
template <typename T>
class GrowRing
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    void
    push_back(const T &v)
    {
        if (size_ == buf_.size())
            relocate(buf_.empty() ? 4 : buf_.size() * 2);
        buf_[(head_ + size_) & mask_] = v;
        ++size_;
    }

    const T &
    front() const
    {
        NOC_ASSERT(!empty(), "front() on empty ring");
        return buf_[head_];
    }

    /** Removes and returns the oldest element. */
    T
    pop_front()
    {
        NOC_ASSERT(!empty(), "pop_front() on empty ring");
        T v = buf_[head_];
        head_ = (head_ + 1) & mask_;
        --size_;
        return v;
    }

  private:
    void
    relocate(std::size_t cap)
    {
        std::vector<T> next(cap);
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = buf_[(head_ + i) & mask_];
        buf_ = std::move(next);
        head_ = 0;
        mask_ = buf_.size() - 1;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
};

} // namespace noc

#endif // ROCOSIM_COMMON_RING_H_
