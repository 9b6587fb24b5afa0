/**
 * @file
 * A vector-backed FIFO replacing std::deque in component state.
 *
 * std::deque allocates its map + chunk blocks lazily, which means the
 * first push in a component's steady state hits the heap, and libstdc++
 * never returns chunks once a queue drains below a block boundary —
 * making per-cycle allocation behavior dependent on occupancy history.
 * RingQueue keeps a single power-of-two buffer that grows only when
 * occupancy exceeds every previous high-water mark, so the steady-state
 * step path performs zero allocations once warmed up.
 */
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace soff::sim
{

template <typename T> class RingQueue
{
  public:
    RingQueue() = default;

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    void push_back(const T &v)
    {
        ensureRoom();
        buf_[wrap(head_ + size_)] = v;
        ++size_;
    }

    void push_back(T &&v)
    {
        ensureRoom();
        buf_[wrap(head_ + size_)] = std::move(v);
        ++size_;
    }

    /** Appends a slot and returns it for the caller to fill in place.
     *  It holds a default value: pop_front and clear reset every slot
     *  they release. */
    T &append()
    {
        ensureRoom();
        return buf_[wrap(head_ + size_++)];
    }

    T &front()
    {
        SOFF_ASSERT(size_ > 0, "RingQueue::front on empty queue");
        return buf_[head_];
    }
    const T &front() const
    {
        SOFF_ASSERT(size_ > 0, "RingQueue::front on empty queue");
        return buf_[head_];
    }

    T &back()
    {
        SOFF_ASSERT(size_ > 0, "RingQueue::back on empty queue");
        return buf_[wrap(head_ + size_ - 1)];
    }
    const T &back() const
    {
        SOFF_ASSERT(size_ > 0, "RingQueue::back on empty queue");
        return buf_[wrap(head_ + size_ - 1)];
    }

    /** FIFO-order access: 0 == front. */
    T &operator[](size_t i) { return buf_[wrap(head_ + i)]; }
    const T &operator[](size_t i) const { return buf_[wrap(head_ + i)]; }

    void pop_front()
    {
        SOFF_ASSERT(size_ > 0, "RingQueue::pop_front on empty queue");
        buf_[head_] = T{}; // release payload resources eagerly
        head_ = wrap(head_ + 1);
        --size_;
    }

    void clear()
    {
        for (size_t i = 0; i < size_; ++i)
            buf_[wrap(head_ + i)] = T{};
        head_ = 0;
        size_ = 0;
    }

    void reserve(size_t n)
    {
        if (n > buf_.size())
            regrow(n);
    }

  private:
    size_t wrap(size_t i) const { return i & (buf_.size() - 1); }

    void ensureRoom()
    {
        if (size_ == buf_.size())
            regrow(size_ + 1);
    }

    void regrow(size_t want)
    {
        size_t cap = buf_.empty() ? 8 : buf_.size();
        while (cap < want)
            cap *= 2;
        std::vector<T> fresh(cap);
        for (size_t i = 0; i < size_; ++i)
            fresh[i] = std::move(buf_[wrap(head_ + i)]);
        buf_ = std::move(fresh);
        head_ = 0;
    }

    std::vector<T> buf_;
    size_t head_ = 0;
    size_t size_ = 0;
};

} // namespace soff::sim
