/**
 * @file
 * A power-of-two ring buffer: the fixed-capacity FIFO behind the core's
 * per-thread queues (ROB, rate-matching buffer, LQ, SQ) and the RMT
 * queues (LPQ, BOQ, functional-unit trace).
 *
 * Capacity is set once from a machine parameter, so steady-state
 * simulation never allocates.  A push into a full ring doubles the
 * buffer instead of failing, so no caller's correctness depends on the
 * capacity matching the structure's architectural bound.  Removal
 * resets the vacated slot to T{}, which releases refcounted handles
 * (DynInstPtr) as soon as they leave the queue.
 */

#ifndef RMTSIM_COMMON_RING_HH
#define RMTSIM_COMMON_RING_HH

#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

namespace rmt
{

template <typename T>
class Ring
{
    template <typename R, typename V>
    class Iter
    {
      public:
        using iterator_category = std::bidirectional_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = V *;
        using reference = V &;

        Iter() = default;
        Iter(R *ring, std::size_t pos) : ring(ring), pos(pos) {}

        reference operator*() const { return (*ring)[pos]; }
        pointer operator->() const { return &(*ring)[pos]; }
        Iter &operator++() { ++pos; return *this; }
        Iter operator++(int) { Iter old = *this; ++pos; return old; }
        Iter &operator--() { --pos; return *this; }
        Iter operator--(int) { Iter old = *this; --pos; return old; }
        bool operator==(const Iter &o) const { return pos == o.pos; }

      private:
        R *ring = nullptr;
        std::size_t pos = 0;
    };

  public:
    using iterator = Iter<Ring, T>;
    using const_iterator = Iter<const Ring, const T>;
    using reverse_iterator = std::reverse_iterator<iterator>;

    explicit Ring(std::size_t capacity = 1) { reserve(capacity); }

    /** Grow the buffer to hold at least @p n entries (never shrinks). */
    void
    reserve(std::size_t n)
    {
        std::size_t cap = 1;
        while (cap < n)
            cap *= 2;
        if (cap > buf.size())
            regrow(cap);
    }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    std::size_t capacity() const { return buf.size(); }

    T &operator[](std::size_t i) { return buf[(head + i) & mask]; }
    const T &operator[](std::size_t i) const
    {
        return buf[(head + i) & mask];
    }
    T &front() { return buf[head]; }
    const T &front() const { return buf[head]; }
    T &back() { return (*this)[count - 1]; }
    const T &back() const { return (*this)[count - 1]; }

    void
    push_back(T value)
    {
        if (count == buf.size())
            regrow(2 * buf.size());
        buf[(head + count) & mask] = std::move(value);
        ++count;
    }

    void
    pop_front()
    {
        buf[head] = T{};
        head = (head + 1) & mask;
        --count;
    }

    void
    pop_back()
    {
        --count;
        buf[(head + count) & mask] = T{};
    }

    void
    clear()
    {
        while (count)
            pop_back();
        head = 0;
    }

    /** Remove every entry matching @p pred, keeping the order of the
     *  rest; in place, no allocation.  @return entries removed. */
    template <typename Pred>
    std::size_t
    erase_if(Pred pred)
    {
        std::size_t out = 0;
        for (std::size_t in = 0; in < count; ++in) {
            T &slot = (*this)[in];
            if (pred(std::as_const(slot)))
                continue;
            if (out != in)
                (*this)[out] = std::move(slot);
            ++out;
        }
        const std::size_t removed = count - out;
        while (count > out)
            pop_back();
        return removed;
    }

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, count}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, count}; }
    reverse_iterator rbegin() { return reverse_iterator(end()); }
    reverse_iterator rend() { return reverse_iterator(begin()); }

  private:
    void
    regrow(std::size_t cap)
    {
        std::vector<T> next(cap);
        for (std::size_t i = 0; i < count; ++i)
            next[i] = std::move((*this)[i]);
        buf.swap(next);
        head = 0;
        mask = cap - 1;
    }

    std::vector<T> buf;
    std::size_t head = 0;
    std::size_t count = 0;
    std::size_t mask = 0;
};

} // namespace rmt

#endif // RMTSIM_COMMON_RING_HH
