/**
 * @file
 * The core's event calendar: a power-of-two timing wheel over one pooled
 * node array.
 *
 * Each wheel slot is an intrusive FIFO of node indices, so the memory
 * held is proportional to the events in flight, not to slots times each
 * slot's peak.  An event at least one wheel length ahead of the drain
 * cursor (a long memory fill behind a queued channel, say) goes to a
 * small overflow min-heap ordered by (cycle, insertion number) and is
 * merged with its cycle's slot when that cycle drains.  Every event
 * carries its insertion number, so the items due in one cycle come out
 * in exactly the order they were scheduled, overflow events included.
 *
 * The node pool and the heap only ever grow: once the pool holds the
 * peak number of events in flight, scheduling and draining perform no
 * allocation.
 */

#ifndef RMTSIM_COMMON_TIMING_WHEEL_HH
#define RMTSIM_COMMON_TIMING_WHEEL_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace rmt
{

template <typename T>
class TimingWheel
{
  public:
    /** @p slots is rounded up to a power of two. */
    explicit TimingWheel(std::size_t slots = 512)
    {
        std::size_t n = 1;
        while (n < slots)
            n *= 2;
        heads.assign(n, none);
        tails.assign(n, none);
        mask = n - 1;
    }

    /** Items scheduled and not yet popped. */
    std::size_t size() const { return live; }
    bool empty() const { return live == 0; }
    /** Items currently parked in the overflow heap. */
    std::size_t overflowSize() const { return overflow.size(); }

    /** Schedule @p item for cycle @p when, which must not precede the
     *  earliest cycle still to drain. */
    void
    schedule(Cycle when, T item)
    {
        if (when < cursor)
            panic("timing wheel: event for cycle %llu scheduled behind "
                  "the drain cursor %llu",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(cursor));
        const std::uint32_t n = allocNode(when, std::move(item));
        if (when - cursor >= heads.size()) {
            overflow.push_back(n);
            std::push_heap(overflow.begin(), overflow.end(), laterFirst());
        } else {
            const std::size_t s = when & mask;
            if (tails[s] == none)
                heads[s] = n;
            else
                nodes[tails[s]].next = n;
            tails[s] = n;
            ++inWheel;
        }
        ++live;
    }

    /**
     * Remove the next item due at or before @p now into @p out: cycles
     * in order, and within a cycle in scheduling order.  @return false
     * once nothing is due; the cursor then rests at @p now + 1.
     */
    bool
    pop(Cycle now, T &out)
    {
        while (cursor <= now) {
            const std::size_t s = cursor & mask;
            const bool far_due =
                !overflow.empty() && nodes[overflow.front()].when == cursor;
            std::uint32_t n = heads[s];
            if (n != none &&
                (!far_due || nodes[n].seq < nodes[overflow.front()].seq)) {
                heads[s] = nodes[n].next;
                if (heads[s] == none)
                    tails[s] = none;
                --inWheel;
            } else if (far_due) {
                n = overflow.front();
                std::pop_heap(overflow.begin(), overflow.end(),
                              laterFirst());
                overflow.pop_back();
            } else {
                // Nothing left at this cycle.  With the wheel empty,
                // jump straight to the next overflow item (or past now).
                if (inWheel == 0) {
                    cursor = overflow.empty()
                                 ? now + 1
                                 : std::min(now + 1,
                                            nodes[overflow.front()].when);
                } else {
                    ++cursor;
                }
                continue;
            }
            out = std::move(nodes[n].item);
            nodes[n].item = T{};
            nodes[n].next = freeHead;
            freeHead = n;
            --live;
            return true;
        }
        return false;
    }

  private:
    static constexpr std::uint32_t none = ~std::uint32_t{0};

    struct Node
    {
        T item{};
        Cycle when = 0;
        std::uint64_t seq = 0;      ///< insertion number (tie order)
        std::uint32_t next = none;  ///< slot FIFO / free list link
    };

    /** Heap order for a min-heap on (when, seq). */
    auto
    laterFirst() const
    {
        return [this](std::uint32_t a, std::uint32_t b) {
            const Node &x = nodes[a];
            const Node &y = nodes[b];
            return x.when != y.when ? x.when > y.when : x.seq > y.seq;
        };
    }

    std::uint32_t
    allocNode(Cycle when, T item)
    {
        std::uint32_t n = freeHead;
        if (n == none) {
            n = static_cast<std::uint32_t>(nodes.size());
            nodes.emplace_back();
        } else {
            freeHead = nodes[n].next;
        }
        Node &node = nodes[n];
        node.item = std::move(item);
        node.when = when;
        node.seq = nextSeq++;
        node.next = none;
        return n;
    }

    std::vector<Node> nodes;            ///< the pool
    std::uint32_t freeHead = none;
    std::vector<std::uint32_t> heads;   ///< per-slot FIFO head
    std::vector<std::uint32_t> tails;   ///< per-slot FIFO tail
    std::vector<std::uint32_t> overflow;    ///< min-heap on (when, seq)
    std::size_t mask = 0;
    Cycle cursor = 0;                   ///< earliest cycle not drained
    std::uint64_t nextSeq = 0;
    std::size_t live = 0;
    std::size_t inWheel = 0;
};

} // namespace rmt

#endif // RMTSIM_COMMON_TIMING_WHEEL_HH
