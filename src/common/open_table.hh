/**
 * @file
 * An open-addressed hash table keyed by 64-bit integers: the
 * associative structures on the simulator's hot path (LVQ entries by
 * load tag, store-comparator records by store index, MSHR fills by
 * block address).
 *
 * Linear probing over a power-of-two slot array with Fibonacci hashing
 * and backward-shift deletion (no tombstones).  The table is sized at
 * construction for its expected population and doubles when the load
 * factor would pass one half, so steady-state lookups, inserts and
 * erases never allocate and correctness never depends on the initial
 * size.  Iteration order is a function of the keys and the capacity
 * only; callers that expose an order (snapshots, fault victims) sort.
 */

#ifndef RMTSIM_COMMON_OPEN_TABLE_HH
#define RMTSIM_COMMON_OPEN_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rmt
{

template <typename V>
class OpenTable
{
  public:
    /** A table that holds @p expected entries without growing. */
    explicit OpenTable(std::size_t expected = 8)
    {
        resize(slotsFor(expected));
    }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    std::size_t capacity() const { return slots.size(); }

    /** Home slot of @p key (the first slot its probe visits). */
    std::size_t
    homeOf(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> shift);
    }

    V *
    find(std::uint64_t key)
    {
        const std::size_t i = locate(key);
        return i == npos ? nullptr : &slots[i].value;
    }

    /** Insert @p key -> @p value.  @return false (table unchanged) if
     *  @p key is already present. */
    bool
    insert(std::uint64_t key, V value)
    {
        if (locate(key) != npos)
            return false;
        if (2 * (count + 1) > slots.size())
            resize(2 * slots.size());
        place(key, std::move(value));
        ++count;
        return true;
    }

    /** @return false if @p key was not present. */
    bool
    erase(std::uint64_t key)
    {
        std::size_t hole = locate(key);
        if (hole == npos)
            return false;
        // Backward-shift deletion: pull every displaced successor in
        // the probe run into the hole unless that would move it before
        // its home slot.
        const std::size_t mask = slots.size() - 1;
        for (std::size_t j = (hole + 1) & mask; slots[j].used;
             j = (j + 1) & mask) {
            const std::size_t home = homeOf(slots[j].key);
            // Distance from home to j vs from home to the hole: move
            // only if the hole lies on j's probe path.
            if (((j - home) & mask) >= ((j - hole) & mask)) {
                slots[hole].key = slots[j].key;
                slots[hole].value = std::move(slots[j].value);
                hole = j;
            }
        }
        slots[hole].used = false;
        slots[hole].value = V{};
        --count;
        return true;
    }

    void
    clear()
    {
        for (Slot &s : slots) {
            s.used = false;
            s.value = V{};
        }
        count = 0;
    }

    /** Visit every (key, value) in slot order. */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        for (const Slot &s : slots) {
            if (s.used)
                fn(s.key, s.value);
        }
    }

  private:
    static constexpr std::size_t npos = ~std::size_t{0};

    struct Slot
    {
        std::uint64_t key = 0;
        V value{};
        bool used = false;
    };

    static std::size_t
    slotsFor(std::size_t expected)
    {
        std::size_t n = 2;
        while (n < 2 * expected)
            n *= 2;
        return n;
    }

    std::size_t
    locate(std::uint64_t key) const
    {
        const std::size_t mask = slots.size() - 1;
        for (std::size_t i = homeOf(key); slots[i].used;
             i = (i + 1) & mask) {
            if (slots[i].key == key)
                return i;
        }
        return npos;
    }

    void
    place(std::uint64_t key, V value)
    {
        const std::size_t mask = slots.size() - 1;
        std::size_t i = homeOf(key);
        while (slots[i].used)
            i = (i + 1) & mask;
        slots[i].key = key;
        slots[i].value = std::move(value);
        slots[i].used = true;
    }

    void
    resize(std::size_t n)
    {
        std::vector<Slot> old(n);
        old.swap(slots);
        shift = 64;
        for (std::size_t m = n; m > 1; m /= 2)
            --shift;
        for (Slot &s : old) {
            if (s.used)
                place(s.key, std::move(s.value));
        }
    }

    std::vector<Slot> slots;
    std::size_t count = 0;
    unsigned shift = 63;
};

} // namespace rmt

#endif // RMTSIM_COMMON_OPEN_TABLE_HH
