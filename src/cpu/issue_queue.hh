/**
 * @file
 * The QBOX instruction queue's select state, maintained by wakeup
 * instead of a per-cycle scan (paper Section 3.3 for the queue itself).
 *
 * An entry is *ready* when it may be selected this cycle: its QBOX
 * front latency has elapsed, both source operands are available and,
 * for a load with a store-sets wait target, that store has its address
 * and data.  Each unmet condition is one pending bit, cleared by the
 * event that satisfies it:
 *   - the issuable cycle, by a dispatch-order FIFO drained at select
 *     (the front latency is the same for every entry);
 *   - a source operand, by wakeReg() on the producer's physical
 *     register, linked through per-register consumer lists;
 *   - the store dependence, by wakeStore() when the store's data
 *     arrives in the store queue.
 * Entries whose last bit clears join an age-ordered (dispatch-order)
 * ready list, so select visits exactly the ready entries, oldest first.
 *
 * Entries live in an array sized to the queue, with a free list; all
 * links are slot indices, so select and wakeup never allocate.
 */

#ifndef RMTSIM_CPU_ISSUE_QUEUE_HH
#define RMTSIM_CPU_ISSUE_QUEUE_HH

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/ring.hh"
#include "cpu/dyn_inst.hh"

namespace rmt
{

class IssueQueue
{
  public:
    static constexpr std::uint32_t none = ~std::uint32_t{0};

    IssueQueue(unsigned entries, unsigned phys_regs);

    /** Live entries. */
    std::size_t size() const { return live; }
    bool empty() const { return live == 0; }

    /**
     * Insert @p inst (dispatch order).  It stays pending until its
     * issuableCycle, until @p wait1 / @p wait2 (invalidPhysReg = already
     * available) are woken, and until @p wait_store (nullptr = none)
     * is woken.  Records the slot in inst->iqSlot.
     */
    void insert(const DynInstPtr &inst, PhysRegIndex wait1,
                PhysRegIndex wait2, const DynInst *wait_store);

    /** Remove the entry in @p slot (issued or squashed). */
    void remove(std::uint32_t slot);

    /** Clear the front-latency bit of every entry issuable at @p now. */
    void wakeIssuable(Cycle now);
    /** Physical register @p p became available. */
    void wakeReg(PhysRegIndex p);
    /** Store @p st now has its address and data in the store queue. */
    void wakeStore(const DynInst *st);

    /** Oldest ready entry, or none. */
    std::uint32_t oldestReady() const { return readyHead; }
    /** Next-younger ready entry after @p slot, or none. */
    std::uint32_t nextReady(std::uint32_t slot) const
    {
        return slots[slot].readyNext;
    }
    const DynInstPtr &inst(std::uint32_t slot) const
    {
        return slots[slot].inst;
    }

  private:
    enum : std::uint8_t
    {
        WaitSrc1 = 1,       ///< operand node 0
        WaitSrc2 = 2,       ///< operand node 1
        WaitStore = 4,
        WaitIssuable = 8,
    };

    struct Entry
    {
        DynInstPtr inst;
        std::uint64_t age = 0;          ///< dispatch order, unique
        std::uint8_t pending = 0;       ///< Wait* bits
        std::uint32_t readyPrev = none;
        std::uint32_t readyNext = none;
        std::uint32_t memPrev = none;   ///< store-wait list links
        std::uint32_t memNext = none;
        const DynInst *waitStore = nullptr;
        /** Operand nodes (ids slot*2 + k) in per-register lists. */
        std::array<PhysRegIndex, 2> waitReg{};
        std::array<std::uint32_t, 2> depPrev{none, none};
        std::array<std::uint32_t, 2> depNext{none, none};
    };

    void clearPending(std::uint32_t slot, std::uint8_t bit);
    void linkReady(std::uint32_t slot);
    void unlinkReady(std::uint32_t slot);
    void unlinkOperand(std::uint32_t node);
    void unlinkStoreWait(std::uint32_t slot);

    std::vector<Entry> slots;
    std::vector<std::uint32_t> freeSlots;
    std::vector<std::uint32_t> regHead;     ///< per phys reg: node list
    std::uint32_t memHead = none;           ///< loads waiting on stores
    std::uint32_t readyHead = none;         ///< oldest ready
    std::uint32_t readyTail = none;         ///< youngest ready
    /** Entries still inside the front latency, dispatch order. */
    Ring<std::pair<std::uint32_t, std::uint64_t>> frontPipe;
    std::uint64_t nextAge = 1;
    std::size_t live = 0;
};

} // namespace rmt

#endif // RMTSIM_CPU_ISSUE_QUEUE_HH
