/**
 * @file
 * Store comparator (paper Section 4.2).
 *
 * Sits beside the store queue: when a trailing-thread store and its data
 * enter the (trailing) store queue, the comparator matches it against
 * the corresponding leading-thread store — same per-pair store index,
 * since both threads commit the identical store sequence — and compares
 * address and data.  On a match the leading store-queue entry is marked
 * verified and may retire to the data cache; on a mismatch a fault is
 * signalled.
 */

#ifndef RMTSIM_RMT_STORE_COMPARATOR_HH
#define RMTSIM_RMT_STORE_COMPARATOR_HH

#include <cstdint>

#include "common/open_table.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace rmt
{

class StoreComparator
{
  public:
    explicit StoreComparator(std::string name);

    /** A trailing store's address+data entered the trailing SQ.
     *  Trailing stores execute out of order; arrival order is
     *  irrelevant because verification matches on the store index. */
    void pushTrailing(std::uint64_t store_idx, Addr addr,
                      std::uint64_t data, unsigned size,
                      Cycle available_at);

    /**
     * Attempt to verify leading store @p store_idx.
     *
     * @param mismatch out: true if the comparison failed (fault!)
     * @return true if the matching trailing store was present and the
     *         comparison was performed (entry consumed)
     */
    bool tryVerify(std::uint64_t store_idx, Addr addr, std::uint64_t data,
                   unsigned size, Cycle now, bool &mismatch);

    std::size_t pendingTrailing() const { return trailing.size(); }

    /** Drop all pending records (fault-recovery flush). */
    void clear() { trailing.clear(); }
    std::uint64_t comparisons() const { return statComparisons.value(); }
    std::uint64_t mismatches() const { return statMismatches.value(); }

    StatGroup &stats() { return statGroup; }

  private:
    struct Record
    {
        Addr addr = 0;
        std::uint64_t data = 0;
        unsigned size = 0;
        Cycle availableAt = 0;
    };

    /** By store index; sized for a 64-entry store queue's worth of
     *  pending records, and grows beyond that if needed. */
    OpenTable<Record> trailing;

    StatGroup statGroup;
    Counter statComparisons;
    Counter statMismatches;
};

} // namespace rmt

#endif // RMTSIM_RMT_STORE_COMPARATOR_HH
