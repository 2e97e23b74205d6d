/**
 * @file
 * The shared memory system below the L1 caches: unified L2, main
 * memory, and the miss-status handling that ties them together.
 *
 * Cores call access() to service an L1 miss; the MemSystem consults the
 * L2 tags and main memory, merges requests to in-flight blocks (MSHR
 * behaviour), and returns the cycle at which the block is usable.
 *
 * Lockstepped configurations route every off-core signal through a
 * central checker; that is modelled here as @c checker_penalty cycles
 * added to each L1-miss service (paper Section 6.3: Lock0 = 0,
 * Lock8 = 8).
 *
 * Address-space note: each logical thread owns a private flat data
 * image, so cores present "physical" addresses formed as
 * (logical_id << 40) | virtual_addr to keep distinct programs from
 * aliasing in the shared L2; redundant copies of the same program share
 * one physical space by construction, exactly as the sphere of
 * replication requires.
 */

#ifndef RMTSIM_MEM_MEM_SYSTEM_HH
#define RMTSIM_MEM_MEM_SYSTEM_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/open_table.hh"
#include "mem/cache.hh"
#include "mem/main_memory.hh"

namespace rmt
{

/** Build a per-logical-thread physical address. */
constexpr Addr
physAddr(LogicalId logical, Addr vaddr)
{
    return (Addr{logical} << 40) | vaddr;
}

struct MemSystemParams
{
    CacheParams l2{"l2", 3 * 1024 * 1024, 8, 64};
    MainMemoryParams mem{};
    unsigned l2_latency = 12;       ///< L1-miss/L2-hit service latency
    unsigned checker_penalty = 0;   ///< lockstep checker cycles per miss
};

class MemSystem
{
  public:
    explicit MemSystem(const MemSystemParams &params);

    /**
     * Service an access from an L1 cache.
     *
     * @param l1   the requesting L1 (tags updated, fills installed)
     * @param addr physical address
     * @param now  current cycle
     * @param hit  out: true iff the access hit in @p l1
     * @return cycle at which the data is usable (== @p now on an L1 hit)
     */
    Cycle access(Cache &l1, Addr addr, Cycle now, bool &hit);

    /** As access(), discarding the hit flag. */
    Cycle
    access(Cache &l1, Addr addr, Cycle now)
    {
        bool hit = false;
        return access(l1, addr, now, hit);
    }

    /** Accept a drained merge-buffer block into L2 (timing-only). */
    void writeback(Addr addr);

    Cache &l2() { return _l2; }
    const Cache &l2() const { return _l2; }
    MainMemory &mainMemory() { return _mem; }
    const MainMemory &mainMemory() const { return _mem; }
    unsigned checkerPenalty() const { return _checkerPenalty; }

    /**
     * In-flight (or completed-but-uninstalled: fills are lazy) block
     * fills for one L1, sorted by block address so snapshot images are
     * independent of hash-table iteration order.
     */
    std::vector<std::pair<Addr, Cycle>> exportPending(const Cache *l1) const;

    /** Replace the pending-fill set for one L1 (checkpoint restore). */
    void importPending(const Cache *l1,
                       const std::vector<std::pair<Addr, Cycle>> &fills);

  private:
    /** Service a miss below one L1: L2 then memory. */
    Cycle serviceMiss(Addr block, Cycle now);

    CacheParams l2Params;
    Cache _l2;
    MainMemory _mem;
    unsigned l2Latency;
    unsigned _checkerPenalty;

    /** In-flight block fills of one L1 cache (MSHR merge): block
     *  address -> ready cycle.  An entry lives until the first access
     *  at or after its ready cycle installs the block. */
    using Fills = OpenTable<Cycle>;

    /** @p l1's fill table, created on its first miss. */
    Fills &fillsOf(const Cache *l1);
    const Fills *findFills(const Cache *l1) const;

    /** One table per L1 (a handful per chip: linear lookup). */
    std::vector<std::pair<const Cache *, Fills>> pending;
};

} // namespace rmt

#endif // RMTSIM_MEM_MEM_SYSTEM_HH
