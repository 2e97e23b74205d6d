/**
 * @file
 * Load Value Queue (paper Sections 2.1 and 4.1).
 *
 * Leading-thread loads write (tag, address, value) here as they retire;
 * trailing-thread loads bypass the data cache and load queue entirely
 * and satisfy themselves from the LVQ with an associative lookup on the
 * load correlation tag (supporting out-of-order trailing issue).  An
 * address mismatch is a detected fault.  Because LVQ data is not read
 * redundantly, entries are ECC-protected; the fault injector can flip
 * LVQ bits to exercise that protection.
 */

#ifndef RMTSIM_RMT_LVQ_HH
#define RMTSIM_RMT_LVQ_HH

#include <cstdint>

#include "common/open_table.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace rmt
{

class Lvq
{
  public:
    Lvq(unsigned capacity, bool ecc_protected, std::string name);

    enum class Lookup : std::uint8_t
    {
        NotPresent,     ///< leading load not yet retired/forwarded
        Hit,            ///< value delivered, entry deallocated
        AddrMismatch,   ///< fault detected; entry deallocated
    };

    bool full() const { return entries.size() >= capacity; }
    std::size_t size() const { return entries.size(); }

    /** Drop all entries (fault-recovery flush). */
    void clear() { entries.clear(); }

    /**
     * Insert at leading-load retirement.
     * @param available_at cycle the entry becomes visible to the
     *        trailing thread (retire cycle + forwarding latency)
     * @return false if the LVQ is full (leading retire must stall)
     */
    bool insert(std::uint64_t tag, Addr addr, std::uint64_t data,
                Cycle available_at);

    /** Trailing-load lookup; on Hit, @p data receives the value. */
    Lookup lookup(std::uint64_t tag, Addr expected_addr, Cycle now,
                  std::uint64_t &data);

    /**
     * Transient fault: flip one bit of one resident entry's data.  The
     * victim is the rng.range(size())-th resident entry in tag order.
     * With ECC the flip is corrected (counted); without it the
     * corruption propagates to the trailing thread.
     * @return true if an entry existed to strike
     */
    bool injectDataBitFlip(Random &rng);

    std::uint64_t eccCorrections() const
    {
        return statEccCorrected.value();
    }

    StatGroup &stats() { return statGroup; }

  private:
    struct Entry
    {
        Addr addr;
        std::uint64_t data;
        Cycle availableAt;
    };

    unsigned capacity;
    bool eccProtected;
    OpenTable<Entry> entries;       ///< by load tag

    StatGroup statGroup;
    Counter statInserts;
    Counter statHits;
    Counter statAddrMismatches;
    Counter statEccCorrected;
    Counter statCorruptions;
};

} // namespace rmt

#endif // RMTSIM_RMT_LVQ_HH
