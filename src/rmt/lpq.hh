/**
 * @file
 * Line Prediction Queue (paper Section 4.4).
 *
 * The SRT adaptation of the branch outcome queue to a line-predictor
 * driven front end: leading-thread retirement aggregates contiguous
 * instructions into fetch chunks; the trailing thread's fetch is driven
 * by this precise chunk stream, eliminating all trailing misfetches and
 * mispredictions.
 *
 * Reads follow the paper's two-head protocol: the *active head* advances
 * when the address driver accepts (acks) a prediction; the *recovery
 * head* advances only when the chunk's instructions were actually
 * delivered from the instruction cache.  On an I-cache miss the IBOX
 * rolls the active head back to the recovery head and the sequence is
 * reissued.
 *
 * Each chunk entry also carries the leading instructions' QBOX-half bits
 * for preferential space redundancy (Section 4.5).
 */

#ifndef RMTSIM_RMT_LPQ_HH
#define RMTSIM_RMT_LPQ_HH

#include <array>
#include <cstdint>

#include "common/ring.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace rmt
{

/** One trailing-thread fetch chunk: up to 8 contiguous instructions. */
struct LpqChunk
{
    Addr start = 0;
    std::uint8_t count = 0;
    std::array<std::uint8_t, chunkSize> leadHalf{};  ///< PSR bits
    Cycle availableAt = 0;
};

class Lpq
{
  public:
    Lpq(unsigned capacity, std::string name, bool ecc = false);

    // ------------------------------------------------- write (QBOX) side
    bool full() const { return chunks.size() >= capacity; }

    /** Append a finished chunk (leading retire logic). */
    void push(const LpqChunk &chunk);

    // -------------------------------------------------- read (IBOX) side
    /** Is there an unread (active-head) chunk visible at @p now? */
    bool available(Cycle now) const;

    /** Chunk at the active head (must be available()). */
    const LpqChunk &activeChunk() const;

    /** Address driver accepted the prediction: advance the active head. */
    void ack();

    /** Instructions delivered from the I-cache: advance recovery head. */
    void commitFetch();

    /** I-cache miss (or similar): roll active head back to recovery. */
    void rollback();

    /** Drop all chunks (fault-recovery flush). */
    void
    clear()
    {
        chunks.clear();
        activeOffset = 0;
    }

    std::size_t size() const { return chunks.size(); }
    std::size_t unread() const { return chunks.size() - activeOffset; }
    std::size_t entries() const { return capacity; }

    /**
     * Fault injection: flip bit @p bit of the next unfetched chunk's
     * start address, steering the trailing front end to the wrong line.
     * ECC-protected queues correct the strike in place.  @return false
     * when no unread chunk is resident (injector retries next cycle).
     */
    bool injectAddrBitFlip(unsigned bit);

    std::uint64_t eccCorrections() const { return statEccCorrected.value(); }

    StatGroup &stats() { return statGroup; }

  private:
    unsigned capacity;
    bool eccProtected;
    Ring<LpqChunk> chunks;          ///< front = recovery head
    std::size_t activeOffset = 0;   ///< active head - recovery head

    StatGroup statGroup;
    Counter statPushes;
    Counter statAcks;
    Counter statRollbacks;
    Counter statFullStalls;
    Counter statEccCorrected;
    Counter statCorruptions;
};

} // namespace rmt

#endif // RMTSIM_RMT_LPQ_HH
