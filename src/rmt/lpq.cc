#include "rmt/lpq.hh"

#include "common/bits.hh"
#include "common/logging.hh"

namespace rmt
{

Lpq::Lpq(unsigned capacity, std::string name, bool ecc)
    : capacity(capacity),
      eccProtected(ecc),
      chunks(capacity),
      statGroup(std::move(name)),
      statPushes(statGroup, "pushes", "chunks forwarded from retirement"),
      statAcks(statGroup, "acks", "chunks accepted by the address driver"),
      statRollbacks(statGroup, "rollbacks",
                    "active-head rollbacks (I-cache misses)"),
      statFullStalls(statGroup, "full_stalls",
                     "leading retire stalls on full LPQ"),
      statEccCorrected(statGroup, "ecc_corrected",
                       "injected strikes corrected by ECC"),
      statCorruptions(statGroup, "corruptions",
                      "injected strikes that corrupted a chunk address")
{
}

void
Lpq::push(const LpqChunk &chunk)
{
    if (full())
        panic("LPQ overflow: caller must check full() first");
    if (chunk.count == 0 || chunk.count > chunkSize)
        panic("LPQ chunk with bad count %u", chunk.count);
    chunks.push_back(chunk);
    ++statPushes;
}

bool
Lpq::available(Cycle now) const
{
    return activeOffset < chunks.size() &&
           now >= chunks[activeOffset].availableAt;
}

const LpqChunk &
Lpq::activeChunk() const
{
    if (activeOffset >= chunks.size())
        panic("LPQ activeChunk with no unread chunk");
    return chunks[activeOffset];
}

void
Lpq::ack()
{
    if (activeOffset >= chunks.size())
        panic("LPQ ack with no unread chunk");
    ++activeOffset;
    ++statAcks;
}

void
Lpq::commitFetch()
{
    if (activeOffset == 0 || chunks.empty())
        panic("LPQ commitFetch without outstanding ack");
    chunks.pop_front();
    --activeOffset;
}

void
Lpq::rollback()
{
    if (activeOffset != 0)
        ++statRollbacks;
    activeOffset = 0;
}

bool
Lpq::injectAddrBitFlip(unsigned bit)
{
    if (activeOffset >= chunks.size())
        return false;
    if (eccProtected) {
        ++statEccCorrected;
        return true;
    }
    chunks[activeOffset].start = flipBit(chunks[activeOffset].start, bit);
    ++statCorruptions;
    return true;
}

} // namespace rmt
