#include "predictor/line_predictor.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/logging.hh"

namespace rmt
{

LinePredictor::LinePredictor(const LinePredictorParams &params)
    : table(params.entries),
      statGroup("linepred"),
      statLookups(statGroup, "lookups", "chunk predictions made"),
      statMispredicts(statGroup, "mispredicts",
                      "line predictions overturned")
{
    if (params.entries == 0)
        fatal("line predictor needs at least one entry");
}

std::size_t
LinePredictor::index(ThreadId tid, Addr chunk_addr) const
{
    // Chunk-granular pc bits xor a thread offset.  Deliberately untagged:
    // aliasing is part of the modelled behaviour.
    // Indexed at fetch-start granularity: chunks may begin mid-frame
    // at branch targets, and those starts must not alias their frame's
    // start.  Modulo indexing: the paper's 28K-entry table is not a
    // power of two.  Deliberately untagged beyond that: cross-address
    // aliasing is part of the model.
    const std::uint64_t chunk = chunk_addr / instBytes;
    return (chunk ^ (std::uint64_t{tid} << 12)) % table.size();
}

Addr
LinePredictor::predict(ThreadId tid, Addr chunk_addr)
{
    ++statLookups;
    const Entry &e = table[index(tid, chunk_addr)];
    if (e.valid)
        return e.target;
    return chunk_addr + chunkSize * instBytes;
}

void
LinePredictor::train(ThreadId tid, Addr chunk_addr, Addr next_chunk)
{
    // Hysteresis: a single deviating outcome (e.g. the rare direction
    // of a biased branch, or wrong-path pollution) does not displace a
    // trained target; two in a row do.
    Entry &e = table[index(tid, chunk_addr)];
    if (!e.valid) {
        e.target = next_chunk;
        e.valid = true;
        e.hysteresis = false;
        return;
    }
    if (e.target == next_chunk) {
        e.hysteresis = false;
        return;
    }
    if (!e.hysteresis) {
        e.hysteresis = true;
        return;
    }
    e.target = next_chunk;
    e.hysteresis = false;
}

void
LinePredictor::saveState(Serializer &s) const
{
    // Only valid entries are stored, as in Cache: an invalid entry
    // predicts the sequential chunk, and train() overwrites its target
    // and hysteresis before they are read, so both are dead state.
    s.u32(static_cast<std::uint32_t>(table.size()));
    s.u32(static_cast<std::uint32_t>(std::count_if(
        table.begin(), table.end(), [](const Entry &e) { return e.valid; })));
    for (std::size_t i = 0; i < table.size(); ++i) {
        const Entry &e = table[i];
        if (!e.valid)
            continue;
        s.u32(static_cast<std::uint32_t>(i));
        s.u64(e.target);
        s.boolean(e.hysteresis);
    }
}

void
LinePredictor::loadState(Deserializer &d)
{
    if (d.u32() != table.size())
        throw SnapshotError("line predictor: table size mismatch");
    const std::uint32_t valid = d.u32();
    if (valid > table.size())
        throw SnapshotError("line predictor: entry count out of range");
    std::fill(table.begin(), table.end(), Entry{});
    for (std::uint32_t i = 0; i < valid; ++i) {
        const std::uint32_t idx = d.u32();
        if (idx >= table.size())
            throw SnapshotError("line predictor: entry index out of range");
        Entry &e = table[idx];
        e.valid = true;
        e.target = d.u64();
        e.hysteresis = d.boolean();
    }
}

} // namespace rmt
