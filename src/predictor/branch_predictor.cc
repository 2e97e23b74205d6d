#include "predictor/branch_predictor.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/logging.hh"

namespace rmt
{

namespace
{

/** Counter values at construction (weakly not-taken; the chooser
 *  weakly prefers gshare). */
constexpr std::uint8_t directionReset = 1;
constexpr std::uint8_t chooserReset = 2;

/** A counter table as its size, then (index, value) for each counter
 *  off @p reset: most counters are never trained. */
void
saveCounters(Serializer &s, const std::vector<std::uint8_t> &table,
             std::uint8_t reset)
{
    s.u32(static_cast<std::uint32_t>(table.size()));
    s.u32(static_cast<std::uint32_t>(
        table.size() - std::count(table.begin(), table.end(), reset)));
    for (std::size_t i = 0; i < table.size(); ++i) {
        if (table[i] == reset)
            continue;
        s.u32(static_cast<std::uint32_t>(i));
        s.u8(table[i]);
    }
}

void
loadCounters(Deserializer &d, std::vector<std::uint8_t> &table,
             std::uint8_t reset)
{
    if (d.u32() != table.size())
        throw SnapshotError("branch predictor: table size mismatch");
    const std::uint32_t trained = d.u32();
    if (trained > table.size())
        throw SnapshotError("branch predictor: counter count out of range");
    std::fill(table.begin(), table.end(), reset);
    for (std::uint32_t i = 0; i < trained; ++i) {
        const std::uint32_t idx = d.u32();
        const std::uint8_t value = d.u8();
        if (idx >= table.size())
            throw SnapshotError(
                "branch predictor: counter index out of range");
        if (value > 3)      // 2-bit counters
            throw SnapshotError(
                "branch predictor: counter value out of range");
        table[idx] = value;
    }
}

} // namespace

BranchPredictor::BranchPredictor(const BranchPredictorParams &params)
    : gshare(params.gshare_entries, directionReset),
      bimodal(params.bimodal_entries, directionReset),
      chooser(params.chooser_entries, chooserReset),
      histories(params.max_threads, 0),
      historyMask((std::uint64_t{1} << params.history_bits) - 1),
      statGroup("bpred"),
      statLookups(statGroup, "lookups", "conditional branches predicted"),
      statMispredicts(statGroup, "mispredicts",
                      "resolved direction mispredictions")
{
    if (!isPowerOf2(params.gshare_entries) ||
        !isPowerOf2(params.bimodal_entries) ||
        !isPowerOf2(params.chooser_entries)) {
        fatal("branch predictor table sizes must be powers of two");
    }
}

std::size_t
BranchPredictor::gshareIndex(ThreadId tid, Addr pc,
                             HistorySnapshot hist) const
{
    const std::uint64_t pc_bits = (pc >> 2) ^ (std::uint64_t{tid} << 13);
    return (pc_bits ^ hist) & (gshare.size() - 1);
}

std::size_t
BranchPredictor::bimodalIndex(ThreadId tid, Addr pc) const
{
    return ((pc >> 2) ^ (std::uint64_t{tid} << 11)) & (bimodal.size() - 1);
}

std::size_t
BranchPredictor::chooserIndex(ThreadId tid, Addr pc) const
{
    return ((pc >> 2) ^ (std::uint64_t{tid} << 9)) & (chooser.size() - 1);
}

bool
BranchPredictor::predict(ThreadId tid, Addr pc)
{
    ++statLookups;
    const HistorySnapshot hist = histories[tid];
    const bool g = taken(gshare[gshareIndex(tid, pc, hist)]);
    const bool b = taken(bimodal[bimodalIndex(tid, pc)]);
    const bool use_gshare = taken(chooser[chooserIndex(tid, pc)]);
    const bool pred = use_gshare ? g : b;
    histories[tid] = ((hist << 1) | (pred ? 1 : 0)) & historyMask;
    return pred;
}

void
BranchPredictor::update(ThreadId tid, Addr pc, bool taken_dir,
                        HistorySnapshot snap)
{
    auto &g = gshare[gshareIndex(tid, pc, snap)];
    auto &b = bimodal[bimodalIndex(tid, pc)];
    auto &c = chooser[chooserIndex(tid, pc)];

    const bool g_correct = taken(g) == taken_dir;
    const bool b_correct = taken(b) == taken_dir;
    if (g_correct != b_correct)
        train(c, g_correct);

    train(g, taken_dir);
    train(b, taken_dir);
}

void
BranchPredictor::saveState(Serializer &s) const
{
    saveCounters(s, gshare, directionReset);
    saveCounters(s, bimodal, directionReset);
    saveCounters(s, chooser, chooserReset);
    s.u32(static_cast<std::uint32_t>(histories.size()));
    for (const HistorySnapshot h : histories)
        s.u64(h);
}

void
BranchPredictor::loadState(Deserializer &d)
{
    loadCounters(d, gshare, directionReset);
    loadCounters(d, bimodal, directionReset);
    loadCounters(d, chooser, chooserReset);
    if (d.u32() != histories.size())
        throw SnapshotError("branch predictor: history count mismatch");
    for (HistorySnapshot &h : histories)
        h = d.u64();
}

} // namespace rmt
