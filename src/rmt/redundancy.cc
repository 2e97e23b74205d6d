#include "rmt/redundancy.hh"

#include "common/bits.hh"
#include "common/logging.hh"

namespace rmt
{

namespace
{

std::string
pairName(LogicalId logical, const char *suffix)
{
    return "pair" + std::to_string(logical) + "." + suffix;
}

} // namespace

RedundantPair::RedundantPair(const RedundantPairParams &params,
                             bool *any_detection)
    : lvq(params.lvq_entries, params.lvq_ecc, pairName(params.logical,
                                                       "lvq")),
      lpq(params.lpq_entries, pairName(params.logical, "lpq"),
          params.lpq_ecc),
      comparator(pairName(params.logical, "storecmp")),
      _params(params),
      anyDetection(any_detection),
      statGroup(pairName(params.logical, "pair")),
      statChunks(statGroup, "chunks", "LPQ chunks emitted"),
      statForcedFlushes(statGroup, "forced_flushes",
                        "chunks terminated by special rules"),
      statDetections(statGroup, "detections", "fault detection events"),
      statFuPairs(statGroup, "fu_pairs",
                  "redundant instruction pairs compared (Fig. 7)"),
      statFuSame(statGroup, "fu_same",
                 "pairs that used the same functional unit"),
      statPsrForced(statGroup, "psr_forced_same_half",
                    "trailing instructions forced into the leading half"),
      statBoqEccCorrected(statGroup, "boq_ecc_corrected",
                          "injected BOQ strikes corrected by ECC"),
      statBoqCorruptions(statGroup, "boq_corruptions",
                         "injected BOQ strikes that corrupted an outcome")
{
}

bool
RedundantPair::appendRetired(Addr pc, std::uint8_t iq_half, Cycle now)
{
    // Termination on a full chunk, a discontinuity, or crossing a
    // 32-byte chunk frame.  The flush must happen *before* the append
    // mutates anything: if the LPQ is full the caller stalls retirement
    // and retries this exact call, which must be idempotent.
    const Addr frame = pc / (chunkSize * instBytes);
    const bool full = agg.count == chunkSize;
    const bool discontinuous = agg.count > 0 && pc != agg.nextPc;
    const bool new_frame =
        agg.count > 0 && frame != agg.start / (chunkSize * instBytes);
    if (full || discontinuous || new_frame) {
        if (!flushAggregation(now))
            return false;
    }

    if (agg.count == 0)
        agg.start = pc;
    agg.halves[agg.count] = iq_half;
    ++agg.count;
    agg.nextPc = pc + instBytes;
    agg.lastAppend = now;
    ++leadRetired;

    // Best-effort eager flush of a completed chunk; if the LPQ is full
    // the entry-condition above (or the idle flush) retries later.
    if (agg.count == chunkSize)
        flushAggregation(now);
    return true;
}

bool
RedundantPair::flushAggregation(Cycle now)
{
    if (agg.count == 0)
        return true;
    if (lpq.full())
        return false;
    LpqChunk chunk;
    chunk.start = agg.start;
    chunk.count = agg.count;
    chunk.leadHalf = agg.halves;
    chunk.availableAt =
        now + _params.forward_latency_lpq + _params.cross_core_latency;
    lpq.push(chunk);
    ++statChunks;
    agg.count = 0;
    return true;
}

bool
RedundantPair::idleFlush(Cycle now)
{
    if (agg.count == 0)
        return true;
    if (now < agg.lastAppend + _params.idle_flush_cycles)
        return true;
    ++statForcedFlushes;
    return flushAggregation(now);
}

void
RedundantPair::pushBranchOutcome(Addr pc, bool taken, Addr target,
                                 Cycle now)
{
    boq.push_back(BoqEntry{pc, taken, target,
                           now + _params.forward_latency_lpq +
                               _params.cross_core_latency});
}

bool
RedundantPair::boqFrontAvailable(Cycle now) const
{
    return !boq.empty() && now >= boq.front().availableAt;
}

bool
RedundantPair::injectBoqBitFlip(unsigned bit)
{
    if (boq.empty())
        return false;
    if (_params.boq_ecc) {
        ++statBoqEccCorrected;
        return true;
    }
    boq.front().target = flipBit(boq.front().target, bit);
    ++statBoqCorruptions;
    return true;
}

void
RedundantPair::resetForRecovery(const RecoveryCheckpoint &ckpt)
{
    lvq.clear();
    lpq.clear();
    comparator.clear();
    uncachedLoads.clear();
    uncachedLeadStores.clear();
    uncachedTrailStores.clear();
    boq.clear();
    interruptBoundaries.clear();
    leadFuTrace.clear();
    agg.count = 0;
    leadLoadTag = trailLoadTag = ckpt.load_tag;
    leadStoreIdx = trailStoreIdx = ckpt.store_idx;
    leadRetired = 0;
    trailFetched = 0;
    detected = false;
}

void
RedundantPair::recordDetection(DetectionKind kind, Cycle now)
{
    detected = true;
    if (anyDetection)
        *anyDetection = true;
    // A detection-only machine stops here (Simulation::run ends the run
    // with this cycle); with recovery the pair rolls back and runs on,
    // so it can log more.  The event log is capped; the stat counts all.
    if (events.size() < maxRecordedDetections)
        events.push_back(DetectionEvent{kind, now});
    ++statDetections;
}

void
RedundantPair::pushLeadingFu(std::uint8_t half, std::uint8_t fu)
{
    leadFuTrace.push_back({half, fu});
}

void
RedundantPair::compareTrailingFu(std::uint8_t half, std::uint8_t fu)
{
    (void)half;
    if (leadFuTrace.empty()) {
        // Only reachable after control divergence under injected faults.
        return;
    }
    const auto [lead_half, lead_fu] = leadFuTrace.front();
    leadFuTrace.pop_front();
    (void)lead_half;
    ++statFuPairs;
    if (lead_fu == fu)
        ++statFuSame;
}

RedundantPair &
RedundancyManager::addPair(const RedundantPairParams &params)
{
    pairs.push_back(
        std::make_unique<RedundantPair>(params, &detectionLogged));
    return *pairs.back();
}

RedundantPair *
RedundancyManager::pairFor(CoreId core, ThreadId tid)
{
    for (auto &pair : pairs) {
        const auto &p = pair->params();
        if ((p.leading.core == core && p.leading.tid == tid) ||
            (p.trailing.core == core && p.trailing.tid == tid)) {
            return pair.get();
        }
    }
    return nullptr;
}

bool
RedundantPair::drainedForSnapshot() const
{
    return lvq.size() == 0 && lpq.size() == 0 &&
           comparator.pendingTrailing() == 0 && boq.empty() &&
           uncachedLoads.empty() && uncachedLeadStores.empty() &&
           uncachedTrailStores.empty() && interruptBoundaries.empty() &&
           leadFuTrace.empty() && aggregationEmpty();
}

void
RedundantPair::saveState(Serializer &s) const
{
    s.u64(leadLoadTag);
    s.u64(trailLoadTag);
    s.u64(leadStoreIdx);
    s.u64(trailStoreIdx);
    s.u64(leadRetired);
    s.u64(trailFetched);
    s.boolean(detected);
    s.u32(static_cast<std::uint32_t>(events.size()));
    for (const DetectionEvent &e : events) {
        s.u8(static_cast<std::uint8_t>(e.kind));
        s.u64(e.cycle);
    }
}

void
RedundantPair::loadState(Deserializer &d)
{
    if (!drainedForSnapshot())
        throw SnapshotError("pair: restore target is not quiesced");
    leadLoadTag = d.u64();
    trailLoadTag = d.u64();
    leadStoreIdx = d.u64();
    trailStoreIdx = d.u64();
    leadRetired = d.u64();
    trailFetched = d.u64();
    detected = d.boolean();
    if (detected && anyDetection)
        *anyDetection = true;
    const std::uint32_t n = d.u32();
    events.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
        DetectionEvent e;
        e.kind = static_cast<DetectionKind>(d.u8());
        e.cycle = d.u64();
        events.push_back(e);
    }
}

Role
RedundancyManager::roleFor(CoreId core, ThreadId tid) const
{
    for (const auto &pair : pairs) {
        const auto &p = pair->params();
        if (p.leading.core == core && p.leading.tid == tid)
            return Role::Leading;
        if (p.trailing.core == core && p.trailing.tid == tid)
            return Role::Trailing;
    }
    return Role::Single;
}

} // namespace rmt
