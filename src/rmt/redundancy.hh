/**
 * @file
 * Redundant-thread pairing: the per-pair state tying a leading and a
 * trailing hardware thread together (SRT on one core, CRT across two),
 * plus the manager that maps (core, thread) to its pair and role.
 *
 * A RedundantPair owns the sphere-crossing structures — load value
 * queue, line prediction queue, branch outcome queue (for the ablation
 * front ends), and store comparator — together with the leading-side
 * chunk aggregation state that feeds the LPQ and the bookkeeping used
 * for fault detection and for the paper's Figure 7 instrumentation.
 */

#ifndef RMTSIM_RMT_REDUNDANCY_HH
#define RMTSIM_RMT_REDUNDANCY_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "ckpt/snapshot.hh"
#include "common/ring.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "rmt/lpq.hh"
#include "rmt/recovery.hh"
#include "rmt/lvq.hh"
#include "rmt/store_comparator.hh"

namespace rmt
{

/** Role of a hardware thread context. */
enum class Role : std::uint8_t
{
    Single,             ///< ordinary thread, no redundancy
    Leading,            ///< leading copy of a redundant pair
    Trailing,           ///< trailing copy of a redundant pair
    IndependentCopy,    ///< Base2: redundant copy with no RMT coupling
};

/** How a fault became visible. */
enum class DetectionKind : std::uint8_t
{
    StoreMismatch,      ///< output comparison at the store comparator
    LvqAddrMismatch,    ///< trailing load address disagreed with LVQ
    ControlDivergence,  ///< trailing branch outcome left the LPQ path
};

struct DetectionEvent
{
    DetectionKind kind;
    Cycle cycle;
};

/** Identifies one hardware thread on one core. */
struct HwThread
{
    CoreId core = 0;
    ThreadId tid = 0;
};

/** Per-pair output of a leading branch (branch outcome queue entry). */
struct BoqEntry
{
    Addr pc;
    bool taken;
    Addr target;        ///< next fetch pc when taken
    Cycle availableAt;
};

struct RedundantPairParams
{
    LogicalId logical = 0;
    HwThread leading{};
    HwThread trailing{};
    unsigned lvq_entries = 64;
    unsigned lpq_entries = 32;
    unsigned boq_entries = 512;
    bool lvq_ecc = true;
    bool lpq_ecc = false;   ///< corruption is caught by divergence anyway
    bool boq_ecc = false;
    unsigned forward_latency_lpq = 4;   ///< QBOX -> IBOX
    unsigned forward_latency_lvq = 2;   ///< QBOX -> MBOX
    unsigned cross_core_latency = 0;    ///< extra when leading/trailing
                                        ///< are on different cores (CRT)
    unsigned idle_flush_cycles = 8;     ///< aggregation timeout flush
};

class RedundantPair : public Snapshottable
{
  public:
    /** @p any_detection, when set, is raised by every recordDetection()
     *  (RedundancyManager::anyFaultDetected() reads it). */
    explicit RedundantPair(const RedundantPairParams &params,
                           bool *any_detection = nullptr);

    const RedundantPairParams &params() const { return _params; }
    LogicalId logical() const { return _params.logical; }

    Lvq lvq;
    Lpq lpq;
    StoreComparator comparator;

    /** Optional checkpoint-recovery engine (nullptr = detect only). */
    std::unique_ptr<RecoveryManager> recovery;
    /** The logical thread's data image (needed for memory rollback). */
    DataMemory *memory = nullptr;

    // ----------------------------------------------------- tag counters
    std::uint64_t leadLoadTag = 0;
    std::uint64_t trailLoadTag = 0;
    std::uint64_t leadStoreIdx = 0;
    std::uint64_t trailStoreIdx = 0;
    std::uint64_t leadRetired = 0;      ///< instructions (slack fetch)
    std::uint64_t trailFetched = 0;

    // ------------------------------------------------ chunk aggregation
    /**
     * Append a retired leading instruction to the current chunk,
     * emitting finished chunks into the LPQ per the termination rules
     * (capacity, discontinuity, 32-byte chunk boundary).
     * @return false if the LPQ was full (leading retire must stall)
     */
    bool appendRetired(Addr pc, std::uint8_t iq_half, Cycle now);

    /**
     * Force-terminate the current chunk (memory-barrier-at-head,
     * partial-forward flush, idle flush, thread halt).
     * @return false if the LPQ was full
     */
    bool flushAggregation(Cycle now);

    /** Idle flush: emit a stale partial chunk (deadlock avoidance). */
    bool idleFlush(Cycle now);

    bool aggregationEmpty() const { return agg.count == 0; }

    // -------------------------------------------- uncached replication
    /** Uncached load value replicated from the leading thread
     *  (Section 2.1's deferred mechanism, implemented). */
    void
    pushUncachedLoad(std::uint64_t value, Cycle now)
    {
        uncachedLoads.push_back({value, now +
                                            _params.forward_latency_lvq +
                                            _params.cross_core_latency});
    }
    bool
    uncachedLoadAvailable(Cycle now) const
    {
        return !uncachedLoads.empty() &&
               now >= uncachedLoads.front().second;
    }
    std::uint64_t
    popUncachedLoad()
    {
        const std::uint64_t v = uncachedLoads.front().first;
        uncachedLoads.pop_front();
        return v;
    }

    /** Uncached store record awaiting comparison (Section 2.2's
     *  deferred mechanism): leading records at retirement, trailing at
     *  its own retirement; compare-then-perform-once. */
    struct UncachedStore
    {
        Addr addr;
        std::uint64_t data;
        Cycle availableAt;
    };
    std::deque<UncachedStore> uncachedLeadStores;
    std::deque<UncachedStore> uncachedTrailStores;

    void
    pushUncachedStore(bool leading, Addr addr, std::uint64_t data,
                      Cycle now)
    {
        auto &q = leading ? uncachedLeadStores : uncachedTrailStores;
        q.push_back(UncachedStore{addr, data,
                                  now + _params.forward_latency_lvq +
                                      _params.cross_core_latency});
    }

    // ------------------------------------------- interrupt replication
    /** Leading thread took an interrupt after committing @p committed
     *  instructions (Section 2.1's deferred mechanism, implemented):
     *  the trailing thread resynchronises its divergence check at the
     *  same instruction boundary; its fetch stream already follows the
     *  handler via the LPQ. */
    struct InterruptBoundary
    {
        std::uint64_t committed;
        Cycle availableAt;
    };
    std::deque<InterruptBoundary> interruptBoundaries;

    void
    pushInterruptBoundary(std::uint64_t committed, Cycle now)
    {
        interruptBoundaries.push_back(
            InterruptBoundary{committed,
                              now + _params.forward_latency_lpq +
                                  _params.cross_core_latency});
    }

    // ---------------------------------------------- branch outcome queue
    /** Leading retired a control instruction (BOQ front-end modes). */
    void pushBranchOutcome(Addr pc, bool taken, Addr target, Cycle now);
    bool boqFrontAvailable(Cycle now) const;
    const BoqEntry &boqFront() const { return boq.front(); }
    void boqPop() { boq.pop_front(); }
    bool boqFull() const { return boq.size() >= _params.boq_entries; }

    /**
     * Fault injection: flip bit @p bit of the front BOQ entry's branch
     * target, steering the trailing fetch off the leading path.  ECC
     * corrects it in place.  @return false when the BOQ is empty (the
     * injector retries next cycle).
     */
    bool injectBoqBitFlip(unsigned bit);

    std::uint64_t boqEccCorrections() const
    {
        return statBoqEccCorrected.value();
    }

    /** Flush every sphere-crossing structure and rewind the pair's
     *  counters to @p ckpt (fault recovery). */
    void resetForRecovery(const RecoveryCheckpoint &ckpt);

    // -------------------------------------------------- fault detection
    /** Cap on the recorded (not counted) detection-event log. */
    static constexpr std::size_t maxRecordedDetections = 32;

    /** Log a detection: count it, record it (up to the cap) and raise
     *  the registry's flag, which ends a run without recovery at the
     *  end of this cycle (Simulation::run). */
    void recordDetection(DetectionKind kind, Cycle now);
    bool faultDetected() const { return detected; }
    const std::vector<DetectionEvent> &detections() const
    {
        return events;
    }
    std::uint64_t detectionCount() const { return statDetections.value(); }

    // -------------------------------- Figure 7 (PSR) instrumentation
    /** Leading instruction retired having used a functional unit. */
    void pushLeadingFu(std::uint8_t half, std::uint8_t fu);
    /** Trailing counterpart retired; compare placement. */
    void compareTrailingFu(std::uint8_t half, std::uint8_t fu);

    std::uint64_t fuPairsCompared() const { return statFuPairs.value(); }
    std::uint64_t fuPairsSameUnit() const { return statFuSame.value(); }
    std::uint64_t psrForcedSameHalf() const
    {
        return statPsrForced.value();
    }
    void notePsrForcedSameHalf() { ++statPsrForced; }

    StatGroup &stats() { return statGroup; }

    /** True iff every sphere-crossing structure (LVQ, LPQ, BOQ, store
     *  comparator, uncached queues, interrupt boundaries, FU trace,
     *  chunk aggregation) is empty — the pair's quiesce condition. */
    bool drainedForSnapshot() const;

    /** Tag counters + detection record.  Queue contents are NOT
     *  serialized: a snapshot is taken only at a quiesce point, where
     *  drainedForSnapshot() holds; loadState enforces this. */
    void saveState(Serializer &s) const override;
    void loadState(Deserializer &d) override;

  private:
    struct ChunkAgg
    {
        Addr start = 0;
        std::uint8_t count = 0;
        std::array<std::uint8_t, chunkSize> halves{};
        Addr nextPc = 0;
        Cycle lastAppend = 0;
    };

    RedundantPairParams _params;
    ChunkAgg agg;
    std::deque<std::pair<std::uint64_t, Cycle>> uncachedLoads;
    /** Used only by the branch-outcome front ends, so it grows to its
     *  working depth (at most boq_entries) rather than being reserved. */
    Ring<BoqEntry> boq;
    /** Leading (half, unit) placements awaiting their trailing copy:
     *  as deep as the leading/trailing retirement gap, which no machine
     *  parameter bounds, so it grows to its peak during warm-up. */
    Ring<std::pair<std::uint8_t, std::uint8_t>> leadFuTrace;

    bool detected = false;
    bool *anyDetection;
    std::vector<DetectionEvent> events;

    StatGroup statGroup;
    Counter statChunks;
    Counter statForcedFlushes;
    Counter statDetections;
    Counter statFuPairs;
    Counter statFuSame;
    Counter statPsrForced;
    Counter statBoqEccCorrected;
    Counter statBoqCorruptions;
};

/** Registry of pairs for one chip; maps hardware threads to pairs. */
class RedundancyManager
{
  public:
    RedundancyManager() = default;
    /** Its pairs point at its detection flag: never copied or moved. */
    RedundancyManager(const RedundancyManager &) = delete;
    RedundancyManager &operator=(const RedundancyManager &) = delete;

    RedundantPair &addPair(const RedundantPairParams &params);

    /** Pair owning (core, tid), or nullptr. */
    RedundantPair *pairFor(CoreId core, ThreadId tid);

    /** Role of (core, tid); Single if unregistered. */
    Role roleFor(CoreId core, ThreadId tid) const;

    std::size_t numPairs() const { return pairs.size(); }
    RedundantPair &pair(std::size_t i) { return *pairs.at(i); }
    const RedundantPair &pair(std::size_t i) const { return *pairs.at(i); }

    /** Has any pair logged a detection since the chip was built or
     *  restored?  A flag the pairs raise, not a scan, so it is cheap to
     *  read every cycle; a recovery rollback does not lower it. */
    bool anyFaultDetected() const { return detectionLogged; }

  private:
    std::vector<std::unique_ptr<RedundantPair>> pairs;
    bool detectionLogged = false;
};

} // namespace rmt

#endif // RMTSIM_RMT_REDUNDANCY_HH
