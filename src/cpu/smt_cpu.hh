/**
 * @file
 * The SMT out-of-order core (paper Section 3, Table 1) with the SRT/CRT
 * extensions of Sections 4-5.
 *
 * One SmtCpu is an 8-wide, 4-context SMT processor: line-prediction
 * driven fetch (IBOX), register rename (PBOX), a 128-entry two-half
 * instruction queue with a completion unit (QBOX), register read (RBOX),
 * the functional-unit pools (EBOX/FBOX), and the memory system frontside
 * (MBOX: load queue, store queue, merge buffer, L1 caches).
 *
 * Stage implementations are split across ibox.cc (fetch), pbox.cc
 * (rename/dispatch), qbox.cc (issue + retire), ebox.cc (execute /
 * writeback events), and mbox.cc (loads, stores, queues) in the style of
 * the paper's box structure.
 */

#ifndef RMTSIM_CPU_SMT_CPU_HH
#define RMTSIM_CPU_SMT_CPU_HH

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/ring.hh"
#include "common/timing_wheel.hh"
#include "cpu/dyn_inst.hh"
#include "cpu/issue_queue.hh"
#include "cpu/smt_params.hh"
#include "isa/arch_state.hh"
#include "isa/program.hh"
#include "mem/device.hh"
#include "mem/mem_system.hh"
#include "obs/attribution.hh"
#include "rmt/fault_injector.hh"
#include "rmt/redundancy.hh"

namespace rmt
{

class PipeTracer;

class SmtCpu : public Snapshottable
{
  public:
    SmtCpu(const SmtParams &params, MemSystem &mem_system, CoreId core_id);

    SmtCpu(const SmtCpu &) = delete;
    SmtCpu &operator=(const SmtCpu &) = delete;

    // ------------------------------------------------------- configure
    /**
     * Bind a program to hardware thread @p tid.
     *
     * @param memory the logical thread's data image (shared between the
     *        leading and trailing copies; IndependentCopy threads get
     *        their own)
     */
    void addThread(ThreadId tid, const Program &program, DataMemory &memory,
                   LogicalId logical, Role role,
                   RedundantPair *pair = nullptr);

    /** The core stores a pointer to the program: binding a temporary
     *  would dangle, so it is forbidden. */
    void addThread(ThreadId, Program &&, DataMemory &, LogicalId, Role,
                   RedundantPair * = nullptr) = delete;

    void setFaultInjector(FaultInjector *injector) { faults = injector; }

    /** Attach the chip's memory-mapped device (uncached accesses). */
    void setDevice(Device *dev) { device = dev; }

    /**
     * Deliver an asynchronous interrupt to @p tid no earlier than cycle
     * @p when: at the next instruction boundary the thread redirects to
     * @p vector with the resume pc captured for Iret.  On a leading
     * thread the boundary is replicated to the trailing copy
     * (Section 2.1's deferred interrupt-input replication).
     */
    void scheduleInterrupt(ThreadId tid, Cycle when, Addr vector);

    /**
     * Instruction budget after which a thread's stats freeze, with an
     * optional warm-up prefix excluded from the measured window
     * (paper Section 6.2: warm up, then measure).
     */
    void setTarget(ThreadId tid, std::uint64_t insts,
                   std::uint64_t warmup = 0);

    // ------------------------------------------------------------- run
    /** Advance one cycle. */
    void tick();

    Cycle cycle() const { return now; }
    CoreId coreId() const { return core; }

    bool threadDone(ThreadId tid) const;
    bool allThreadsDone() const;
    bool threadHalted(ThreadId tid) const { return threads[tid].halted; }

    // ----------------------------------------------------------- stats
    std::uint64_t committed(ThreadId tid) const
    {
        return threads[tid].committed;
    }
    Cycle threadCycles(ThreadId tid) const;
    double ipc(ThreadId tid) const;

    const SmtParams &params() const { return _params; }
    Cache &icache() { return l1i; }
    Cache &dcache() { return l1d; }
    BranchPredictor &branchPredictor() { return bpred; }
    LinePredictor &linePredictor() { return linePred; }
    MergeBuffer &mergeBuffer() { return mergeBuf; }
    StatGroup &stats() { return statGroup; }

    // ------------------------------------- observability (src/obs/)
    unsigned numThreads() const
    {
        return static_cast<unsigned>(threads.size());
    }
    bool threadActive(ThreadId tid) const { return threads[tid].active; }
    /** Registers the program on context @p tid can read
     *  (Program::readMask); 0 for an empty context. */
    std::uint64_t
    readMask(ThreadId tid) const
    {
        const ThreadState &t = threads[tid];
        return t.active ? t.program->readMask() : 0;
    }
    Role threadRole(ThreadId tid) const { return threads[tid].role; }
    unsigned iqHalfOccupancy(unsigned half) const
    {
        return iqHalfOcc[half];
    }
    unsigned robOcc() const { return robOccupancy; }
    std::size_t sqOccupancy(ThreadId tid) const
    {
        return threads[tid].sq.size();
    }
    std::size_t lqOccupancy(ThreadId tid) const
    {
        return threads[tid].lq.size();
    }
    std::uint64_t fetchSrcLead() const { return statFetchSrcLead.value(); }
    std::uint64_t fetchSrcLpq() const { return statFetchSrcLpq.value(); }
    std::uint64_t fetchSrcBoq() const { return statFetchSrcBoq.value(); }
    std::uint64_t committedAll() const
    {
        return statCommittedTotal.value();
    }

    // ---------------------------- commit-slot attribution (obs/)
    /** Retire slots per cycle (the accounting width). */
    unsigned commitWidth() const { return _params.issue_width; }
    /** Cycles this core has simulated (== statCycles). */
    std::uint64_t cycleCount() const { return statCycles.value(); }
    /** Commit slots charged to @p cause so far.  The taxonomy is
     *  exhaustive: summed over causes this equals
     *  cycleCount() * commitWidth() at every cycle boundary. */
    std::uint64_t
    stallSlots(StallCause cause) const
    {
        return statSlots[static_cast<std::size_t>(cause)]->value();
    }
    /** All buckets at once (RunResult aggregation). */
    StallSlots attributionSlots() const;

    /** Visit every stat group this core owns.  @p fn receives a
     *  core-relative path ("" for the core group, "l1d", ...). */
    void forEachStatGroup(
        const std::function<void(const std::string &, StatGroup &)> &fn);

    /** The per-core instruction record pool (tests, diagnostics). */
    const DynInstPool &dynInstPool() const { return instPool; }

    std::uint64_t squashes() const { return statSquashes.value(); }
    std::uint64_t branchMispredicts() const
    {
        return statBranchMispredicts.value();
    }
    std::uint64_t lvqFullStalls() const
    {
        return statLvqFullStalls.value();
    }
    std::uint64_t memOrderViolations() const
    {
        return statMemOrderViolations.value();
    }
    std::uint64_t lineMispredicts() const
    {
        return statLineMispredicts.value();
    }
    std::uint64_t sqFullStalls() const { return statSqFullStalls.value(); }
    double avgStoreLifetime(ThreadId tid) const
    {
        return threads[tid].storeLifetime->mean();
    }

    /** Dump all stat groups owned by this core. */
    void dumpStats(std::ostream &os);

    /** Human-readable pipeline snapshot for debugging stalls. */
    void debugDump(std::ostream &os) const;

    /**
     * Enable a commit trace: one line per retired instruction with its
     * per-stage timing (fetch/dispatch/issue/complete/retire), pc,
     * disassembly, and result.  @p max_lines bounds the output
     * (0 = unbounded).  Pass nullptr to disable.
     */
    void
    setCommitTrace(std::ostream *os, std::uint64_t max_lines = 0)
    {
        traceOut = os;
        traceBudget = max_lines;
    }

    /**
     * Attach a per-instruction lifecycle tracer (obs/pipetrace.hh):
     * every retired instruction emits its fetch/rename/execute/commit
     * stage spans as Chrome trace events.  Pass nullptr to disable;
     * when disabled the hot path pays a single pointer test.
     */
    void setPipeTracer(PipeTracer *tracer) { pipeTracer = tracer; }

    // ----------------------------------------------------- fault hooks
    /** Flip bit @p bit of arch register @p reg's current value. */
    void injectRegBitFlip(ThreadId tid, RegIndex reg, unsigned bit);
    RedundantPair *pairOf(ThreadId tid) { return threads[tid].pair; }
    /**
     * Flip one bit of the oldest unretired store-queue entry of @p tid
     * whose victim field is valid (@p address selects the effective
     * address latch, otherwise the data latch; data strikes are folded
     * into the store's width).  @return false when no entry is resident
     * yet, so the injector retries next cycle.
     */
    bool injectSqBitFlip(ThreadId tid, unsigned bit, bool address);
    /** Flip bit @p bit of @p tid's next fetch pc. */
    bool injectPcBitFlip(ThreadId tid, unsigned bit);
    /** Corrupt the next instruction @p tid decodes: bit >= 48 swaps the
     *  opcode for a same-class sibling, lower bits flip an immediate
     *  bit (one-shot). */
    bool armDecodeStrike(ThreadId tid, unsigned bit);
    /** Flip a data bit of the next store @p tid releases into the merge
     *  buffer (one-shot; corrected when merge_buffer_ecc is set). */
    bool armMergeStrike(ThreadId tid, unsigned bit);
    std::uint64_t mergeEccCorrections() const
    {
        return statMergeEccCorrected.value();
    }

    // ------------------------------------------------------- recovery
    /** Flush all in-flight state of @p tid and restart it from the
     *  checkpoint (fault recovery; incompatible with cosim). */
    void recoverThread(ThreadId tid, const RecoveryCheckpoint &ckpt);

    // --------------------------------------------------- checkpointing
    /**
     * Enter/leave the snapshot drain: non-trailing fetch freezes while
     * trailing threads keep consuming what their (frozen) leading
     * partners already committed, until the pipeline empties.
     */
    void setDraining(bool d) { draining = d; }
    bool isDraining() const { return draining; }

    /** True iff nothing is in flight anywhere in the core. */
    bool drainedForSnapshot() const;

    /**
     * True iff every active thread's mapped physical registers hold
     * its committed register values, for the registers its program
     * can read (readMask).  A snapshot stores only the committed
     * values (loadState rebuilds the mapped registers from them), so a
     * struck register still mapped and not yet overwritten is state no
     * image shows; one no instruction reads cannot change the rest of
     * the run.
     */
    bool mappedRegsCommitted() const;

    /**
     * Architectural + timing-relevant microarchitectural state.  Valid
     * only at a quiesce point (drainedForSnapshot()); statistics are
     * restored separately through the chip stat walk.
     */
    void saveState(Serializer &s) const override;
    void loadState(Deserializer &d) override;

  private:
    // ------------------------------------------------- internal types
    /** Why a thread's next fetch is stalled (fetchStallUntil), recorded
     *  at the stall site so empty-ROB cycles can be attributed. */
    enum class FetchStall : std::uint8_t
    {
        None,
        IcacheMiss,     ///< waiting on an I-cache fill
        LineMispredict, ///< line-predictor retrain penalty
        Redirect,       ///< squash / interrupt / iret / recovery restart
    };

    struct ThreadState
    {
        bool active = false;
        const Program *program = nullptr;
        DataMemory *mem = nullptr;
        LogicalId logical = 0;
        Role role = Role::Single;
        RedundantPair *pair = nullptr;

        // Fetch.
        Addr fetchPc = 0;
        Cycle fetchStallUntil = 0;
        FetchStall fetchStallReason = FetchStall::None;
        bool fetchHalted = false;   ///< halt fetched; stop fetching
        Ring<DynInstPtr> rmb;       ///< rate-matching buffer
        InstSeq nextSeq = 0;

        // Rename / in-flight.
        std::array<PhysRegIndex, numArchRegs> renameMap{};
        Ring<DynInstPtr> rob;
        /** Committed architectural register values (checkpointing). */
        std::array<std::uint64_t, numArchRegs> archRegs{};

        // Memory queues (statically partitioned; see quotas).  Store
        // entry state (alloc/retire cycle, verified) lives in the
        // DynInst itself, so no queue search is ever needed.
        Ring<DynInstPtr> lq;
        Ring<DynInstPtr> sq;
        unsigned lqQuota = 0;
        unsigned sqQuota = 0;

        // Commit.
        std::uint64_t committed = 0;
        std::uint64_t target = 0;
        std::uint64_t measureSkip = 0;  ///< warm-up instructions
        Cycle startCycle = 0;
        Cycle finishCycle = 0;
        bool done = false;
        bool halted = false;

        // Trailing-thread committed-stream divergence check.
        bool haveExpectedPc = false;
        Addr expectedPc = 0;

        // One-shot armed fault strikes (fault injection).
        bool decodeStrike = false;
        unsigned decodeStrikeBit = 0;
        bool mergeStrike = false;
        unsigned mergeStrikeBit = 0;

        // Interrupts.
        struct PendingInterrupt
        {
            Cycle when;
            Addr vector;
        };
        std::deque<PendingInterrupt> pendingInterrupts;
        Addr intReturnPc = 0;       ///< captured at interrupt entry
        Addr nextCommitPc = 0;      ///< resume point at any boundary

        // Reference model (co-simulation).
        std::unique_ptr<DataMemory> refMem;
        std::unique_ptr<ArchState> ref;

        // Per-thread stats.
        std::unique_ptr<Average> storeLifetime;
        std::unique_ptr<Histogram> storeLifetimeHist;
        std::unique_ptr<Counter> statCommitted;
    };

    /** Scheduled pipeline event kinds. */
    enum class EvKind : std::uint8_t
    {
        Compute,        ///< value computed and bypassed (wakeup time)
        ExecDone,       ///< pipeline completion / control resolution
        MemAgen,        ///< load/store address generation
        StoreData,      ///< store data arrives at the store queue
        LoadDone,       ///< load value available
    };

    struct Event
    {
        EvKind kind = EvKind::Compute;
        DynInstPtr inst;
        std::uint64_t payload = 0;  ///< LoadDone: the value
    };

    // ------------------------------------------------- stage functions
    void fetch();                           // ibox.cc
    void applyDecodeStrike(ThreadState &t, StaticInst &si);  // ibox.cc
    void fetchLeadingChunks(ThreadId tid);  // ibox.cc
    void fetchTrailingLpq(ThreadId tid);    // ibox.cc
    void fetchTrailingBoq(ThreadId tid);    // ibox.cc
    ThreadId chooseFetchThread();           // ibox.cc
    bool canFetch(ThreadId tid) const;      // ibox.cc
    bool trailingSlackGated(const ThreadState &t) const;    // ibox.cc

    void renameDispatch();                  // pbox.cc
    bool dispatchOne(ThreadId tid, DynInstPtr &inst, unsigned slot);
    unsigned iqFreeFor(ThreadId tid) const; // pbox.cc
    bool lsqSpaceFor(ThreadId tid, bool load) const;    // pbox.cc
    unsigned robFreeFor(ThreadId tid) const;    // pbox.cc
    bool physRegsAvailable(ThreadId tid) const;

    void issue();                           // qbox.cc

    void processEvents();                   // ebox.cc
    void computeInst(const DynInstPtr &inst);       // ebox.cc
    void completeInst(const DynInstPtr &inst);      // ebox.cc
    void resolveControl(const DynInstPtr &inst);    // ebox.cc

    void memAgen(const DynInstPtr &inst);   // mbox.cc
    void loadAgen(const DynInstPtr &inst);  // mbox.cc
    void trailingLoadAgen(const DynInstPtr &inst);  // mbox.cc
    void storeAgen(const DynInstPtr &inst); // mbox.cc
    void storeDataArrive(const DynInstPtr &inst);   // mbox.cc
    void finishLoad(const DynInstPtr &inst, std::uint64_t value);
    void retryWaitingLoads();               // mbox.cc
    void releaseStores();                   // mbox.cc
    void verifyLeadingStores();             // mbox.cc
    void drainMergeBuffer();                // mbox.cc
    void checkOrderViolation(const DynInstPtr &store);  // mbox.cc

    void commit();                          // qbox.cc
    bool commitOne(ThreadId tid);           // qbox.cc

    // Commit-slot attribution diagnosis (qbox.cc).  All read-only: the
    // charging pass must never perturb the machine it is explaining.
    StallCause diagnoseEmptyRob(ThreadId tid) const;
    StallCause diagnoseDispatchBlock(ThreadId tid) const;
    StallCause diagnoseMembarWait(const ThreadState &t) const;
    bool commitUncached(ThreadState &t, const DynInstPtr &inst); // mbox.cc
    bool maybeTakeInterrupt(ThreadId tid);  // qbox.cc
    void verifyUncachedStores();            // mbox.cc

    /** @return the oldest squashed control instruction (for predictor
     *  state recovery), or nullptr. */
    DynInstPtr squashThread(ThreadId tid, InstSeq last_good_seq,
                            Addr restart_pc,
                            const char *reason);  // qbox.cc
    /** Flush speculative in-flight state.  @p drop_retired_stores also
     *  discards retired-unverified SQ entries (recovery rollback only:
     *  an interrupt must let committed stores finish verification). */
    void flushAllInflight(ThreadId tid,
                          bool drop_retired_stores = false);  // qbox.cc

    // ------------------------------------------------------- utilities
    void schedule(Cycle when, EvKind kind, const DynInstPtr &inst,
                  std::uint64_t payload = 0);
    std::uint64_t readPhys(PhysRegIndex idx) const;
    void writePhys(PhysRegIndex idx, std::uint64_t value);
    PhysRegIndex allocPhysReg();
    void freePhysReg(PhysRegIndex idx);
    Addr physMemAddr(const ThreadState &t, Addr vaddr) const
    {
        return physAddr(t.logical, vaddr);
    }
    bool usesLoadQueue(const ThreadState &t) const
    {
        return t.role != Role::Trailing;
    }
    void computeQueueQuotas();
    unsigned fuPoolSize(FuClass cls) const;
    std::uint8_t pickHalf(const DynInstPtr &inst, unsigned slot);
    void noteCommitProgress() { lastCommitCycle = now; }
    void checkDeadlock();

    // ----------------------------------------------------------- state
    SmtParams _params;
    MemSystem &memSystem;
    CoreId core;
    Cycle now = 0;

    // The instruction pool must be declared before every structure that
    // holds a DynInstPtr (threads, iq, calendar, waiting loads): members
    // destroy in reverse order, and the pool has to outlive the last
    // handle.
    DynInstPool instPool;

    std::vector<ThreadState> threads;

    // Physical register file.
    std::vector<std::uint64_t> physRegs;
    std::vector<Cycle> readyAt;             ///< notReady = infinity
    std::vector<PhysRegIndex> freeList;
    std::vector<unsigned> physInUse;        ///< per-thread allocation count
    static constexpr Cycle notReady = ~Cycle{0};

    // Instruction queue: wakeup-driven select state, two logical halves.
    IssueQueue iq;
    std::array<unsigned, 2> iqHalfOcc{};
    std::array<unsigned, 4> iqOccByThread{};
    unsigned robOccupancy = 0;              ///< shared completion unit

    // Event calendar.
    TimingWheel<Event> calendar;

    // Loads waiting on SQ/LVQ conditions; retried each cycle.  The
    // retry pass swaps the two so both keep their capacity.
    std::vector<DynInstPtr> waitingLoads;
    std::vector<DynInstPtr> retryLoads;

    // Structures.
    Cache l1i;
    Cache l1d;
    MergeBuffer mergeBuf;
    BranchPredictor bpred;
    LinePredictor linePred;
    IndirectPredictor indirect;
    StoreSets storeSets;
    std::vector<ReturnAddressStack> ras;

    FaultInjector *faults = nullptr;
    Device *device = nullptr;

    // Round-robin pointers.
    unsigned mapRr = 0;
    unsigned commitRr = 0;
    unsigned fetchRr = 0;

    // Watchdog.
    Cycle lastCommitCycle = 0;

    // Snapshot drain (see setDraining()).
    bool draining = false;

    // Debug hooks, read from the environment once at construction:
    // RMT_LP_DEBUG logs line mispredictions, RMT_DIV_DEBUG trailing
    // committed-stream divergences (stderr).
    bool lpDebug = false;
    bool divDebug = false;

    // Commit tracing.
    std::ostream *traceOut = nullptr;
    std::uint64_t traceBudget = 0;      ///< 0 = unbounded
    std::uint64_t traceLines = 0;
    void traceCommit(const ThreadState &t, const DynInstPtr &inst);

    // Per-instruction lifecycle tracing (obs/pipetrace.hh).
    PipeTracer *pipeTracer = nullptr;

    // Commit-slot attribution scratch: commitOne() reports, per call,
    // why it blocked (commitStall) or whether the slot it consumed was
    // a squash drain (commitSlotSquash); commit() does the charging.
    StallCause commitStall = StallCause::Idle;
    bool commitSlotSquash = false;
    void
    chargeSlots(StallCause cause, unsigned slots)
    {
        *statSlots[static_cast<std::size_t>(cause)] += slots;
    }

    // Per-cycle issue accounting (reset in issue()).
    std::array<unsigned, 2> issuedThisCycle{};
    std::array<std::array<std::uint8_t, 4>, 2> fuBusy{};  ///< [half][class]

    // Stats.
    StatGroup statGroup;
    Counter statCycles;
    Counter statFetched;
    Counter statCommittedTotal;
    Counter statSquashes;
    Counter statBranchMispredicts;
    Counter statLineMispredicts;
    Counter statMemOrderViolations;
    Counter statSqFullStalls;
    Counter statIqFullStalls;
    Counter statRobFullStalls;
    Counter statLqFullStalls;
    Counter statDispatched;
    Counter statIssued;
    Counter statLvqFullStalls;
    Counter statLpqFullStalls;
    Counter statIcacheMissStalls;
    Counter statWrongPathInsts;
    Counter statFetchSrcLead;
    Counter statFetchSrcLpq;
    Counter statFetchSrcBoq;
    Counter statMergeEccCorrected;
    Counter statMergeCorruptions;
    /** One commit-slot counter per StallCause ("slots_committed", ...),
     *  registered on statGroup so they ride the chip stat walk: stats
     *  JSON export and snapshot save/restore both see them without any
     *  extra plumbing. */
    std::array<std::unique_ptr<Counter>, numStallCauses> statSlots;
};

} // namespace rmt

#endif // RMTSIM_CPU_SMT_CPU_HH
