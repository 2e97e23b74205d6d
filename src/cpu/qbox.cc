/**
 * @file
 * QBOX: instruction queue select/issue and the completion unit
 * (paper Section 3.3), plus squash handling and the SRT retirement-side
 * duties: LVQ fill, LPQ chunk aggregation, branch-outcome forwarding,
 * and the trailing thread's committed-stream divergence check.
 */

#include "cpu/smt_cpu.hh"

#include "common/logging.hh"
#include "obs/pipetrace.hh"

#include <cstdio>

namespace rmt
{

void
SmtCpu::issue()
{
    issuedThisCycle = {0, 0};
    for (auto &half : fuBusy)
        half = {0, 0, 0, 0};
    if (iq.empty())
        return;
    iq.wakeIssuable(now);
    unsigned total = 0;
    unsigned loads_issued = 0;
    unsigned stores_issued = 0;

    // Select walks the ready list, oldest first: exactly the entries
    // past their front latency whose operands are available and whose
    // store dependence (if any) has resolved.  Wakeup keeps that list
    // current, so no cycle scans the whole queue.
    std::uint32_t next = IssueQueue::none;
    for (std::uint32_t slot = iq.oldestReady();
         slot != IssueQueue::none && total < _params.issue_width;
         slot = next) {
        next = iq.nextReady(slot);
        const DynInstPtr &ptr = iq.inst(slot);
        DynInst *const inst = ptr.get();
        const std::uint8_t half = inst->iqHalf;
        if (issuedThisCycle[half] >= _params.issue_per_half ||
            (inst->isLoad() &&
             loads_issued >= _params.max_loads_per_cycle) ||
            (inst->isStore() &&
             stores_issued >= _params.max_stores_per_cycle)) {
            continue;
        }
        // Functional-unit selection within the half: position-preferred
        // (deterministic, which is what makes redundant copies collide
        // on the same unit without PSR — Fig. 7), falling back to the
        // next free unit.
        const FuClass cls = inst->si.fuClass();
        const unsigned cls_idx = static_cast<unsigned>(cls);
        const unsigned pool = fuPoolSize(cls);
        const std::uint8_t busy = fuBusy[half][cls_idx];
        const unsigned pref =
            static_cast<unsigned>(inst->pc / instBytes) % pool;
        unsigned unit = pool;
        for (unsigned k = 0; k < pool; ++k) {
            const unsigned u = (pref + k) % pool;
            if (!(busy & (1u << u))) {
                unit = u;
                break;
            }
        }
        if (unit == pool)
            continue;   // all units of this class busy in this half

        fuBusy[half][cls_idx] = static_cast<std::uint8_t>(
            fuBusy[half][cls_idx] | (1u << unit));

        // Global functional-unit instance id (for Fig. 7 and for the
        // permanent-fault model): classes occupy disjoint id ranges,
        // halves own disjoint unit instances.
        static constexpr unsigned class_base[] = {0, 16, 32, 48};
        inst->fuIndex = static_cast<std::uint8_t>(
            class_base[cls_idx] + half * pool + unit);

        inst->issued = true;
        inst->issueCycle = now;

        if (inst->si.isMemRef()) {
            schedule(now + _params.rbox_latency, EvKind::MemAgen, ptr);
            if (inst->isLoad())
                ++loads_issued;
            else
                ++stores_issued;
        } else {
            // Wakeup and bypass: dependents see the result after the
            // execution latency; the Compute event writes the value and
            // wakes them at exactly that time.  Completion (and branch
            // resolution) happens after the full QBOX-back + RBOX + EBOX
            // depth.
            if (inst->pdst != invalidPhysReg)
                readyAt[inst->pdst] = now + inst->si.latency();
            schedule(now + inst->si.latency(), EvKind::Compute, ptr);
            schedule(now + _params.qbox_back_latency +
                         _params.rbox_latency + inst->si.latency(),
                     EvKind::ExecDone, ptr);
        }

        inst->inIq = false;
        --iqHalfOcc[half];
        --iqOccByThread[inst->tid];
        ++issuedThisCycle[half];
        ++statIssued;
        ++total;
        iq.remove(slot);
    }
}

bool
SmtCpu::maybeTakeInterrupt(ThreadId tid)
{
    ThreadState &t = threads[tid];

    if (t.role == Role::Trailing) {
        // The trailing copy's fetch stream already follows the handler
        // (it comes through the LPQ); all it needs is to resynchronise
        // the committed-stream divergence check at the same boundary.
        if (t.pair && !t.pair->interruptBoundaries.empty()) {
            const auto &b = t.pair->interruptBoundaries.front();
            if (now >= b.availableAt && t.committed == b.committed) {
                t.haveExpectedPc = false;
                t.pair->interruptBoundaries.pop_front();
            }
        }
        return false;
    }

    if (t.pendingInterrupts.empty() ||
        now < t.pendingInterrupts.front().when || t.halted) {
        return false;
    }

    const Addr vector = t.pendingInterrupts.front().vector;
    t.pendingInterrupts.pop_front();

    // Precise delivery at an instruction boundary: everything younger
    // than the boundary is discarded and refetched after the handler.
    flushAllInflight(tid);
    t.intReturnPc = t.nextCommitPc;
    t.fetchPc = vector;
    t.fetchStallUntil = now + 2;
    t.fetchStallReason = FetchStall::Redirect;
    t.fetchHalted = false;

    if (t.role == Role::Leading && t.pair)
        t.pair->pushInterruptBoundary(t.committed, now);
    return true;
}

bool
SmtCpu::commitOne(ThreadId tid)
{
    ThreadState &t = threads[tid];
    commitSlotSquash = false;
    if (maybeTakeInterrupt(tid)) {
        commitStall = StallCause::SquashRecovery;
        return false;   // redirected; nothing retires this cycle
    }
    if (t.rob.empty() || t.halted) {
        commitStall =
            t.halted ? StallCause::Idle : diagnoseEmptyRob(tid);
        return false;
    }
    DynInstPtr inst = t.rob.front();
    if (inst->squashed) {
        t.rob.pop_front();
        --robOccupancy;
        commitSlotSquash = true;    // drained slot, not a retirement
        return true;
    }
    // Uncached accesses execute here, in order, at the head of the
    // machine (non-speculative by construction).
    if (inst->si.isUncached() && !inst->completed &&
        !commitUncached(t, inst)) {
        commitStall = StallCause::UncachedWait;
        return false;
    }
    if (!inst->completed) {
        // Loads carry their own wait reason (set by the MBOX when the
        // access started); anything else is simply still executing.
        commitStall = inst->isLoad() ? inst->waitReason
                                     : StallCause::ExecLatency;
        return false;
    }

    const StaticInst &si = inst->si;
    RedundantPair *pair = t.pair;
    const bool leading = t.role == Role::Leading;
    const bool trailing = t.role == Role::Trailing;

    // Memory barrier: retires only once this thread's *older* stores
    // have drained from the store queue (Section 3.4).  When the
    // barrier is the oldest instruction, force LPQ chunk termination so
    // the trailing stores it is waiting on can be fetched and verified
    // (Section 4.4 deadlock rule).
    if (si.isMemBar()) {
        // The SQ is dispatch-ordered, so the oldest entry decides in
        // O(1) whether any older store is still pending.
        const bool older_store_pending =
            !t.sq.empty() && t.sq.front()->seq < inst->seq;
        if (older_store_pending) {
            if (leading && pair && !pair->aggregationEmpty())
                pair->flushAggregation(now);
            commitStall = diagnoseMembarWait(t);
            return false;
        }
    }

    // Leading-side stall checks before any side effects.
    if (leading && si.isLoad() && pair->lvq.full()) {
        ++statLvqFullStalls;
        commitStall = StallCause::LvqFull;
        return false;
    }
    if (leading && pair &&
        _params.trailing_fetch != TrailingFetchMode::LinePredictionQueue &&
        si.isControl() && pair->boqFull()) {
        commitStall = StallCause::BoqFull;
        return false;
    }

    // LPQ chunk aggregation (leading): a full LPQ stalls retirement.
    if (leading && pair &&
        _params.trailing_fetch == TrailingFetchMode::LinePredictionQueue) {
        if (!pair->appendRetired(inst->pc, inst->iqHalf, now)) {
            ++statLpqFullStalls;
            commitStall = StallCause::LpqFull;
            return false;
        }
    } else if (leading && pair) {
        ++pair->leadRetired;
    }

    if (leading && pair && si.isLoad()) {
        const auto &pp = pair->params();
        inst->loadTag = pair->leadLoadTag++;    // committed-order tag
        pair->lvq.insert(inst->loadTag, inst->effAddr, inst->result,
                         now + pp.forward_latency_lvq +
                             pp.cross_core_latency);
    }

    if (leading && pair && si.isControl() &&
        _params.trailing_fetch != TrailingFetchMode::LinePredictionQueue) {
        const Addr next =
            inst->branchTaken ? inst->branchTarget : inst->pc + instBytes;
        pair->pushBranchOutcome(inst->pc, inst->branchTaken, next, now);
    }

    // Stores: architectural memory update at retirement; the SQ entry
    // lives on until release (and, for leading threads, verification).
    if (si.isStore()) {
        if (leading && pair && pair->recovery) {
            // Capture the memory pre-image for rollback.
            pair->recovery->preStore(*t.mem, inst->effAddr,
                                     si.memSize());
        }
        if (!trailing)
            t.mem->write(inst->effAddr, si.memSize(), inst->storeData);
        if (leading)
            inst->storeIdx = pair->leadStoreIdx++;  // committed order
        inst->retired = true;
        inst->sqRetireCycle = now;
        if (trailing) {
            // Trailing stores exist only to be compared; their queue
            // entry frees at retirement.
            if (!t.sq.empty() && t.sq.front() == inst)
                t.sq.pop_front();
        }
    }

    // Loads leave the load queue at retirement.
    if (si.isLoad() && inst->lqIndex >= 0 && !t.lq.empty() &&
        t.lq.front() == inst) {
        t.lq.pop_front();
    }

    // Trailing committed-stream divergence check: the committed pc
    // sequence must follow the LPQ/BOQ path; a disagreement between a
    // control instruction's computed target and the instruction that
    // actually followed it is a detected fault.
    if (trailing) {
        if (t.haveExpectedPc && inst->pc != t.expectedPc) {
            if (divDebug) {
                std::fprintf(stderr,
                             "DIV cyc=%llu core=%u tid=%u pc=%llx "
                             "expected=%llx seq=%llu %s\n",
                             (unsigned long long)now, core, tid,
                             (unsigned long long)inst->pc,
                             (unsigned long long)t.expectedPc,
                             (unsigned long long)inst->seq,
                             inst->si.disassemble().c_str());
            }
            pair->recordDetection(DetectionKind::ControlDivergence, now);
        }
        t.expectedPc = si.isControl()
                           ? (inst->branchTaken ? inst->branchTarget
                                                : inst->pc + instBytes)
                           : inst->pc + instBytes;
        t.haveExpectedPc = true;
    }

    // Figure 7 instrumentation: functional-unit placement of the two
    // copies of each instruction (uncached ops use no functional unit).
    if (pair && inst->issued && !si.isUncached()) {
        if (leading)
            pair->pushLeadingFu(inst->iqHalf, inst->fuIndex);
        else if (trailing)
            pair->compareTrailingFu(inst->iqHalf, inst->fuIndex);
    }

    // Co-simulation against the in-order reference model.
    if (t.ref) {
        const StepResult r = t.ref->step();
        if (r.pc != inst->pc) {
            panic("cosim[c%u t%u]: pc %llx expected %llx", core, tid,
                  static_cast<unsigned long long>(inst->pc),
                  static_cast<unsigned long long>(r.pc));
        }
        if (si.isUncached()) {
            // The device is volatile; reconcile its value into the
            // reference so dependent computation stays comparable.
            if (si.isUncachedLoad())
                t.ref->writeReg(si.rd, inst->result);
        } else if (!si.isHalt() && r.rd != noReg && r.rd != intReg(0) &&
            inst->result != r.value) {
            panic("cosim[c%u t%u]: pc %llx (%s) value %llx expected %llx",
                  core, tid, static_cast<unsigned long long>(inst->pc),
                  si.disassemble().c_str(),
                  static_cast<unsigned long long>(inst->result),
                  static_cast<unsigned long long>(r.value));
        }
        if (r.is_store &&
            (r.store_addr != inst->effAddr ||
             r.store_data != inst->storeData)) {
            panic("cosim[c%u t%u]: pc %llx store mismatch", core, tid,
                  static_cast<unsigned long long>(inst->pc));
        }
    }

    if (si.isHalt()) {
        t.halted = true;
        t.finishCycle = now;
        if (leading && pair)
            pair->flushAggregation(now);
    }

    // The previous mapping of the destination register is dead now
    // (pdst itself stays allocated until a younger writer commits).
    if (inst->pdst != invalidPhysReg) {
        freePhysReg(inst->prevDst);
        --physInUse[tid];
        if (si.rd != noReg)
            t.archRegs[si.rd] = inst->result;   // committed arch state
    }

    if (traceOut)
        traceCommit(t, inst);
    if (pipeTracer)
        pipeTracer->recordRetire(core, tid, *inst, now);

    t.rob.pop_front();
    --robOccupancy;
    ++t.committed;
    *t.statCommitted += 1;
    ++statCommittedTotal;
    noteCommitProgress();

    // Measurement window opens once the warm-up prefix has committed.
    if (t.measureSkip && t.committed == t.measureSkip)
        t.startCycle = now;

    // Track the precise boundary pc (interrupt entry and checkpoints).
    t.nextCommitPc = si.isHalt()
                         ? inst->pc
                         : (si.isIret()
                                ? t.intReturnPc
                                : (si.isControl() && inst->branchTaken
                                       ? inst->branchTarget
                                       : inst->pc + instBytes));

    // Return from interrupt: serializing redirect to the captured
    // resume pc.  The trailing copy's stream already continues there
    // via the LPQ, so only leading/single threads redirect.
    if (si.isIret()) {
        if (!trailing) {
            flushAllInflight(tid);
            t.fetchPc = t.intReturnPc;
            t.fetchStallUntil = now + 2;
            t.fetchStallReason = FetchStall::Redirect;
            t.fetchHalted = false;
        } else {
            // The resume target is not computable locally: allow the
            // stream gap.
            t.haveExpectedPc = false;
        }
    }

    // Checkpoint cadence (fault recovery): leading commits drive it.
    if (leading && pair && pair->recovery) {
        pair->recovery->noteCommit(t.archRegs, t.nextCommitPc,
                                   t.committed, pair->leadLoadTag,
                                   pair->leadStoreIdx);
    }

    if (!t.done && t.target && t.committed >= t.target) {
        t.done = true;
        t.finishCycle = now;
    }
    return true;
}

void
SmtCpu::commit()
{
    const unsigned n = static_cast<unsigned>(threads.size());
    unsigned budget = _params.issue_width;   // retire width == 8
    // Commit-slot accounting: every one of the issue_width slots is
    // charged to exactly one StallCause each cycle.  Slots consumed by
    // commitOne() are Committed (or SquashRecovery for squash drains);
    // the remainder is split across the causes that blocked each active
    // thread, or charged Idle when no thread wanted the slots.  The
    // charge always totals issue_width, so sum(buckets) ==
    // cycles * commit_width holds at every cycle boundary.
    std::array<StallCause, 4> blocked;
    unsigned nblocked = 0;
    for (unsigned i = 0; i < n && budget > 0; ++i) {
        const ThreadId tid = static_cast<ThreadId>((commitRr + i) % n);
        if (!threads[tid].active)
            continue;
        unsigned retired = 0;
        unsigned drained = 0;
        while (budget > 0 && commitOne(tid)) {
            --budget;
            if (commitSlotSquash)
                ++drained;
            else
                ++retired;
        }
        if (retired)
            chargeSlots(StallCause::Committed, retired);
        if (drained)
            chargeSlots(StallCause::SquashRecovery, drained);
        if (budget > 0)
            blocked[nblocked++] = commitStall;  // why commitOne said no
    }
    commitRr = (commitRr + 1) % n;

    if (budget > 0) {
        if (nblocked == 0) {
            chargeSlots(StallCause::Idle, budget);
        } else {
            const unsigned share = budget / nblocked;
            const unsigned rem = budget % nblocked;
            for (unsigned k = 0; k < nblocked; ++k) {
                const unsigned amount = share + (k < rem ? 1 : 0);
                if (amount)
                    chargeSlots(blocked[k], amount);
            }
        }
    }
}

StallCause
SmtCpu::diagnoseEmptyRob(ThreadId tid) const
{
    const ThreadState &t = threads[tid];
    if (t.fetchHalted && t.rmb.empty())
        return StallCause::Idle;    // program fully fetched and retired
    if (draining)
        return StallCause::DrainBarrier;
    if (!t.rmb.empty())
        return diagnoseDispatchBlock(tid);

    // The frontend has nothing buffered: why is fetch not delivering?
    if (now < t.fetchStallUntil) {
        switch (t.fetchStallReason) {
          case FetchStall::IcacheMiss:
            return StallCause::IcacheMiss;
          case FetchStall::LineMispredict:
          case FetchStall::Redirect:
            return StallCause::SquashRecovery;
          case FetchStall::None:
            break;
        }
        return StallCause::FetchStarved;
    }
    if (t.role == Role::Trailing && t.pair && trailingSlackGated(t))
        return StallCause::SlackThrottled;
    // Remaining trailing cases (LPQ empty, BOQ outcome starvation) and
    // plain fetch/dispatch latency: the frontend owes us instructions.
    return StallCause::FetchStarved;
}

StallCause
SmtCpu::diagnoseDispatchBlock(ThreadId tid) const
{
    // Mirror of dispatchOne()'s resource checks against the next
    // instruction waiting in the rate-matching buffer, without the
    // side-effecting rename.  Order matters: it must match dispatch.
    const ThreadState &t = threads[tid];
    const DynInstPtr &head = t.rmb.front();
    if (head->fetchCycle + _params.ibox_latency > now)
        return StallCause::FetchStarved;    // still in IBOX transit
    if (robFreeFor(tid) == 0)
        return StallCause::RobFull;
    const StaticInst &si = head->si;
    const bool needs_iq = si.fuClass() != FuClass::None &&
                          !si.isMemBar() && !si.isUncached();
    if (needs_iq && iqFreeFor(tid) == 0)
        return StallCause::IqFull;
    const bool needs_dest = si.rd != noReg && si.rd != intReg(0);
    if (needs_dest && !physRegsAvailable(tid))
        return StallCause::RobFull;     // rename-resource exhaustion
    if (si.isLoad() && usesLoadQueue(t) &&
        (t.lq.size() >= t.lqQuota || !lsqSpaceFor(tid, /*load=*/true))) {
        return StallCause::LqFull;
    }
    if (si.isStore() &&
        (t.sq.size() >= t.sqQuota || !lsqSpaceFor(tid, /*load=*/false))) {
        return StallCause::SqFull;
    }
    // Dispatchable, but the mapper served another thread this cycle.
    return StallCause::FetchStarved;
}

StallCause
SmtCpu::diagnoseMembarWait(const ThreadState &t) const
{
    // A memory barrier at the head waits for the SQ to drain; mirror
    // releaseStores()'s gating on the oldest entry read-only (in
    // particular: no noteFullReject(), that is the release path's job).
    if (t.sq.empty())
        return StallCause::ExecLatency;
    const DynInstPtr &entry = t.sq.front();
    if (entry->squashed || !entry->retired)
        return StallCause::ExecLatency;     // store still completing
    if (t.role == Role::Leading && _params.srt_store_comparison &&
        !entry->sqVerified) {
        return StallCause::StoreCompWait;
    }
    if (now < entry->sqRetireCycle + _params.store_checker_penalty)
        return StallCause::StoreCompWait;
    if (!mergeBuf.canAccept(physMemAddr(t, entry->effAddr)))
        return StallCause::MergeBufferFull;
    return StallCause::ExecLatency;
}

DynInstPtr
SmtCpu::squashThread(ThreadId tid, InstSeq last_good_seq, Addr restart_pc,
                     const char *reason)
{
    (void)reason;
    ThreadState &t = threads[tid];
    ++statSquashes;

    DynInstPtr oldest_ctl;
    while (!t.rob.empty() && t.rob.back()->seq > last_good_seq) {
        DynInstPtr inst = t.rob.back();
        t.rob.pop_back();
        --robOccupancy;
        inst->squashed = true;
        ++statWrongPathInsts;

        if (inst->inIq) {
            inst->inIq = false;
            iq.remove(inst->iqSlot);
            --iqHalfOcc[inst->iqHalf];
            --iqOccByThread[tid];
        }
        if (inst->pdst != invalidPhysReg) {
            t.renameMap[inst->si.rd] = inst->prevDst;
            freePhysReg(inst->pdst);
            --physInUse[tid];
        }
        if (inst->isStore() && !t.sq.empty() && t.sq.back() == inst)
            t.sq.pop_back();
        if (inst->isLoad() && !t.lq.empty() && t.lq.back() == inst)
            t.lq.pop_back();
        if (inst->isControl())
            oldest_ctl = inst;
    }

    for (auto &inst : t.rmb) {
        inst->squashed = true;
        ++statWrongPathInsts;
    }
    t.rmb.clear();

    storeSets.squashThread(tid);

    t.fetchPc = restart_pc;
    t.fetchStallUntil = now + 1 + _params.branch_mispredict_extra;
    t.fetchStallReason = FetchStall::Redirect;
    t.fetchHalted = false;
    return oldest_ctl;
}

void
SmtCpu::flushAllInflight(ThreadId tid, bool drop_retired_stores)
{
    ThreadState &t = threads[tid];
    while (!t.rob.empty()) {
        DynInstPtr inst = t.rob.back();
        t.rob.pop_back();
        --robOccupancy;
        inst->squashed = true;
        if (inst->inIq) {
            inst->inIq = false;
            iq.remove(inst->iqSlot);
            --iqHalfOcc[inst->iqHalf];
            --iqOccByThread[tid];
        }
        if (inst->pdst != invalidPhysReg) {
            t.renameMap[inst->si.rd] = inst->prevDst;
            freePhysReg(inst->pdst);
            --physInUse[tid];
        }
    }
    for (auto &inst : t.rmb)
        inst->squashed = true;
    t.rmb.clear();

    if (drop_retired_stores) {
        // Recovery rollback: even committed stores are being undone.
        t.sq.clear();
    } else {
        // Interrupt/iret redirect: retired stores stay for
        // verification and release; only speculative entries go.
        t.sq.erase_if([](const DynInstPtr &e) {
            return e->squashed && !e->retired;
        });
    }
    t.lq.erase_if([](const DynInstPtr &ld) { return ld->squashed; });
    storeSets.squashThread(tid);
}

void
SmtCpu::recoverThread(ThreadId tid, const RecoveryCheckpoint &ckpt)
{
    ThreadState &t = threads[tid];
    if (t.ref)
        fatal("fault recovery is incompatible with co-simulation");
    if (!t.active)
        return;

    flushAllInflight(tid, /*drop_retired_stores=*/true);

    // Restore the committed architectural register file through the
    // (now commit-only) rename map.
    for (unsigned r = 1; r < numArchRegs; ++r) {
        const PhysRegIndex p = t.renameMap[r];
        writePhys(p, ckpt.regs[r]);
        if (p != invalidPhysReg) {
            readyAt[p] = now;
            iq.wakeReg(p);
        }
    }
    t.archRegs = ckpt.regs;

    t.committed = ckpt.committed;
    t.statCommitted->set(ckpt.committed);
    t.done = t.target != 0 && t.committed >= t.target;
    t.halted = false;
    t.fetchHalted = false;
    t.fetchPc = ckpt.next_pc;
    t.fetchStallUntil = now + 8;    // restart penalty
    t.fetchStallReason = FetchStall::Redirect;
    t.haveExpectedPc = false;
    noteCommitProgress();
}

} // namespace rmt
