#include "cpu/smt_cpu.hh"

#include <cstdlib>
#include <ostream>

#include "common/bits.hh"
#include "common/logging.hh"

namespace rmt
{

SmtCpu::SmtCpu(const SmtParams &params, MemSystem &mem_system,
               CoreId core_id)
    : _params(params),
      memSystem(mem_system),
      core(core_id),
      threads(params.num_threads),
      physRegs(params.phys_regs, 0),
      readyAt(params.phys_regs, notReady),
      physInUse(params.num_threads, 0),
      iq(params.iq_entries, params.phys_regs),
      l1i(params.icache),
      l1d(params.dcache),
      mergeBuf(params.merge_buffer),
      bpred(params.bpred),
      linePred(params.linepred),
      indirect(1024),
      storeSets(params.store_sets),
      statGroup(params.name),
      statCycles(statGroup, "cycles", "cycles simulated"),
      statFetched(statGroup, "fetched", "instructions fetched"),
      statCommittedTotal(statGroup, "committed",
                         "instructions committed (all threads)"),
      statSquashes(statGroup, "squashes", "pipeline squashes"),
      statBranchMispredicts(statGroup, "branch_mispredicts",
                            "resolved branch mispredictions"),
      statLineMispredicts(statGroup, "line_mispredicts",
                          "line predictions overturned at fetch"),
      statMemOrderViolations(statGroup, "mem_order_violations",
                             "load-store order violations"),
      statSqFullStalls(statGroup, "sq_full_stalls",
                       "dispatch stalls: store queue full"),
      statIqFullStalls(statGroup, "iq_full_stalls",
                       "dispatch stalls: instruction queue full"),
      statRobFullStalls(statGroup, "rob_full_stalls",
                        "dispatch stalls: reorder buffer full"),
      statLqFullStalls(statGroup, "lq_full_stalls",
                       "dispatch stalls: load queue full"),
      statDispatched(statGroup, "dispatched",
                     "instructions renamed and dispatched"),
      statIssued(statGroup, "issued", "instructions issued to FUs"),
      statLvqFullStalls(statGroup, "lvq_full_stalls",
                        "leading retire stalls: LVQ full"),
      statLpqFullStalls(statGroup, "lpq_full_stalls",
                        "leading retire stalls: LPQ full"),
      statIcacheMissStalls(statGroup, "icache_miss_stalls",
                           "fetch stall cycles from I-cache misses"),
      statWrongPathInsts(statGroup, "wrong_path_insts",
                         "squashed (wrong-path) instructions"),
      statFetchSrcLead(statGroup, "fetch_src_lead",
                       "instructions fetched predictor-driven "
                       "(leading/single threads)"),
      statFetchSrcLpq(statGroup, "fetch_src_lpq",
                      "instructions fetched from the LPQ chunk stream"),
      statFetchSrcBoq(statGroup, "fetch_src_boq",
                      "instructions fetched on the BOQ/shared-LP "
                      "trailing front end"),
      statMergeEccCorrected(statGroup, "merge_ecc_corrected",
                            "merge-buffer strikes corrected by ECC"),
      statMergeCorruptions(statGroup, "merge_corruptions",
                           "merge-buffer strikes written to memory")
{
    if (params.num_threads == 0 || params.num_threads > 4)
        fatal("SmtCpu supports 1-4 hardware threads");

    // Commit-slot attribution: one counter per taxonomy cause, in enum
    // order.  Conservation (sum == cycles * issue_width) is enforced by
    // construction in commit() and asserted by tests and check.sh.
    for (std::size_t i = 0; i < numStallCauses; ++i) {
        const auto cause = static_cast<StallCause>(i);
        statSlots[i] = std::make_unique<Counter>(
            statGroup, std::string("slots_") + stallCauseName(cause),
            std::string("commit slots charged: ") + stallCauseName(cause));
    }

    lpDebug = std::getenv("RMT_LP_DEBUG") != nullptr;
    divDebug = std::getenv("RMT_DIV_DEBUG") != nullptr;

    for (auto &thread : threads) {
        thread.storeLifetime = std::make_unique<Average>(
            statGroup, "store_lifetime_t" +
                std::to_string(&thread - threads.data()),
            "cycles a store occupies its SQ entry");
        // Distribution behind the mean (paper Figure 8): 16 buckets of
        // 8 cycles, long-lifetime tail in the overflow bucket.
        thread.storeLifetimeHist = std::make_unique<Histogram>(
            statGroup, "store_lifetime_hist_t" +
                std::to_string(&thread - threads.data()),
            "distribution of store SQ-entry lifetimes", 16, 8.0);
        thread.statCommitted = std::make_unique<Counter>(
            statGroup, "committed_t" +
                std::to_string(&thread - threads.data()),
            "instructions committed by this thread");
    }

    for (unsigned t = 0; t < params.num_threads; ++t)
        ras.emplace_back(params.ras_entries);

    // Physical register 0 is the architectural zero: always ready.
    physRegs[0] = 0;
    readyAt[0] = 0;
    for (PhysRegIndex p = static_cast<PhysRegIndex>(params.phys_regs - 1);
         p >= 1; --p) {
        freeList.push_back(p);
    }
}

void
SmtCpu::addThread(ThreadId tid, const Program &program, DataMemory &memory,
                  LogicalId logical, Role role, RedundantPair *pair)
{
    if (tid >= threads.size())
        fatal("addThread: tid %u out of range", tid);
    ThreadState &t = threads[tid];
    if (t.active)
        fatal("addThread: tid %u already active", tid);

    t.active = true;
    t.program = &program;
    t.mem = &memory;
    t.logical = logical;
    t.role = role;
    t.pair = pair;
    t.fetchPc = program.entry();
    t.nextCommitPc = program.entry();
    t.startCycle = now;

    // Queue rings sized from the machine: the ROB can hold the whole
    // completion unit, the LQ and SQ a thread's largest quota.
    t.rmb.reserve(_params.rmb_chunks * chunkSize);
    t.rob.reserve(_params.rob_entries);
    t.lq.reserve(_params.load_queue_entries);
    t.sq.reserve(_params.store_queue_entries);

    if ((role == Role::Leading || role == Role::Trailing) && !pair)
        fatal("addThread: redundant role without a pair");

    // Map arch registers onto physical registers: int r0 shares the
    // constant-zero physical register.
    for (unsigned r = 0; r < numArchRegs; ++r) {
        if (r == 0) {
            t.renameMap[r] = 0;
            continue;
        }
        t.renameMap[r] = allocPhysReg();
        ++physInUse[tid];
        physRegs[t.renameMap[r]] = 0;
        readyAt[t.renameMap[r]] = 0;
    }

    if (_params.cosim) {
        t.refMem = std::make_unique<DataMemory>(memory.size());
        DataMemory &ref = *t.refMem;
        memory.forEachTouchedPage(
            [&ref](std::size_t p, std::span<const std::uint8_t> bytes) {
                ref.fill(p * DataMemory::pageBytes, bytes.data(),
                         bytes.size());
            });
        t.ref = std::make_unique<ArchState>(program, *t.refMem);
    }

    computeQueueQuotas();
}

void
SmtCpu::computeQueueQuotas()
{
    // Static partitioning (paper Section 3.4): the LQ is divided among
    // the threads that use it (trailing threads bypass it, so their
    // share accrues to the others, Section 4.1).  The SQ is divided
    // among all active threads unless per-thread store queues are
    // enabled (Section 4.2).
    unsigned lq_users = 0;
    unsigned sq_users = 0;
    for (const auto &t : threads) {
        if (!t.active)
            continue;
        ++sq_users;
        if (usesLoadQueue(t))
            ++lq_users;
    }
    for (auto &t : threads) {
        if (!t.active)
            continue;
        if (_params.dynamic_lsq_partition) {
            // Shared pools: per-thread limits come from the global
            // occupancy check at dispatch, with small reservations.
            t.lqQuota = usesLoadQueue(t) ? _params.load_queue_entries : 0;
            t.sqQuota = _params.store_queue_entries;
            continue;
        }
        t.lqQuota = usesLoadQueue(t) && lq_users
                        ? _params.load_queue_entries / lq_users
                        : 0;
        t.sqQuota = _params.per_thread_store_queues
                        ? _params.store_queue_entries
                        : _params.store_queue_entries / sq_users;
    }
}

void
SmtCpu::scheduleInterrupt(ThreadId tid, Cycle when, Addr vector)
{
    if (tid >= threads.size() || !threads[tid].active)
        fatal("scheduleInterrupt: invalid thread %u", tid);
    if (threads[tid].role == Role::Trailing)
        fatal("interrupts are inputs: deliver them to the leading copy");
    threads[tid].pendingInterrupts.push_back({when, vector});
}

void
SmtCpu::setTarget(ThreadId tid, std::uint64_t insts, std::uint64_t warmup)
{
    threads[tid].target = insts;
    threads[tid].measureSkip = std::min(warmup, insts);
}

StallSlots
SmtCpu::attributionSlots() const
{
    StallSlots out;
    for (std::size_t i = 0; i < numStallCauses; ++i)
        out.slots[i] = statSlots[i]->value();
    return out;
}

bool
SmtCpu::threadDone(ThreadId tid) const
{
    const ThreadState &t = threads[tid];
    if (!t.active)
        return true;
    return t.done || t.halted;
}

bool
SmtCpu::allThreadsDone() const
{
    for (unsigned tid = 0; tid < threads.size(); ++tid) {
        if (!threadDone(static_cast<ThreadId>(tid)))
            return false;
    }
    return true;
}

Cycle
SmtCpu::threadCycles(ThreadId tid) const
{
    const ThreadState &t = threads[tid];
    const Cycle end = (t.done || t.halted) ? t.finishCycle : now;
    return end > t.startCycle ? end - t.startCycle : 0;
}

double
SmtCpu::ipc(ThreadId tid) const
{
    const ThreadState &t = threads[tid];
    const Cycle cycles = threadCycles(tid);
    std::uint64_t insts =
        std::min(t.committed, t.target ? t.target : t.committed);
    insts -= std::min(insts, t.measureSkip);
    return cycles ? static_cast<double>(insts) / cycles : 0.0;
}

void
SmtCpu::tick()
{
    ++now;
    ++statCycles;

    if (faults)
        faults->tick(*this, now);
    storeSets.tick(now);

    // Back to front so a value produced this cycle wakes consumers for
    // next cycle's select, and newly fetched work can't skip stages.
    commit();
    processEvents();
    verifyLeadingStores();
    verifyUncachedStores();
    releaseStores();
    drainMergeBuffer();
    retryWaitingLoads();
    issue();
    renameDispatch();
    fetch();

    // Idle-flush partial LPQ chunks (deadlock avoidance, Section 4.3/4.4).
    for (auto &t : threads) {
        if (t.active && t.role == Role::Leading && t.pair)
            t.pair->idleFlush(now);
    }

    checkDeadlock();
}

void
SmtCpu::checkDeadlock()
{
    bool any_running = false;
    for (unsigned tid = 0; tid < threads.size(); ++tid) {
        if (threads[tid].active && !threadDone(static_cast<ThreadId>(tid)))
            any_running = true;
    }
    if (!any_running) {
        lastCommitCycle = now;
        return;
    }
    if (now - lastCommitCycle > _params.deadlock_cycles) {
        panic("core %u: no instruction committed for %llu cycles "
              "(deadlock)", core,
              static_cast<unsigned long long>(_params.deadlock_cycles));
    }
}

void
SmtCpu::schedule(Cycle when, EvKind kind, const DynInstPtr &inst,
                 std::uint64_t payload)
{
    if (when <= now)
        when = now + 1;
    calendar.schedule(when, Event{kind, inst, payload});
}

std::uint64_t
SmtCpu::readPhys(PhysRegIndex idx) const
{
    if (idx == invalidPhysReg)
        return 0;
    return physRegs[idx];
}

void
SmtCpu::writePhys(PhysRegIndex idx, std::uint64_t value)
{
    if (idx == invalidPhysReg || idx == 0)
        return;
    physRegs[idx] = value;
}

PhysRegIndex
SmtCpu::allocPhysReg()
{
    if (freeList.empty())
        panic("physical register underflow: caller must check "
              "physRegsAvailable()");
    const PhysRegIndex p = freeList.back();
    freeList.pop_back();
    readyAt[p] = notReady;
    return p;
}

void
SmtCpu::freePhysReg(PhysRegIndex idx)
{
    if (idx == invalidPhysReg || idx == 0)
        return;
    readyAt[idx] = notReady;
    freeList.push_back(idx);
}

bool
SmtCpu::physRegsAvailable(ThreadId tid) const
{
    // Deadlock avoidance: every other active thread keeps a reserved
    // slice of the free pool so a stalled consumer cannot starve the
    // producer it depends on (Section 4.3).
    unsigned reserve = 0;
    for (unsigned t = 0; t < threads.size(); ++t) {
        if (t != tid && threads[t].active)
            reserve += _params.regs_reserved_per_thread;
    }
    return freeList.size() > reserve;
}

unsigned
SmtCpu::fuPoolSize(FuClass cls) const
{
    switch (cls) {
      case FuClass::IntAlu: return _params.int_units_per_half;
      case FuClass::Logic: return _params.logic_units_per_half;
      case FuClass::Mem: return _params.mem_units_per_half;
      case FuClass::Fp: return _params.fp_units_per_half;
      default: return 1;
    }
}

void
SmtCpu::injectRegBitFlip(ThreadId tid, RegIndex reg, unsigned bit)
{
    ThreadState &t = threads[tid];
    if (!t.active || reg == noReg || reg == 0)
        return;
    const PhysRegIndex p = t.renameMap[reg];
    if (p == invalidPhysReg || p == 0)
        return;
    physRegs[p] = flipBit(physRegs[p], bit);
}

bool
SmtCpu::injectSqBitFlip(ThreadId tid, unsigned bit, bool address)
{
    ThreadState &t = threads[tid];
    if (!t.active)
        return false;
    for (auto &entry : t.sq) {
        if (entry->squashed || entry->retired)
            continue;
        if (address) {
            if (!entry->addrReady)
                continue;
            entry->effAddr = flipBit(entry->effAddr, bit);
        } else {
            if (!entry->dataReady)
                continue;
            const unsigned width = 8 * entry->si.memSize();
            entry->storeData = flipBit(entry->storeData, bit % width);
        }
        return true;
    }
    return false;
}

bool
SmtCpu::injectPcBitFlip(ThreadId tid, unsigned bit)
{
    ThreadState &t = threads[tid];
    if (!t.active || t.fetchHalted)
        return false;
    t.fetchPc = flipBit(t.fetchPc, bit);
    return true;
}

bool
SmtCpu::armDecodeStrike(ThreadId tid, unsigned bit)
{
    ThreadState &t = threads[tid];
    if (!t.active || t.fetchHalted)
        return false;
    t.decodeStrike = true;
    t.decodeStrikeBit = bit;
    return true;
}

bool
SmtCpu::armMergeStrike(ThreadId tid, unsigned bit)
{
    ThreadState &t = threads[tid];
    if (!t.active)
        return false;
    t.mergeStrike = true;
    t.mergeStrikeBit = bit;
    return true;
}

void
SmtCpu::traceCommit(const ThreadState &t, const DynInstPtr &inst)
{
    if (traceBudget && traceLines >= traceBudget)
        return;
    ++traceLines;
    const auto tid = static_cast<unsigned>(&t - threads.data());
    std::ostream &os = *traceOut;
    os << now << " c" << unsigned(core) << " t" << tid << " 0x"
       << std::hex << inst->pc << std::dec << " F" << inst->fetchCycle
       << " D" << inst->dispatchCycle;
    if (inst->issued)
        os << " I" << inst->issueCycle;
    os << " C" << inst->completeCycle << " R" << now << "  "
       << inst->si.disassemble();
    if (inst->si.rd != noReg)
        os << " = 0x" << std::hex << inst->result << std::dec;
    if (inst->si.isStore()) {
        os << " [0x" << std::hex << inst->effAddr << "]=0x"
           << inst->storeData << std::dec;
    }
    os << "\n";
}

void
SmtCpu::debugDump(std::ostream &os) const
{
    os << "=== core " << unsigned(core) << " cycle " << now << " ===\n";
    os << "iq occ " << iqHalfOcc[0] << "/" << iqHalfOcc[1]
       << " free-regs " << freeList.size() << " waiting-loads "
       << waitingLoads.size() << " calendar " << calendar.size() << "\n";
    for (unsigned tid = 0; tid < threads.size(); ++tid) {
        const ThreadState &t = threads[tid];
        if (!t.active)
            continue;
        os << " t" << tid << " role " << static_cast<int>(t.role)
           << " committed " << t.committed << " rob " << t.rob.size()
           << " rmb " << t.rmb.size() << " lq " << t.lq.size() << "/"
           << t.lqQuota << " sq " << t.sq.size() << "/" << t.sqQuota
           << " fetchPc 0x" << std::hex << t.fetchPc << std::dec
           << " stallUntil " << t.fetchStallUntil
           << (t.fetchHalted ? " FETCH-HALTED" : "")
           << (t.halted ? " HALTED" : "") << "\n";
        if (!t.rob.empty()) {
            const DynInstPtr &h = t.rob.front();
            os << "   rob-head seq " << h->seq << " pc 0x" << std::hex
               << h->pc << std::dec << " " << h->si.disassemble()
               << (h->inIq ? " inIQ" : "") << (h->issued ? " issued" : "")
               << (h->executed ? " exec" : "")
               << (h->completed ? " done" : "")
               << (h->squashed ? " SQUASHED" : "") << "\n";
        }
        if (!t.sq.empty()) {
            const DynInstPtr &e = t.sq.front();
            os << "   sq-head seq " << e->seq
               << (e->retired ? " retired" : "")
               << (e->sqVerified ? " verified" : "")
               << (e->addrReady ? " addr" : "")
               << (e->dataReady ? " data" : "") << "\n";
        }
        if (t.pair) {
            os << "   pair lpq " << t.pair->lpq.size() << " unread "
               << t.pair->lpq.unread() << " lvq " << t.pair->lvq.size()
               << " cmp-pending " << t.pair->comparator.pendingTrailing()
               << " aggEmpty " << t.pair->aggregationEmpty() << "\n";
        }
    }
}

void
SmtCpu::dumpStats(std::ostream &os)
{
    forEachStatGroup(
        [&os](const std::string &, StatGroup &g) { g.dump(os); });
}

void
SmtCpu::forEachStatGroup(
    const std::function<void(const std::string &, StatGroup &)> &fn)
{
    fn("", statGroup);
    fn("l1i", l1i.stats());
    fn("l1d", l1d.stats());
    fn("mergebuf", mergeBuf.stats());
    fn("bpred", bpred.stats());
    fn("linepred", linePred.stats());
    fn("storesets", storeSets.stats());
}

bool
SmtCpu::drainedForSnapshot() const
{
    if (robOccupancy != 0 || !iq.empty() || !calendar.empty() ||
        !waitingLoads.empty()) {
        return false;
    }
    for (const ThreadState &t : threads) {
        if (!t.active)
            continue;
        if (!t.rmb.empty() || !t.rob.empty() || !t.lq.empty() ||
            !t.sq.empty()) {
            return false;
        }
    }
    return true;
}

bool
SmtCpu::mappedRegsCommitted() const
{
    for (const ThreadState &t : threads) {
        if (!t.active)
            continue;
        const std::uint64_t reads = t.program->readMask();
        for (unsigned r = 0; r < numArchRegs; ++r) {
            const PhysRegIndex p = t.renameMap[r];
            if (((reads >> r) & 1) && p != invalidPhysReg &&
                physRegs[p] != t.archRegs[r])
                return false;
        }
    }
    return true;
}

void
SmtCpu::saveState(Serializer &s) const
{
    s.u64(now);
    s.u32(mapRr);
    s.u32(commitRr);
    s.u32(fetchRr);
    s.u64(lastCommitCycle);

    s.u32(static_cast<std::uint32_t>(threads.size()));
    for (const ThreadState &t : threads) {
        s.boolean(t.active);
        if (!t.active)
            continue;
        s.u64(t.fetchPc);
        s.u64(t.fetchStallUntil);
        s.u32(static_cast<std::uint32_t>(t.fetchStallReason));
        s.boolean(t.fetchHalted);
        s.u64(t.nextSeq);
        for (unsigned r = 0; r < numArchRegs; ++r)
            s.u64(t.archRegs[r]);
        s.u64(t.committed);
        s.u64(t.target);
        s.u64(t.measureSkip);
        s.u64(t.startCycle);
        s.u64(t.finishCycle);
        s.boolean(t.done);
        s.boolean(t.halted);
        s.boolean(t.haveExpectedPc);
        s.u64(t.expectedPc);
        s.u64(t.intReturnPc);
        s.u64(t.nextCommitPc);
        s.boolean(t.decodeStrike);
        s.u32(t.decodeStrikeBit);
        s.boolean(t.mergeStrike);
        s.u32(t.mergeStrikeBit);
        s.u32(static_cast<std::uint32_t>(t.pendingInterrupts.size()));
        for (const ThreadState::PendingInterrupt &pi : t.pendingInterrupts) {
            s.u64(pi.when);
            s.u64(pi.vector);
        }
    }

    l1i.saveState(s);
    l1d.saveState(s);
    mergeBuf.saveState(s);
    bpred.saveState(s);
    linePred.saveState(s);
    indirect.saveState(s);
    storeSets.saveState(s);
    s.u32(static_cast<std::uint32_t>(ras.size()));
    for (const ReturnAddressStack &r : ras)
        r.saveState(s);
}

void
SmtCpu::loadState(Deserializer &d)
{
    if (!drainedForSnapshot())
        throw SnapshotError("core: restore target is not quiesced");

    now = d.u64();
    mapRr = d.u32();
    commitRr = d.u32();
    fetchRr = d.u32();
    lastCommitCycle = d.u64();

    if (d.u32() != threads.size())
        throw SnapshotError("core: thread count mismatch");
    for (ThreadState &t : threads) {
        if (d.boolean() != t.active)
            throw SnapshotError("core: thread topology mismatch");
        if (!t.active)
            continue;
        t.fetchPc = d.u64();
        t.fetchStallUntil = d.u64();
        t.fetchStallReason = static_cast<FetchStall>(d.u32());
        t.fetchHalted = d.boolean();
        t.nextSeq = d.u64();
        for (unsigned r = 0; r < numArchRegs; ++r) {
            t.archRegs[r] = d.u64();
            // Committed values flow back in through the current rename
            // map, exactly as fault recovery does (recoverThread).
            const PhysRegIndex p = t.renameMap[r];
            writePhys(p, t.archRegs[r]);
            if (p != invalidPhysReg)
                readyAt[p] = now;
        }
        t.committed = d.u64();
        t.target = d.u64();
        t.measureSkip = d.u64();
        t.startCycle = d.u64();
        t.finishCycle = d.u64();
        t.done = d.boolean();
        t.halted = d.boolean();
        t.haveExpectedPc = d.boolean();
        t.expectedPc = d.u64();
        t.intReturnPc = d.u64();
        t.nextCommitPc = d.u64();
        t.decodeStrike = d.boolean();
        t.decodeStrikeBit = d.u32();
        t.mergeStrike = d.boolean();
        t.mergeStrikeBit = d.u32();
        const std::uint32_t n_int = d.u32();
        t.pendingInterrupts.clear();
        for (std::uint32_t i = 0; i < n_int; ++i) {
            ThreadState::PendingInterrupt pi;
            pi.when = d.u64();
            pi.vector = d.u64();
            t.pendingInterrupts.push_back(pi);
        }
    }

    l1i.loadState(d);
    l1d.loadState(d);
    mergeBuf.loadState(d);
    bpred.loadState(d);
    linePred.loadState(d);
    indirect.loadState(d);
    storeSets.loadState(d);
    if (d.u32() != ras.size())
        throw SnapshotError("core: RAS count mismatch");
    for (ReturnAddressStack &r : ras)
        r.loadState(d);
}

} // namespace rmt
