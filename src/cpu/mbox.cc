/**
 * @file
 * MBOX: loads, stores, the load/store queues, store-load forwarding,
 * order-violation detection, the merge buffer, and the SRT hooks —
 * trailing loads via the LVQ (Section 4.1) and leading-store
 * verification via the store comparator (Section 4.2).
 */

#include "cpu/smt_cpu.hh"

#include "common/bits.hh"
#include "common/logging.hh"

namespace rmt
{

namespace
{

/** [a, a+as) overlaps [b, b+bs)? */
bool
overlaps(Addr a, unsigned as, Addr b, unsigned bs)
{
    return a < b + bs && b < a + as;
}

/** Does the store [sa, sa+ss) fully cover the load [la, la+ls)? */
bool
covers(Addr sa, unsigned ss, Addr la, unsigned ls)
{
    return sa <= la && la + ls <= sa + ss;
}

std::uint64_t
sizeMask(unsigned bytes)
{
    return bytes >= 8 ? ~std::uint64_t{0}
                      : (std::uint64_t{1} << (8 * bytes)) - 1;
}

} // namespace

void
SmtCpu::memAgen(const DynInstPtr &inst)
{
    ThreadState &t = threads[inst->tid];
    if (inst->isLoad()) {
        if (t.role == Role::Trailing)
            trailingLoadAgen(inst);
        else
            loadAgen(inst);
    } else {
        storeAgen(inst);
    }
}

void
SmtCpu::loadAgen(const DynInstPtr &inst)
{
    ThreadState &t = threads[inst->tid];
    const unsigned size = inst->si.memSize();
    inst->effAddr = effectiveAddr(inst->si, readPhys(inst->psrc1));
    inst->addrReady = true;

    // Probe the store queue: the youngest older store with a known,
    // overlapping address governs this load.
    for (auto it = t.sq.rbegin(); it != t.sq.rend(); ++it) {
        const DynInstPtr &st = *it;
        if (st->seq >= inst->seq)
            continue;
        if (!st->addrReady)
            continue;   // unknown address: speculate past it
        if (!overlaps(st->effAddr, st->si.memSize(), inst->effAddr, size))
            continue;

        if (covers(st->effAddr, st->si.memSize(), inst->effAddr, size)) {
            if (st->dataReady) {
                const unsigned shift =
                    static_cast<unsigned>(inst->effAddr - st->effAddr) * 8;
                const std::uint64_t value =
                    (st->storeData >> shift) & sizeMask(size);
                schedule(now + _params.mbox_latency, EvKind::LoadDone,
                         inst, value);
                return;
            }
            // Data not in the SQ yet: retry once it arrives.
            waitingLoads.push_back(inst);
            return;
        }

        // Partial overlap: the base design flushes the store so the
        // load can read the merged value from the cache (Section 4.4).
        // For a leading thread that flush needs the trailing store, so
        // force LPQ chunk termination.
        if (t.role == Role::Leading && t.pair)
            t.pair->flushAggregation(now);
        waitingLoads.push_back(inst);
        return;
    }

    // No forwarding: access the D-cache (and memory system on a miss).
    bool hit = false;
    const Cycle ready =
        memSystem.access(l1d, physMemAddr(t, inst->effAddr), now, hit);
    inst->waitReason =
        hit ? StallCause::ExecLatency : StallCause::DcacheMiss;
    const std::uint64_t value = t.mem->read(inst->effAddr, size);
    schedule(std::max(ready, now) + _params.mbox_latency, EvKind::LoadDone,
             inst, value);
}

void
SmtCpu::trailingLoadAgen(const DynInstPtr &inst)
{
    // Trailing loads bypass the load queue, the store queue, and the
    // data cache entirely: the LVQ replicates the leading thread's
    // load inputs (Section 4.1).
    ThreadState &t = threads[inst->tid];
    inst->effAddr = effectiveAddr(inst->si, readPhys(inst->psrc1));
    inst->addrReady = true;

    std::uint64_t data = 0;
    switch (t.pair->lvq.lookup(inst->loadTag, inst->effAddr, now, data)) {
      case Lvq::Lookup::NotPresent:
        // The leading copy has not produced this load's value yet.
        inst->waitReason = StallCause::LvqEmpty;
        waitingLoads.push_back(inst);
        return;
      case Lvq::Lookup::AddrMismatch:
        t.pair->recordDetection(DetectionKind::LvqAddrMismatch, now);
        [[fallthrough]];
      case Lvq::Lookup::Hit:
        inst->waitReason = StallCause::ExecLatency;
        schedule(now + _params.mbox_latency, EvKind::LoadDone, inst, data);
        return;
    }
}

void
SmtCpu::finishLoad(const DynInstPtr &inst, std::uint64_t value)
{
    inst->result = value;
    writePhys(inst->pdst, value);
    if (inst->pdst != invalidPhysReg) {
        readyAt[inst->pdst] = now;
        iq.wakeReg(inst->pdst);
    }
    inst->executed = true;
    inst->completed = true;
    inst->completeCycle = now;
}

void
SmtCpu::storeAgen(const DynInstPtr &inst)
{
    ThreadState &t = threads[inst->tid];
    inst->effAddr = effectiveAddr(inst->si, readPhys(inst->psrc1));
    inst->addrReady = true;

    if (t.role != Role::Trailing)
        checkOrderViolation(inst);

    // Store data reaches the queue two cycles after the address
    // (Section 3.4).
    schedule(now + _params.store_data_delay, EvKind::StoreData, inst);
}

void
SmtCpu::storeDataArrive(const DynInstPtr &inst)
{
    ThreadState &t = threads[inst->tid];
    const unsigned size = inst->si.memSize();
    inst->storeData = readPhys(inst->psrc2) & sizeMask(size);
    inst->dataReady = true;
    inst->executed = true;
    inst->completed = true;
    inst->completeCycle = now;
    // Address and data are both in the queue now: release any load
    // that store sets told to wait for this store.
    iq.wakeStore(inst.get());

    if (t.role == Role::Trailing) {
        if (_params.srt_store_comparison) {
            const auto &pp = t.pair->params();
            t.pair->comparator.pushTrailing(
                inst->storeIdx, inst->effAddr, inst->storeData, size,
                now + pp.forward_latency_lvq + pp.cross_core_latency);
        }
    } else {
        storeSets.storeCompleted(inst->tid, inst->pc, inst->seq);
    }
}

void
SmtCpu::checkOrderViolation(const DynInstPtr &store)
{
    ThreadState &t = threads[store->tid];
    const unsigned ssize = store->si.memSize();

    DynInstPtr victim;
    for (const auto &ld : t.lq) {
        if (ld->seq <= store->seq || ld->squashed || !ld->addrReady)
            continue;
        if (!overlaps(store->effAddr, ssize, ld->effAddr,
                      ld->si.memSize())) {
            continue;
        }
        if (!victim || ld->seq < victim->seq)
            victim = ld;
    }
    if (!victim)
        return;

    ++statMemOrderViolations;
    storeSets.recordViolation(store->tid, victim->pc, store->pc);
    const DynInstPtr oldest_ctl = squashThread(
        store->tid, victim->seq - 1, victim->pc, "memory order violation");
    if (oldest_ctl) {
        bpred.restoreHistory(store->tid, oldest_ctl->histSnap);
        ras[store->tid].restore(oldest_ctl->rasSnap);
    }
}

void
SmtCpu::retryWaitingLoads()
{
    if (waitingLoads.empty())
        return;
    // Loads that wait again land in the (now empty) waitingLoads.
    retryLoads.swap(waitingLoads);
    for (auto &inst : retryLoads) {
        if (inst->squashed || inst->completed)
            continue;
        ThreadState &t = threads[inst->tid];
        if (t.role == Role::Trailing)
            trailingLoadAgen(inst);
        else
            loadAgen(inst);
    }
    retryLoads.clear();
}

void
SmtCpu::verifyLeadingStores()
{
    if (!_params.srt_store_comparison)
        return;
    for (auto &t : threads) {
        if (!t.active || t.role != Role::Leading)
            continue;
        if (t.sq.empty())
            continue;
        RedundantPair &pair = *t.pair;
        if (pair.comparator.pendingTrailing() == 0)
            continue;   // no trailing stores to match against yet
        for (const DynInstPtr &st : t.sq) {
            if (st->sqVerified)
                continue;
            if (!st->retired || !st->addrReady || !st->dataReady)
                break;  // comparator matches in store order
            bool mismatch = false;
            if (!pair.comparator.tryVerify(st->storeIdx, st->effAddr,
                                           st->storeData,
                                           st->si.memSize(), now,
                                           mismatch)) {
                break;  // corresponding trailing store not here yet
            }
            st->sqVerified = true;
            if (mismatch) {
                pair.recordDetection(DetectionKind::StoreMismatch, now);
            } else if (pair.recovery) {
                pair.recovery->noteVerified(st->storeIdx);
            }
        }
    }
}

void
SmtCpu::releaseStores()
{
    for (auto &t : threads) {
        if (!t.active || t.role == Role::Trailing)
            continue;
        unsigned releases = 0;
        while (!t.sq.empty() && releases < _params.max_stores_per_cycle) {
            const DynInstPtr &entry = t.sq.front();
            if (entry->squashed) {
                t.sq.pop_front();
                continue;
            }
            if (!entry->retired)
                break;
            if (t.role == Role::Leading && _params.srt_store_comparison &&
                !entry->sqVerified) {
                break;
            }
            // Lockstep: the store release path runs through the central
            // checker (Section 6.3).
            if (now < entry->sqRetireCycle + _params.store_checker_penalty)
                break;
            const Addr paddr = physMemAddr(t, entry->effAddr);
            if (!mergeBuf.canAccept(paddr)) {
                mergeBuf.noteFullReject();
                break;
            }
            mergeBuf.accept(paddr, now);
            if (t.mergeStrike) {
                // The functional write already happened at commit; a
                // merge-buffer strike re-corrupts the coalescing copy
                // of this store's bytes after the comparator is done
                // with them.  ECC catches it; without ECC the flip
                // reaches memory unobserved.
                t.mergeStrike = false;
                if (_params.merge_buffer_ecc) {
                    ++statMergeEccCorrected;
                } else {
                    const unsigned size = entry->si.memSize();
                    const unsigned b = t.mergeStrikeBit % (8 * size);
                    const std::uint64_t data =
                        t.mem->read(entry->effAddr, size);
                    t.mem->write(entry->effAddr, size, flipBit(data, b));
                    ++statMergeCorruptions;
                }
            }
            t.storeLifetime->sample(
                static_cast<double>(now - entry->sqAllocCycle));
            t.storeLifetimeHist->sample(
                static_cast<double>(now - entry->sqAllocCycle));
            t.sq.pop_front();
            ++releases;
        }
    }
}

bool
SmtCpu::commitUncached(ThreadState &t, const DynInstPtr &inst)
{
    const StaticInst &si = inst->si;
    if (!inst->addrReady) {
        inst->effAddr = effectiveAddr(si, readPhys(inst->psrc1));
        inst->addrReady = true;
    }
    const unsigned latency = device ? device->accessLatency() : 1;

    if (si.isUncachedLoad()) {
        std::uint64_t value = 0;
        if (t.role == Role::Trailing) {
            // Input replication: take the leading thread's device value
            // (the register is volatile; a second read would differ).
            if (!t.pair->uncachedLoadAvailable(now))
                return false;
            value = t.pair->popUncachedLoad();
        } else {
            // Device ordering: this thread's unverified uncached stores
            // must reach the device before a newer read.
            if (t.role == Role::Leading && t.pair &&
                !t.pair->uncachedLeadStores.empty()) {
                return false;
            }
            if (!inst->issued) {
                inst->issued = true;
                inst->issueCycle = now + latency;
            }
            if (now < inst->issueCycle)
                return false;
            value = device ? device->read(inst->effAddr) : 0;
            if (t.role == Role::Leading && t.pair)
                t.pair->pushUncachedLoad(value, now);
        }
        inst->result = value;
        writePhys(inst->pdst, value);
        if (inst->pdst != invalidPhysReg) {
            readyAt[inst->pdst] = now;
            iq.wakeReg(inst->pdst);
        }
        inst->executed = true;
        inst->completed = true;
        inst->completeCycle = now;
        return true;
    }

    // Uncached store: compare before performing, perform exactly once.
    const std::uint64_t data = readPhys(inst->psrc2);
    inst->storeData = data;
    inst->dataReady = true;
    if (t.role == Role::Trailing) {
        t.pair->pushUncachedStore(false, inst->effAddr, data, now);
    } else if (t.role == Role::Leading) {
        // Held in the uncached store buffer until the trailing copy
        // arrives; verification and the single device write happen in
        // verifyUncachedStores().
        t.pair->pushUncachedStore(true, inst->effAddr, data, now);
    } else {
        if (!inst->issued) {
            inst->issued = true;
            inst->issueCycle = now + latency;
        }
        if (now < inst->issueCycle)
            return false;
        if (device)
            device->write(inst->effAddr, data);
    }
    inst->executed = true;
    inst->completed = true;
    inst->completeCycle = now;
    return true;
}

void
SmtCpu::verifyUncachedStores()
{
    for (auto &t : threads) {
        if (!t.active || t.role != Role::Leading)
            continue;
        RedundantPair &pair = *t.pair;
        while (!pair.uncachedLeadStores.empty() &&
               !pair.uncachedTrailStores.empty()) {
            const auto &lead = pair.uncachedLeadStores.front();
            const auto &trail = pair.uncachedTrailStores.front();
            if (now < lead.availableAt || now < trail.availableAt)
                break;
            if (lead.addr != trail.addr || lead.data != trail.data)
                pair.recordDetection(DetectionKind::StoreMismatch, now);
            if (device)
                device->write(lead.addr, lead.data);
            pair.uncachedLeadStores.pop_front();
            pair.uncachedTrailStores.pop_front();
        }
    }
}

void
SmtCpu::drainMergeBuffer()
{
    Addr block = 0;
    while (mergeBuf.drain(now, block)) {
        bool hit = false;
        memSystem.access(l1d, block, now, hit);
        memSystem.writeback(block);
    }
}

} // namespace rmt
