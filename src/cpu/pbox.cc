/**
 * @file
 * PBOX: register rename and dispatch into the QBOX (paper Section 3.2),
 * including per-thread resource reservations for deadlock avoidance
 * (Section 4.3) and the half-assignment policy that preferential space
 * redundancy builds on (Sections 3.3, 4.5).
 */

#include "cpu/smt_cpu.hh"

#include "common/logging.hh"

namespace rmt
{

unsigned
SmtCpu::robFreeFor(ThreadId tid) const
{
    // The completion unit tracks all in-flight instructions; like the
    // IQ, each other active thread keeps a reserved slice (Section 4.3).
    unsigned reserve = 0;
    for (unsigned t = 0; t < threads.size(); ++t) {
        if (t == tid || !threads[t].active)
            continue;
        const unsigned occ =
            static_cast<unsigned>(threads[t].rob.size());
        if (occ < _params.rob_reserved_per_thread)
            reserve += _params.rob_reserved_per_thread - occ;
    }
    if (robOccupancy + reserve >= _params.rob_entries)
        return 0;
    return _params.rob_entries - robOccupancy - reserve;
}

bool
SmtCpu::lsqSpaceFor(ThreadId tid, bool load) const
{
    // Static partitioning (the paper's design) is enforced entirely by
    // the per-thread quotas; the global check below only matters under
    // dynamic partitioning.
    if (!_params.dynamic_lsq_partition)
        return true;
    std::size_t occupied = 0;
    unsigned reserve = 0;
    for (unsigned i = 0; i < threads.size(); ++i) {
        const ThreadState &other = threads[i];
        if (!other.active)
            continue;
        const std::size_t occ =
            load ? other.lq.size() : other.sq.size();
        occupied += occ;
        if (i != tid && occ < _params.lsq_reserved_per_thread &&
            (!load || usesLoadQueue(other))) {
            reserve += _params.lsq_reserved_per_thread -
                       static_cast<unsigned>(occ);
        }
    }
    const unsigned total = load ? _params.load_queue_entries
                                : _params.store_queue_entries;
    return occupied + reserve < total;
}

unsigned
SmtCpu::iqFreeFor(ThreadId tid) const
{
    // Every other active thread keeps one reserved chunk of IQ entries
    // (Section 4.3) so a stalled thread cannot wedge its partner.
    unsigned occupied = iqHalfOcc[0] + iqHalfOcc[1];
    unsigned reserve = 0;
    for (unsigned t = 0; t < threads.size(); ++t) {
        if (t == tid || !threads[t].active)
            continue;
        const unsigned occ = iqOccByThread[t];
        if (occ < _params.iq_reserved_per_thread)
            reserve += _params.iq_reserved_per_thread - occ;
    }
    const unsigned total = _params.iq_entries;
    if (occupied + reserve >= total)
        return 0;
    return total - occupied - reserve;
}

std::uint8_t
SmtCpu::pickHalf(const DynInstPtr &inst, unsigned slot)
{
    const ThreadState &t = threads[inst->tid];
    const unsigned half_cap = _params.iq_entries / 2;

    // Base policy: the position in the fetch chunk selects the half
    // (Section 3.3) — which is why, without PSR, corresponding leading
    // and trailing instructions usually land in the same half (Fig. 7):
    // both copies occupy the same position in equivalent chunks.
    (void)slot;
    const unsigned chunk_pos = (inst->pc / instBytes) % chunkSize;
    std::uint8_t preferred = chunk_pos < chunkSize / 2 ? 0 : 1;

    if (t.role == Role::Trailing &&
        _params.preferential_space_redundancy &&
        _params.trailing_fetch == TrailingFetchMode::LinePredictionQueue) {
        // PSR: issue the trailing copy to the *opposite* half of the
        // queue, guaranteeing distinct IQ entries and functional units.
        preferred = static_cast<std::uint8_t>(1 - inst->leadHalf);
        if (iqHalfOcc[preferred] >= half_cap) {
            preferred = static_cast<std::uint8_t>(1 - preferred);
            t.pair->notePsrForcedSameHalf();
        }
        return preferred;
    }

    if (iqHalfOcc[preferred] >= half_cap)
        preferred = static_cast<std::uint8_t>(1 - preferred);
    return preferred;
}

bool
SmtCpu::dispatchOne(ThreadId tid, DynInstPtr &inst, unsigned slot)
{
    ThreadState &t = threads[tid];
    const StaticInst &si = inst->si;

    if (robFreeFor(tid) == 0) {
        ++statRobFullStalls;
        return false;
    }

    const bool needs_iq = si.fuClass() != FuClass::None &&
                          !si.isMemBar() && !si.isUncached();
    if (needs_iq && iqFreeFor(tid) == 0) {
        ++statIqFullStalls;
        return false;
    }

    const bool needs_dest = si.rd != noReg && si.rd != intReg(0);
    if (needs_dest && !physRegsAvailable(tid))
        return false;

    if (si.isLoad() && usesLoadQueue(t) &&
        (t.lq.size() >= t.lqQuota || !lsqSpaceFor(tid, /*load=*/true))) {
        ++statLqFullStalls;
        return false;
    }
    if (si.isStore() &&
        (t.sq.size() >= t.sqQuota || !lsqSpaceFor(tid, /*load=*/false))) {
        ++statSqFullStalls;
        return false;
    }

    // ------------------------------------------------------ rename
    inst->psrc1 = si.ra != noReg ? t.renameMap[si.ra] : invalidPhysReg;
    inst->psrc2 = si.rb != noReg ? t.renameMap[si.rb] : invalidPhysReg;
    if (needs_dest) {
        inst->prevDst = t.renameMap[si.rd];
        inst->pdst = allocPhysReg();
        ++physInUse[tid];
        t.renameMap[si.rd] = inst->pdst;
    }
    inst->dispatchSlot = static_cast<std::uint8_t>(slot);
    inst->dispatchCycle = now;

    // ---------------------------------------------------- dispatch
    if (needs_iq) {
        inst->iqHalf = pickHalf(inst, slot);
        inst->issuableCycle =
            now + _params.pbox_latency + _params.qbox_front_latency;
        inst->inIq = true;
        ++iqHalfOcc[inst->iqHalf];
        ++iqOccByThread[tid];
    } else if (!si.isUncached()) {
        // Nops, halts, and memory barriers bypass the scheduler; the
        // barrier's ordering effect is enforced at retirement.
        inst->executed = true;
        inst->completed = true;
        inst->completeCycle = now;
    }
    // Uncached accesses also bypass the scheduler but stay incomplete:
    // they perform non-speculatively at the head of the machine.

    // ------------------------------------------------- memory refs
    if (si.isLoad()) {
        // Load correlation tags must follow *committed* program order:
        // the trailing thread is never squashed, so its tags are dense
        // and get assigned here; the leading thread's are assigned at
        // retirement (wrong-path loads must not consume tags).
        if (t.pair && t.role == Role::Trailing)
            inst->loadTag = t.pair->trailLoadTag++;
        if (usesLoadQueue(t)) {
            t.lq.push_back(inst);
            inst->lqIndex = 1;
            const InstSeq dep = storeSets.loadDependence(tid, inst->pc);
            if (dep != StoreSets::noStore) {
                // Resolve the wait target to a pointer once, here, so
                // the issue queue never has to search the store queue.
                // A store that already left the machine simply clears
                // the dependence.
                for (auto it = t.sq.rbegin(); it != t.sq.rend(); ++it) {
                    if ((*it)->seq == dep) {
                        inst->depStore = *it;
                        break;
                    }
                }
            }
        }
    }
    if (si.isStore()) {
        // As with load tags: trailing store indices are dense in
        // dispatch order; leading ones are assigned at retirement.
        if (t.pair && t.role == Role::Trailing)
            inst->storeIdx = t.pair->trailStoreIdx++;
        inst->sqAllocCycle = now;
        t.sq.push_back(inst);
        if (t.role != Role::Trailing)
            storeSets.storeFetched(tid, inst->pc, inst->seq);
    }

    if (needs_iq) {
        // Enter the queue waiting on every select condition not yet met
        // (see IssueQueue): source registers without a value by now,
        // and the store-sets wait target until its data arrives.
        const auto pending = [&](PhysRegIndex p) {
            return p != invalidPhysReg && readyAt[p] > now ? p
                                                           : invalidPhysReg;
        };
        const DynInst *st = inst->depStore.get();
        const bool store_pending =
            st && !st->squashed && !(st->addrReady && st->dataReady);
        iq.insert(inst, pending(inst->psrc1), pending(inst->psrc2),
                  store_pending ? st : nullptr);
    }

    t.rob.push_back(inst);
    ++robOccupancy;
    ++statDispatched;
    return true;
}

void
SmtCpu::renameDispatch()
{
    // One map chunk (up to 8 instructions) from one thread per cycle
    // (Table 1).  Blocked threads are skipped: PBOX storage is
    // per-thread (Section 4.3), so a stalled thread does not block the
    // mapper for others.
    const unsigned n = static_cast<unsigned>(threads.size());
    for (unsigned i = 0; i < n; ++i) {
        const ThreadId tid = static_cast<ThreadId>((mapRr + i) % n);
        ThreadState &t = threads[tid];
        if (!t.active || t.rmb.empty())
            continue;
        if (t.rmb.front()->fetchCycle + _params.ibox_latency > now)
            continue;

        unsigned slot = 0;
        bool any = false;
        while (slot < _params.map_width && !t.rmb.empty()) {
            DynInstPtr inst = t.rmb.front();
            if (inst->fetchCycle + _params.ibox_latency > now)
                break;
            if (!dispatchOne(tid, inst, slot))
                break;
            t.rmb.pop_front();
            ++slot;
            any = true;
        }
        if (any) {
            mapRr = (tid + 1) % n;
            return;
        }
    }
}

} // namespace rmt
