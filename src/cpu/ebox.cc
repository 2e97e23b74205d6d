/**
 * @file
 * EBOX/FBOX: execution, writeback, and control-flow resolution.  The
 * event calendar carries issued instructions through the RBOX register
 * read and functional-unit latencies.
 */

#include "cpu/smt_cpu.hh"

#include "common/logging.hh"

namespace rmt
{

void
SmtCpu::processEvents()
{
    // Handlers may schedule new events; those always land in a later
    // cycle, so this drains exactly the events due now, in the order
    // they were scheduled.
    Event ev;
    while (calendar.pop(now, ev)) {
        if (ev.inst->squashed)
            continue;
        switch (ev.kind) {
          case EvKind::Compute:
            computeInst(ev.inst);
            break;
          case EvKind::ExecDone:
            completeInst(ev.inst);
            break;
          case EvKind::MemAgen:
            memAgen(ev.inst);
            break;
          case EvKind::StoreData:
            storeDataArrive(ev.inst);
            break;
          case EvKind::LoadDone:
            finishLoad(ev.inst, ev.payload);
            break;
        }
    }
}

void
SmtCpu::computeInst(const DynInstPtr &inst)
{
    const std::uint64_t a = readPhys(inst->psrc1);
    const std::uint64_t b = readPhys(inst->psrc2);
    AluResult r = evalOp(inst->si, inst->pc, a, b);

    // Permanent functional-unit fault model (Section 4.5): a stuck-at
    // fault corrupts every result this unit produces.
    if (faults) {
        const std::uint64_t filtered =
            faults->filterFuResult(core, inst->fuIndex, now, r.value);
        if (filtered != r.value) {
            r.value = filtered;
            if (inst->si.isCondBranch())
                r.taken = !r.taken;
        }
    }

    inst->result = r.value;
    inst->branchTaken = r.taken;
    inst->branchTarget = r.target;
    writePhys(inst->pdst, r.value);
    // readyAt[pdst] was set to this cycle at issue: wake the consumers.
    if (inst->pdst != invalidPhysReg)
        iq.wakeReg(inst->pdst);
}

void
SmtCpu::completeInst(const DynInstPtr &inst)
{
    inst->executed = true;
    inst->completed = true;
    inst->completeCycle = now;
    if (inst->isControl())
        resolveControl(inst);
}

void
SmtCpu::resolveControl(const DynInstPtr &inst)
{
    ThreadState &t = threads[inst->tid];
    const StaticInst &si = inst->si;
    const Addr actual_next =
        inst->branchTaken ? inst->branchTarget : inst->pc + instBytes;

    if (t.role == Role::Trailing) {
        // The trailing thread never redirects: its fetch stream is the
        // leading thread's committed path.  A disagreement here can
        // only come from a fault and is caught by the committed-stream
        // check / store comparator.
        return;
    }

    // Train the slow-path predictors with the resolved outcome.
    if (si.isCondBranch())
        bpred.update(inst->tid, inst->pc, inst->branchTaken,
                     inst->histSnap);
    if (si.isIndirect())
        indirect.update(inst->tid, inst->pc, inst->branchTarget);

    if (actual_next == inst->predNextPc)
        return;

    // ------------------------------------------------- misprediction
    ++statBranchMispredicts;
    if (si.isCondBranch())
        bpred.noteMispredict();

    squashThread(inst->tid, inst->seq, actual_next, "branch mispredict");

    // Repair speculative predictor state: history gets the branch's
    // pre-prediction snapshot extended with the real outcome; the RAS
    // is rolled back to the branch and its own push/pop replayed.
    if (si.isCondBranch())
        bpred.fixupHistory(inst->tid, inst->histSnap, inst->branchTaken);
    ras[inst->tid].restore(inst->rasSnap);
    if (si.isCall())
        ras[inst->tid].push(inst->pc + instBytes);
    else if (si.isRet())
        ras[inst->tid].pop();

    // Retrain the line predictor toward the resolved path so the next
    // traversal fetches correctly.
    linePred.train(inst->tid, inst->fetchChunkAddr, actual_next);
}

} // namespace rmt
