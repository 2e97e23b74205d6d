/**
 * @file
 * IBOX: instruction fetch (paper Section 3.1), including the trailing
 * thread's LPQ-driven fetch (Section 4.4) and the branch-outcome-queue
 * ablation front ends.
 */

#include "cpu/smt_cpu.hh"

#include "common/bits.hh"
#include "common/logging.hh"

#include <cstdio>

namespace rmt
{

namespace
{

constexpr Addr chunkBytes = chunkSize * instBytes;

Addr
chunkFrameEnd(Addr pc)
{
    return (pc & ~Addr(chunkBytes - 1)) + chunkBytes;
}

/**
 * The opcode a single-bit decode strike turns @p op into.  Siblings
 * stay within the instruction's structural class (an ALU op stays an
 * ALU op, a store keeps being a store of some width) so the corrupted
 * instruction still flows through the same pipeline resources — the
 * fault corrupts the *result*, not the simulator's plumbing.  Two
 * deliberate exclusions: nothing maps *into* Div/Fdiv (a conjured
 * divide-by-zero would trap the host, not model a fault), and loads
 * have no sibling — the LVQ forwards the leading load's value verbatim
 * to the trailing copy, so a load-width swap would corrupt both copies
 * identically and be undetectable by construction; those fall back to
 * an immediate-bit flip (which the LVQ address check *does* see).
 */
Op
decodeSibling(Op op)
{
    switch (op) {
      case Op::Add: return Op::Sub;
      case Op::Sub: return Op::Add;
      case Op::Mul: return Op::Add;
      case Op::Div: return Op::Sub;
      case Op::AddI: return Op::SltI;
      case Op::SltI: return Op::AddI;
      case Op::MulI: return Op::AddI;
      case Op::Slt: return Op::Sltu;
      case Op::Sltu: return Op::Slt;
      case Op::Cmpeq: return Op::Slt;
      case Op::And: return Op::Or;
      case Op::Or: return Op::And;
      case Op::Xor: return Op::And;
      case Op::AndI: return Op::OrI;
      case Op::OrI: return Op::AndI;
      case Op::XorI: return Op::AndI;
      case Op::Sll: return Op::Srl;
      case Op::Srl: return Op::Sll;
      case Op::Sra: return Op::Srl;
      case Op::SllI: return Op::SrlI;
      case Op::SrlI: return Op::SllI;
      case Op::Stb: return Op::Sth;
      case Op::Sth: return Op::Stb;
      case Op::Stw: return Op::Stq;
      case Op::Stq: return Op::Stw;
      case Op::Fst: return Op::Stw;
      case Op::Beq: return Op::Bne;
      case Op::Bne: return Op::Beq;
      case Op::Blt: return Op::Bge;
      case Op::Bge: return Op::Blt;
      case Op::Fadd: return Op::Fsub;
      case Op::Fsub: return Op::Fadd;
      case Op::Fmul: return Op::Fadd;
      case Op::Fdiv: return Op::Fsub;
      case Op::Fsqrt: return Op::Fneg;
      case Op::Fneg: return Op::Fsqrt;
      case Op::Fcmplt: return Op::Fcmpeq;
      case Op::Fcmpeq: return Op::Fcmplt;
      case Op::CvtIF: return Op::CvtFI;
      case Op::CvtFI: return Op::CvtIF;
      default: return op;     // loads, control transfers without a safe
                              // sibling, Nop/Halt/MemBar/...: imm flip
    }
}

} // namespace

void
SmtCpu::applyDecodeStrike(ThreadState &t, StaticInst &si)
{
    t.decodeStrike = false;
    if (t.decodeStrikeBit >= 48) {
        const Op sibling = decodeSibling(si.op);
        if (sibling != si.op) {
            si.op = sibling;
            return;
        }
        // No safe opcode sibling: degrade to an immediate strike.
    }
    si.imm = static_cast<std::int64_t>(flipBit(
        static_cast<std::uint64_t>(si.imm), t.decodeStrikeBit % 48));
}

bool
SmtCpu::trailingSlackGated(const ThreadState &t) const
{
    // Slack fetch gate (Section 2.3).  Under the LPQ the gate lifts
    // once the queue is half full: a slack larger than the LPQ can
    // buffer would deadlock leading retirement (full LPQ) against a
    // gated trailing fetch.
    if (!_params.slack_fetch)
        return false;
    if (_params.trailing_fetch == TrailingFetchMode::LinePredictionQueue &&
        t.pair->lpq.size() >= t.pair->lpq.entries() / 2) {
        return false;
    }
    // Verification pressure: retired leading stores wait in the store
    // queue for their trailing copies; if the backlog grows to a
    // meaningful fraction of the SQ, gating the trailing thread any
    // longer risks wedging leading dispatch on a full SQ (the deadlock
    // family of Section 4.3).
    if (_params.srt_store_comparison &&
        t.pair->leadStoreIdx >
            t.pair->trailStoreIdx + _params.store_queue_entries / 4) {
        return false;
    }
    return t.pair->leadRetired <
           t.pair->trailFetched + _params.slack_fetch;
}

bool
SmtCpu::canFetch(ThreadId tid) const
{
    const ThreadState &t = threads[tid];
    if (!t.active || t.fetchHalted || t.halted)
        return false;
    if (now < t.fetchStallUntil)
        return false;
    if (t.rmb.size() + chunkSize > _params.rmb_chunks * chunkSize)
        return false;
    // Snapshot drain: freeze every fetch stream except trailing threads,
    // which still have to consume what their leading partners committed.
    if (draining && t.role != Role::Trailing)
        return false;
    if (t.role == Role::Trailing) {
        // The slack gate wedges once the trailing thread closes within
        // slack of a frozen leading thread, so it is bypassed while
        // draining; the BOQ-style front ends get an exact per-
        // instruction cap instead (they only fetch the committed path).
        if (!draining && trailingSlackGated(t))
            return false;
        if (_params.trailing_fetch ==
            TrailingFetchMode::LinePredictionQueue) {
            return t.pair->lpq.available(now);
        }
        if (draining && t.pair->trailFetched >= t.pair->leadRetired)
            return false;
        // BOQ-style front ends fetch down their own line-predicted path.
        return true;
    }
    return true;
}

ThreadId
SmtCpu::chooseFetchThread()
{
    // The thread chooser approximates ICOUNT via rate-matching-buffer
    // occupancy (Section 3.1), but gives trailing threads priority
    // whenever an LPQ prediction is available (Section 4.4).  The
    // priority applies only to the LPQ front end: a prediction in hand
    // guarantees progress.  BOQ-style trailing threads use plain
    // ICOUNT — they can be outcome-starved, and prioritising them would
    // starve the leading thread that produces those outcomes.
    ThreadId best = invalidThread;
    bool best_trailing = false;
    std::size_t best_occ = 0;
    const unsigned n = static_cast<unsigned>(threads.size());
    for (unsigned i = 0; i < n; ++i) {
        const ThreadId tid = static_cast<ThreadId>((fetchRr + i) % n);
        if (!canFetch(tid))
            continue;
        const bool trailing =
            threads[tid].role == Role::Trailing &&
            _params.trailing_fetch ==
                TrailingFetchMode::LinePredictionQueue;
        const std::size_t occ = threads[tid].rmb.size();
        if (best == invalidThread || (trailing && !best_trailing) ||
            (trailing == best_trailing && occ < best_occ)) {
            best = tid;
            best_trailing = trailing;
            best_occ = occ;
        }
    }
    return best;
}

void
SmtCpu::fetch()
{
    const ThreadId tid = chooseFetchThread();
    if (tid == invalidThread)
        return;
    fetchRr = (tid + 1) % threads.size();

    ThreadState &t = threads[tid];
    if (t.role == Role::Trailing &&
        _params.trailing_fetch == TrailingFetchMode::LinePredictionQueue) {
        fetchTrailingLpq(tid);
    } else if (t.role == Role::Trailing) {
        fetchTrailingBoq(tid);
    } else {
        fetchLeadingChunks(tid);
    }
}

void
SmtCpu::fetchLeadingChunks(ThreadId tid)
{
    ThreadState &t = threads[tid];

    for (unsigned k = 0; k < _params.fetch_chunks_per_cycle; ++k) {
        if (t.fetchHalted || now < t.fetchStallUntil)
            break;
        if (t.rmb.size() + chunkSize > _params.rmb_chunks * chunkSize)
            break;

        const Addr start = t.fetchPc;
        bool hit = false;
        const Cycle ready =
            memSystem.access(l1i, physMemAddr(t, start), now, hit);
        if (!hit) {
            t.fetchStallUntil = ready;
            t.fetchStallReason = FetchStall::IcacheMiss;
            statIcacheMissStalls += ready - now;
            break;
        }

        // Walk the chunk: from start to the end of its 32-byte frame,
        // truncated at the first predicted-taken control instruction.
        const Addr frame_end = chunkFrameEnd(start);
        Addr next_fetch_pc = frame_end;
        bool halt_seen = false;
        Addr pc = start;
        while (pc < frame_end) {
            const StaticInst &si = t.program->fetch(pc);
            DynInstPtr inst = instPool.acquire();
            inst->si = si;
            inst->pc = pc;
            inst->tid = tid;
            inst->seq = t.nextSeq++;
            inst->fetchChunkAddr = start;
            inst->fetchCycle = now;
            if (t.decodeStrike)
                applyDecodeStrike(t, inst->si);

            if (si.isHalt()) {
                inst->predNextPc = pc;
                t.rmb.push_back(inst);
                ++statFetched;
                ++statFetchSrcLead;
                halt_seen = true;
                break;
            }

            if (si.isControl()) {
                inst->histSnap = bpred.history(tid);
                inst->rasSnap = ras[tid].snapshot();
                bool taken = false;
                Addr target = 0;
                switch (si.op) {
                  case Op::Beq: case Op::Bne: case Op::Blt: case Op::Bge:
                    taken = bpred.predict(tid, pc);
                    target = pc + instBytes +
                             static_cast<std::uint64_t>(si.imm);
                    break;
                  case Op::Br:
                  case Op::Call:
                    taken = true;
                    target = pc + instBytes +
                             static_cast<std::uint64_t>(si.imm);
                    if (si.isCall())
                        ras[tid].push(pc + instBytes);
                    break;
                  case Op::CallR:
                    taken = true;
                    target = indirect.predict(tid, pc);
                    ras[tid].push(pc + instBytes);
                    break;
                  case Op::Jmp:
                    taken = true;
                    target = indirect.predict(tid, pc);
                    break;
                  case Op::Ret:
                    taken = true;
                    target = ras[tid].pop();
                    break;
                  default:
                    panic("unhandled control op in fetch");
                }
                inst->predTaken = taken;
                inst->predNextPc = taken ? target : pc + instBytes;
                t.rmb.push_back(inst);
                ++statFetched;
                ++statFetchSrcLead;
                if (taken) {
                    next_fetch_pc = target;
                    pc += instBytes;
                    break;
                }
                pc += instBytes;
                continue;
            }

            inst->predNextPc = pc + instBytes;
            t.rmb.push_back(inst);
            ++statFetched;
            ++statFetchSrcLead;
            pc += instBytes;
        }

        if (halt_seen) {
            t.fetchHalted = true;
            break;
        }

        // Line-prediction verification (IBOX stage 4): the line
        // predictor drove the fetch; the branch-path predictors just
        // computed next_fetch_pc.  On disagreement, retrain and restart
        // the address driver.
        const ThreadId lp_tid = tid;
        const Addr predicted = linePred.predict(lp_tid, start);
        linePred.train(lp_tid, start, next_fetch_pc);
        t.fetchPc = next_fetch_pc;
        if (predicted != next_fetch_pc) {
            linePred.noteMispredict();
            ++statLineMispredicts;
            if (lpDebug) {
                std::fprintf(stderr,
                             "LP cyc=%llu tid=%u start=%llx pred=%llx "
                             "actual=%llx\n",
                             (unsigned long long)now, tid,
                             (unsigned long long)start,
                             (unsigned long long)predicted,
                             (unsigned long long)next_fetch_pc);
            }
            t.fetchStallUntil = now + _params.line_mispredict_penalty;
            t.fetchStallReason = FetchStall::LineMispredict;
            break;
        }
    }
}

void
SmtCpu::fetchTrailingLpq(ThreadId tid)
{
    ThreadState &t = threads[tid];
    RedundantPair &pair = *t.pair;

    for (unsigned k = 0; k < _params.fetch_chunks_per_cycle; ++k) {
        if (t.fetchHalted || now < t.fetchStallUntil)
            break;
        if (t.rmb.size() + chunkSize > _params.rmb_chunks * chunkSize)
            break;
        if (!pair.lpq.available(now))
            break;
        if (!draining && trailingSlackGated(t))
            break;

        const LpqChunk chunk = pair.lpq.activeChunk();
        pair.lpq.ack();

        bool hit = false;
        const Cycle ready =
            memSystem.access(l1i, physMemAddr(t, chunk.start), now, hit);
        if (!hit) {
            // I-cache miss: roll the active head back to the recovery
            // head; the prediction sequence reissues after the fill.
            pair.lpq.rollback();
            t.fetchStallUntil = ready;
            t.fetchStallReason = FetchStall::IcacheMiss;
            statIcacheMissStalls += ready - now;
            break;
        }
        pair.lpq.commitFetch();

        bool halt_seen = false;
        for (unsigned i = 0; i < chunk.count; ++i) {
            const Addr pc = chunk.start + i * instBytes;
            const StaticInst &si = t.program->fetch(pc);
            DynInstPtr inst = instPool.acquire();
            inst->si = si;
            inst->pc = pc;
            inst->tid = tid;
            inst->seq = t.nextSeq++;
            inst->fetchChunkAddr = chunk.start;
            inst->fetchCycle = now;
            if (t.decodeStrike)
                applyDecodeStrike(t, inst->si);
            inst->leadHalf = chunk.leadHalf[i];
            // The LPQ stream is the prediction: within a chunk the flow
            // is sequential; a chunk-final control instruction's target
            // is simply the next chunk's start (checked at commit).
            inst->predNextPc = pc + instBytes;
            inst->predTaken = false;
            t.rmb.push_back(inst);
            ++statFetched;
            ++statFetchSrcLpq;
            ++pair.trailFetched;
            if (si.isHalt()) {
                halt_seen = true;
                break;
            }
        }
        if (halt_seen) {
            t.fetchHalted = true;
            break;
        }
    }
}

void
SmtCpu::fetchTrailingBoq(ThreadId tid)
{
    ThreadState &t = threads[tid];
    RedundantPair &pair = *t.pair;

    for (unsigned k = 0; k < _params.fetch_chunks_per_cycle; ++k) {
        if (t.fetchHalted || now < t.fetchStallUntil)
            break;
        if (t.rmb.size() + chunkSize > _params.rmb_chunks * chunkSize)
            break;
        if (!draining && trailingSlackGated(t))
            break;

        const Addr start = t.fetchPc;
        bool hit = false;
        const Cycle ready =
            memSystem.access(l1i, physMemAddr(t, start), now, hit);
        if (!hit) {
            t.fetchStallUntil = ready;
            t.fetchStallReason = FetchStall::IcacheMiss;
            statIcacheMissStalls += ready - now;
            break;
        }

        const Addr frame_end = chunkFrameEnd(start);
        Addr next_fetch_pc = frame_end;
        bool halt_seen = false;
        bool starved = false;
        Addr pc = start;
        unsigned fetched_here = 0;
        while (pc < frame_end) {
            // Drain cap: never run ahead of the frozen leading thread.
            if (draining && pair.trailFetched >= pair.leadRetired) {
                starved = true;
                break;
            }
            const StaticInst &si = t.program->fetch(pc);

            bool taken = false;
            Addr target = 0;
            if (si.isControl()) {
                // Perfect branch outcomes from the leading thread.
                if (!pair.boqFrontAvailable(now)) {
                    starved = true;
                    break;
                }
                const BoqEntry &outcome = pair.boqFront();
                if (outcome.pc != pc) {
                    // Only possible after fault-induced divergence.
                    pair.recordDetection(DetectionKind::ControlDivergence,
                                         now);
                    starved = true;
                    break;
                }
                taken = outcome.taken;
                target = outcome.target;
                pair.boqPop();
            }

            DynInstPtr inst = instPool.acquire();
            inst->si = si;
            inst->pc = pc;
            inst->tid = tid;
            inst->seq = t.nextSeq++;
            inst->fetchChunkAddr = start;
            inst->fetchCycle = now;
            if (t.decodeStrike)
                applyDecodeStrike(t, inst->si);
            inst->predTaken = taken;
            inst->predNextPc =
                si.isControl() && taken ? target : pc + instBytes;
            t.rmb.push_back(inst);
            ++statFetched;
            ++statFetchSrcBoq;
            ++pair.trailFetched;
            ++fetched_here;

            if (si.isHalt()) {
                halt_seen = true;
                break;
            }
            if (si.isControl() && taken) {
                next_fetch_pc = target;
                pc += instBytes;
                break;
            }
            pc += instBytes;
        }

        if (halt_seen) {
            t.fetchHalted = true;
            break;
        }
        if (starved) {
            // Retry from the control instruction once outcomes arrive.
            t.fetchPc = pc;
            break;
        }

        // The line predictor still drives this front end; only the
        // branch outcomes are oracle (BOQ mode).  In shared mode the
        // trailing thread indexes with the leading thread's id.
        const ThreadId lp_tid =
            _params.trailing_fetch == TrailingFetchMode::SharedLinePredictor
                ? t.pair->params().leading.tid
                : tid;
        const Addr predicted = linePred.predict(lp_tid, start);
        if (_params.trailing_fetch != TrailingFetchMode::SharedLinePredictor)
            linePred.train(lp_tid, start, next_fetch_pc);
        t.fetchPc = next_fetch_pc;
        if (predicted != next_fetch_pc) {
            linePred.noteMispredict();
            ++statLineMispredicts;
            t.fetchStallUntil = now + _params.line_mispredict_penalty;
            t.fetchStallReason = FetchStall::LineMispredict;
            break;
        }
        (void)fetched_here;
    }
}

} // namespace rmt
