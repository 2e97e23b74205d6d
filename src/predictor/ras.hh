/**
 * @file
 * Per-thread return address stack with checkpoint/restore, plus a small
 * tagged indirect-jump target predictor.  Both are consulted in IBOX
 * stage 4 to verify line predictions (paper Section 3.1).
 */

#ifndef RMTSIM_PREDICTOR_RAS_HH
#define RMTSIM_PREDICTOR_RAS_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "ckpt/snapshot.hh"
#include "common/types.hh"

namespace rmt
{

/** Return address stack for one hardware thread. */
class ReturnAddressStack
{
  public:
    explicit ReturnAddressStack(unsigned depth = 16)
        : stack(depth, 0)
    {
    }

    /** Checkpoint: (top-of-stack pointer, value under it). */
    struct Snapshot
    {
        unsigned tos = 0;
        Addr top_value = 0;
    };

    Snapshot
    snapshot() const
    {
        return Snapshot{tos, stack[tos % stack.size()]};
    }

    void
    restore(const Snapshot &snap)
    {
        tos = snap.tos;
        stack[tos % stack.size()] = snap.top_value;
    }

    void
    push(Addr ret_addr)
    {
        ++tos;
        stack[tos % stack.size()] = ret_addr;
    }

    Addr
    pop()
    {
        const Addr top = stack[tos % stack.size()];
        --tos;
        return top;
    }

    Addr peek() const { return stack[tos % stack.size()]; }

    void
    saveState(Serializer &s) const
    {
        s.u32(static_cast<std::uint32_t>(stack.size()));
        for (const Addr a : stack)
            s.u64(a);
        s.u32(tos);
    }

    void
    loadState(Deserializer &d)
    {
        const std::uint32_t n = d.u32();
        if (n != stack.size())
            throw SnapshotError("return address stack: depth mismatch");
        for (Addr &a : stack)
            a = d.u64();
        tos = d.u32();
    }

  private:
    std::vector<Addr> stack;
    unsigned tos = 0;   ///< wraps modulo depth; underflow is benign
};

/** Tagged, untagged-on-alias indirect target predictor. */
class IndirectPredictor
{
  public:
    explicit IndirectPredictor(unsigned entries = 1024)
        : targets(entries, 0)
    {
    }

    Addr
    predict(ThreadId tid, Addr pc) const
    {
        return targets[index(tid, pc)];
    }

    void
    update(ThreadId tid, Addr pc, Addr target)
    {
        targets[index(tid, pc)] = target;
    }

    /** Only nonzero targets are stored, as (index, target): a zero
     *  target is the reset value, and most tables hold few entries. */
    void
    saveState(Serializer &s) const
    {
        s.u32(static_cast<std::uint32_t>(targets.size()));
        s.u32(static_cast<std::uint32_t>(
            targets.size() - std::count(targets.begin(), targets.end(), 0)));
        for (std::size_t i = 0; i < targets.size(); ++i) {
            if (targets[i] == 0)
                continue;
            s.u32(static_cast<std::uint32_t>(i));
            s.u64(targets[i]);
        }
    }

    void
    loadState(Deserializer &d)
    {
        if (d.u32() != targets.size())
            throw SnapshotError("indirect predictor: table size mismatch");
        const std::uint32_t stored = d.u32();
        if (stored > targets.size())
            throw SnapshotError(
                "indirect predictor: entry count out of range");
        std::fill(targets.begin(), targets.end(), 0);
        for (std::uint32_t i = 0; i < stored; ++i) {
            const std::uint32_t idx = d.u32();
            if (idx >= targets.size())
                throw SnapshotError(
                    "indirect predictor: entry index out of range");
            targets[idx] = d.u64();
        }
    }

  private:
    std::size_t
    index(ThreadId tid, Addr pc) const
    {
        return ((pc >> 2) ^ (std::uint64_t{tid} << 7)) &
               (targets.size() - 1);
    }

    std::vector<Addr> targets;
};

} // namespace rmt

#endif // RMTSIM_PREDICTOR_RAS_HH
