/**
 * @file
 * An in-flight dynamic instruction, carried by pointer through the
 * pipeline from fetch to retirement (or squash), plus the per-core
 * slab pool that recycles instruction records.
 *
 * DynInstPtr is an intrusive refcounted pointer with a *non-atomic*
 * count: a core (and everything it points at) is single-threaded by
 * construction — campaign parallelism runs across independent
 * Simulation objects, each with its own pools.  When the last
 * reference drops, the record returns to its pool's free list instead
 * of the heap, so steady-state simulation performs no per-instruction
 * allocation at all.
 */

#ifndef RMTSIM_CPU_DYN_INST_HH
#define RMTSIM_CPU_DYN_INST_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "isa/isa.hh"
#include "obs/attribution.hh"
#include "predictor/branch_predictor.hh"
#include "predictor/ras.hh"

namespace rmt
{

struct DynInst;
class DynInstPool;

/**
 * Intrusive refcounted handle to a pooled DynInst.  Copying bumps a
 * plain integer; the final release recycles the record into its pool.
 */
class DynInstPtr
{
  public:
    constexpr DynInstPtr() noexcept = default;
    constexpr DynInstPtr(std::nullptr_t) noexcept {}
    inline DynInstPtr(const DynInstPtr &o) noexcept;
    DynInstPtr(DynInstPtr &&o) noexcept : ptr(o.ptr) { o.ptr = nullptr; }
    inline DynInstPtr &operator=(const DynInstPtr &o) noexcept;
    inline DynInstPtr &operator=(DynInstPtr &&o) noexcept;
    ~DynInstPtr() { release(); }

    DynInst &operator*() const noexcept { return *ptr; }
    DynInst *operator->() const noexcept { return ptr; }
    DynInst *get() const noexcept { return ptr; }
    explicit operator bool() const noexcept { return ptr != nullptr; }

    void
    reset() noexcept
    {
        release();
        ptr = nullptr;
    }

    friend bool
    operator==(const DynInstPtr &a, const DynInstPtr &b) noexcept
    {
        return a.ptr == b.ptr;
    }
    friend bool
    operator==(const DynInstPtr &a, std::nullptr_t) noexcept
    {
        return a.ptr == nullptr;
    }

  private:
    friend class DynInstPool;
    /** Adopt @p raw, taking one reference. */
    inline explicit DynInstPtr(DynInst *raw) noexcept;
    inline void release() noexcept;

    DynInst *ptr = nullptr;
};

struct DynInst
{
    // ------------------------------------------------------- identity
    StaticInst si;
    Addr pc = 0;
    ThreadId tid = 0;
    InstSeq seq = 0;            ///< per-thread fetch order
    Addr fetchChunkAddr = 0;    ///< start of the fetch chunk (line pred)

    // ----------------------------------------------------- front end
    bool predTaken = false;
    Addr predNextPc = 0;        ///< pc fetch continued at
    BranchPredictor::HistorySnapshot histSnap = 0;
    ReturnAddressStack::Snapshot rasSnap{};
    std::uint64_t pairInstIdx = 0;  ///< per-pair commit-order index (RMT)

    // --------------------------------------------------------- rename
    PhysRegIndex pdst = invalidPhysReg;
    PhysRegIndex prevDst = invalidPhysReg;  ///< old mapping of si.rd
    PhysRegIndex psrc1 = invalidPhysReg;
    PhysRegIndex psrc2 = invalidPhysReg;

    // --------------------------------------------------------- status
    bool inIq = false;
    bool issued = false;
    bool executed = false;      ///< result produced / store addr+data in SQ
    bool completed = false;     ///< eligible to retire
    bool squashed = false;
    bool retired = false;
    /** Why this instruction is not complete yet (commit-slot
     *  attribution while it blocks the ROB head). */
    StallCause waitReason = StallCause::ExecLatency;
    Cycle fetchCycle = 0;
    Cycle dispatchCycle = 0;
    Cycle issueCycle = 0;
    Cycle completeCycle = 0;

    // ---------------------------------------------------------- QBOX
    std::uint8_t iqHalf = 0;    ///< 0 = upper, 1 = lower (PSR, Fig. 7)
    std::uint8_t fuIndex = 0;   ///< global functional-unit instance id
    std::uint8_t dispatchSlot = 0;  ///< position in the map chunk
    std::uint8_t leadHalf = 0;  ///< trailing: leading copy's IQ half
    std::uint32_t iqSlot = 0;   ///< IssueQueue entry while inIq
    Cycle issuableCycle = 0;    ///< earliest select (QBOX front latency)

    // --------------------------------------------------------- result
    std::uint64_t result = 0;
    bool branchTaken = false;
    Addr branchTarget = 0;
    bool mispredicted = false;

    // --------------------------------------------------------- memory
    Addr effAddr = 0;
    bool addrReady = false;
    std::uint64_t storeData = 0;
    bool dataReady = false;
    DynInstPtr depStore;        ///< store-sets wait target, if in the SQ
    int lqIndex = -1;
    std::uint64_t storeIdx = 0;     ///< per-thread store order (RMT match)
    std::uint64_t loadTag = 0;      ///< LVQ correlation tag

    // ----------------------------------- store-queue entry state
    // (folded into the instruction so retirement and verification never
    // have to search the queue for their entry)
    Cycle sqAllocCycle = 0;     ///< SQ entry allocated (dispatch)
    Cycle sqRetireCycle = 0;    ///< store retired (release gating)
    bool sqVerified = false;    ///< SRT: store comparison done

    bool isLoad() const { return si.isLoad(); }
    bool isStore() const { return si.isStore(); }
    bool isControl() const { return si.isControl(); }

  private:
    friend class DynInstPtr;
    friend class DynInstPool;
    std::uint32_t refs = 0;         ///< non-atomic: cores are 1-threaded
    DynInstPool *pool = nullptr;    ///< owning pool (recycle target)
};

/**
 * Per-core slab allocator with a free list.  Records are acquired at
 * fetch and recycle automatically when the last DynInstPtr drops (at
 * retirement, squash, or once the last queue lets go).  Slabs are only
 * ever added, so records have stable addresses for the pool's
 * lifetime; the pool must outlive every handle (SmtCpu declares it
 * before all pipeline structures so it is destroyed last).
 */
class DynInstPool
{
  public:
    explicit DynInstPool(std::size_t slab_insts = 256)
        : slabInsts(slab_insts ? slab_insts : 1)
    {
    }

    DynInstPool(const DynInstPool &) = delete;
    DynInstPool &operator=(const DynInstPool &) = delete;

    /** A fresh (default-state) instruction record with one reference. */
    inline DynInstPtr acquire();

    /** Records currently handed out. */
    std::size_t live() const { return liveCount; }
    /** Total records ever created (slabs * slab size). */
    std::size_t capacity() const { return slabs.size() * slabInsts; }
    /** Times a record went back on the free list. */
    std::uint64_t recycles() const { return recycleCount; }

  private:
    friend class DynInstPtr;

    inline void recycle(DynInst *inst) noexcept;

    void
    grow()
    {
        slabs.push_back(std::make_unique<DynInst[]>(slabInsts));
        DynInst *slab = slabs.back().get();
        freeList.reserve(freeList.size() + slabInsts);
        // Hand out in address order for cache-friendly first fills.
        for (std::size_t i = slabInsts; i-- > 0;)
            freeList.push_back(&slab[i]);
    }

    std::size_t slabInsts;
    std::vector<std::unique_ptr<DynInst[]>> slabs;
    std::vector<DynInst *> freeList;
    std::size_t liveCount = 0;
    std::uint64_t recycleCount = 0;
};

// ------------------------------------------------ inline definitions

inline DynInstPtr::DynInstPtr(const DynInstPtr &o) noexcept : ptr(o.ptr)
{
    if (ptr)
        ++ptr->refs;
}

inline DynInstPtr::DynInstPtr(DynInst *raw) noexcept : ptr(raw)
{
    if (ptr)
        ++ptr->refs;
}

inline DynInstPtr &
DynInstPtr::operator=(const DynInstPtr &o) noexcept
{
    if (o.ptr)
        ++o.ptr->refs;
    DynInst *old = ptr;
    ptr = o.ptr;
    if (old && --old->refs == 0)
        old->pool->recycle(old);
    return *this;
}

inline DynInstPtr &
DynInstPtr::operator=(DynInstPtr &&o) noexcept
{
    if (this != &o) {
        release();
        ptr = o.ptr;
        o.ptr = nullptr;
    }
    return *this;
}

inline void
DynInstPtr::release() noexcept
{
    if (ptr && --ptr->refs == 0)
        ptr->pool->recycle(ptr);
}

inline DynInstPtr
DynInstPool::acquire()
{
    if (freeList.empty())
        grow();
    DynInst *inst = freeList.back();
    freeList.pop_back();
    inst->pool = this;
    ++liveCount;
    return DynInstPtr(inst);
}

inline void
DynInstPool::recycle(DynInst *inst) noexcept
{
    // Reset to default state now so stale references (depStore chains)
    // release immediately and acquisition is a plain pop.
    *inst = DynInst{};
    inst->pool = this;
    freeList.push_back(inst);
    --liveCount;
    ++recycleCount;
}

} // namespace rmt

#endif // RMTSIM_CPU_DYN_INST_HH
