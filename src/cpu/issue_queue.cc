#include "cpu/issue_queue.hh"

namespace rmt
{

IssueQueue::IssueQueue(unsigned entries, unsigned phys_regs)
    : slots(entries), regHead(phys_regs, none), frontPipe(entries)
{
    freeSlots.reserve(entries);
    for (std::uint32_t s = entries; s-- > 0;)
        freeSlots.push_back(s);
}

void
IssueQueue::insert(const DynInstPtr &inst, PhysRegIndex wait1,
                   PhysRegIndex wait2, const DynInst *wait_store)
{
    if (freeSlots.empty()) {
        freeSlots.push_back(static_cast<std::uint32_t>(slots.size()));
        slots.emplace_back();
    }
    const std::uint32_t slot = freeSlots.back();
    freeSlots.pop_back();
    Entry &e = slots[slot];
    e.inst = inst;
    e.age = nextAge++;
    e.pending = WaitIssuable;
    inst->iqSlot = slot;
    ++live;

    const PhysRegIndex waits[2] = {wait1, wait2};
    for (unsigned k = 0; k < 2; ++k) {
        if (waits[k] == invalidPhysReg)
            continue;
        const std::uint32_t node = slot * 2 + k;
        e.pending |= k ? WaitSrc2 : WaitSrc1;
        e.waitReg[k] = waits[k];
        e.depPrev[k] = none;
        e.depNext[k] = regHead[waits[k]];
        if (e.depNext[k] != none) {
            const std::uint32_t n = e.depNext[k];
            slots[n / 2].depPrev[n % 2] = node;
        }
        regHead[waits[k]] = node;
    }
    if (wait_store) {
        e.pending |= WaitStore;
        e.waitStore = wait_store;
        e.memPrev = none;
        e.memNext = memHead;
        if (memHead != none)
            slots[memHead].memPrev = slot;
        memHead = slot;
    }
    frontPipe.push_back({slot, e.age});
}

void
IssueQueue::remove(std::uint32_t slot)
{
    Entry &e = slots[slot];
    if (e.pending == 0)
        unlinkReady(slot);
    if (e.pending & WaitSrc1)
        unlinkOperand(slot * 2);
    if (e.pending & WaitSrc2)
        unlinkOperand(slot * 2 + 1);
    if (e.pending & WaitStore)
        unlinkStoreWait(slot);
    // A front-pipe reference goes stale: the age check drops it.
    e.pending = 0;
    e.age = 0;
    e.inst.reset();
    freeSlots.push_back(slot);
    --live;
}

void
IssueQueue::wakeIssuable(Cycle now)
{
    while (!frontPipe.empty()) {
        const auto [slot, age] = frontPipe.front();
        if (slots[slot].age == age) {
            if (slots[slot].inst->issuableCycle > now)
                break;
            clearPending(slot, WaitIssuable);
        }
        frontPipe.pop_front();
    }
}

void
IssueQueue::wakeReg(PhysRegIndex p)
{
    std::uint32_t node = regHead[p];
    regHead[p] = none;
    while (node != none) {
        const std::uint32_t slot = node / 2;
        const unsigned k = node % 2;
        Entry &e = slots[slot];
        const std::uint32_t next = e.depNext[k];
        e.depPrev[k] = e.depNext[k] = none;
        clearPending(slot, k ? WaitSrc2 : WaitSrc1);
        node = next;
    }
}

void
IssueQueue::wakeStore(const DynInst *st)
{
    for (std::uint32_t slot = memHead; slot != none;) {
        const std::uint32_t next = slots[slot].memNext;
        if (slots[slot].waitStore == st) {
            unlinkStoreWait(slot);
            clearPending(slot, WaitStore);
        }
        slot = next;
    }
}

void
IssueQueue::clearPending(std::uint32_t slot, std::uint8_t bit)
{
    Entry &e = slots[slot];
    e.pending &= static_cast<std::uint8_t>(~bit);
    if (e.pending == 0)
        linkReady(slot);
}

void
IssueQueue::linkReady(std::uint32_t slot)
{
    // Age-ordered insert, searching from the young end: most entries
    // become ready shortly after their (young) dispatch.
    Entry &e = slots[slot];
    std::uint32_t after = readyTail;
    while (after != none && slots[after].age > e.age)
        after = slots[after].readyPrev;
    e.readyPrev = after;
    e.readyNext = after == none ? readyHead : slots[after].readyNext;
    if (e.readyNext == none)
        readyTail = slot;
    else
        slots[e.readyNext].readyPrev = slot;
    if (after == none)
        readyHead = slot;
    else
        slots[after].readyNext = slot;
}

void
IssueQueue::unlinkReady(std::uint32_t slot)
{
    Entry &e = slots[slot];
    if (e.readyPrev == none)
        readyHead = e.readyNext;
    else
        slots[e.readyPrev].readyNext = e.readyNext;
    if (e.readyNext == none)
        readyTail = e.readyPrev;
    else
        slots[e.readyNext].readyPrev = e.readyPrev;
    e.readyPrev = e.readyNext = none;
}

void
IssueQueue::unlinkOperand(std::uint32_t node)
{
    Entry &e = slots[node / 2];
    const unsigned k = node % 2;
    const std::uint32_t prev = e.depPrev[k];
    const std::uint32_t next = e.depNext[k];
    if (prev == none)
        regHead[e.waitReg[k]] = next;
    else
        slots[prev / 2].depNext[prev % 2] = next;
    if (next != none)
        slots[next / 2].depPrev[next % 2] = prev;
    e.depPrev[k] = e.depNext[k] = none;
}

void
IssueQueue::unlinkStoreWait(std::uint32_t slot)
{
    Entry &e = slots[slot];
    if (e.memPrev == none)
        memHead = e.memNext;
    else
        slots[e.memPrev].memNext = e.memNext;
    if (e.memNext != none)
        slots[e.memNext].memPrev = e.memPrev;
    e.memPrev = e.memNext = none;
    e.waitStore = nullptr;
}

} // namespace rmt
