#include "mem/mem_system.hh"

#include <algorithm>

namespace rmt
{

MemSystem::MemSystem(const MemSystemParams &params)
    : l2Params(params.l2),
      _l2(params.l2),
      _mem(params.mem),
      l2Latency(params.l2_latency),
      _checkerPenalty(params.checker_penalty)
{
}

Cycle
MemSystem::access(Cache &l1, Addr addr, Cycle now, bool &hit)
{
    const Addr block = l1.blockAlign(addr);
    Fills &l1_pending = fillsOf(&l1);

    // A fill to this block may already be in flight (or have completed
    // without being installed yet: fills are lazy).
    if (const Cycle *ready = l1_pending.find(block)) {
        if (now >= *ready) {
            l1.fill(block);
            l1_pending.erase(block);
            hit = true;
            return now;
        }
        hit = false;        // merged into in-flight miss
        return *ready;
    }

    if (l1.access(block)) {
        hit = true;
        return now;
    }

    hit = false;
    Cycle ready = serviceMiss(block, now);
    ready += _checkerPenalty;   // lockstep: miss request crosses checker
    l1_pending.insert(block, ready);
    return ready;
}

MemSystem::Fills &
MemSystem::fillsOf(const Cache *l1)
{
    for (auto &[cache, fills] : pending) {
        if (cache == l1)
            return fills;
    }
    pending.emplace_back(l1, Fills(16));
    return pending.back().second;
}

const MemSystem::Fills *
MemSystem::findFills(const Cache *l1) const
{
    for (const auto &[cache, fills] : pending) {
        if (cache == l1)
            return &fills;
    }
    return nullptr;
}

Cycle
MemSystem::serviceMiss(Addr block, Cycle now)
{
    if (_l2.access(block))
        return now + l2Latency;

    const Cycle mem_ready = _mem.access(now + l2Latency);
    _l2.fill(block);
    return mem_ready;
}

void
MemSystem::writeback(Addr addr)
{
    _l2.fill(_l2.blockAlign(addr));
}

std::vector<std::pair<Addr, Cycle>>
MemSystem::exportPending(const Cache *l1) const
{
    std::vector<std::pair<Addr, Cycle>> fills;
    if (const Fills *table = findFills(l1)) {
        table->forEach([&](Addr block, Cycle ready) {
            fills.emplace_back(block, ready);
        });
    }
    std::sort(fills.begin(), fills.end());
    return fills;
}

void
MemSystem::importPending(const Cache *l1,
                         const std::vector<std::pair<Addr, Cycle>> &fills)
{
    Fills &l1_pending = fillsOf(l1);
    l1_pending.clear();
    for (const auto &[block, ready] : fills)
        l1_pending.insert(block, ready);
}

} // namespace rmt
