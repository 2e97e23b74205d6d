/**
 * @file
 * Steady-state allocation gate: once a run is past its warm-up, the
 * core's tick performs no heap allocation.  Every per-cycle structure
 * (event calendar, queues, issue-queue select state, RMT tables, MSHR
 * fills) is sized at construction or grows by doubling to its peak
 * during warm-up.
 *
 * This binary replaces the global operator new with a per-thread
 * counter (the same idiom as perfbench/alloc_count.cc) and counts the
 * allocations made by SmtCpu::tick() inside the measured window of the
 * perfbench sim-sweep matrix: every mode on gcc, swim, fpppp and
 * gcc+swim, 2000 warm-up + 20000 measured instructions.  The gate is
 * host-independent: fewer than one allocation per thousand committed
 * instructions.  It is not labelled `sanitize`, because ASan and TSan
 * replace operator new themselves.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace
{

thread_local std::uint64_t t_allocs = 0;

void *
countedAlloc(std::size_t size)
{
    ++t_allocs;
    return std::malloc(size ? size : 1);
}

// Out of line, so the compiler does not pair an inlined free() with a
// new-expression and warn about a mismatched deallocation.
[[gnu::noinline]] void
countedFree(void *p) noexcept
{
    std::free(p);
}

} // namespace

void *
operator new(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void operator delete(void *p) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete(void *p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void *p, std::size_t) noexcept { countedFree(p); }

using namespace rmt;

namespace
{

constexpr std::uint64_t kWarmup = 2000;
constexpr std::uint64_t kMeasure = 20000;

struct Config
{
    SimMode mode;
    std::vector<std::string> mix;
};

std::vector<Config>
matrix()
{
    std::vector<Config> out;
    for (SimMode mode : {SimMode::Base, SimMode::Base2, SimMode::Srt,
                         SimMode::Lockstep, SimMode::Crt}) {
        for (const auto &mix : std::vector<std::vector<std::string>>{
                 {"gcc"}, {"swim"}, {"fpppp"}, {"gcc", "swim"}}) {
            out.push_back({mode, mix});
        }
    }
    return out;
}

std::uint64_t
logicalCommitted(Simulation &sim)
{
    std::uint64_t n = 0;
    for (unsigned i = 0; i < sim.numLogical(); ++i) {
        const auto &pl = sim.placement(i);
        n += sim.chip().cpu(pl.lead_core).committed(pl.lead_tid);
    }
    return n;
}

/** Every thread (both copies of a redundant pair) past the warm-up. */
bool
pastWarmup(Simulation &sim)
{
    for (unsigned i = 0; i < sim.numLogical(); ++i) {
        const auto &pl = sim.placement(i);
        if (sim.chip().cpu(pl.lead_core).committed(pl.lead_tid) < kWarmup)
            return false;
        if (pl.redundant &&
            sim.chip().cpu(pl.trail_core).committed(pl.trail_tid) < kWarmup)
            return false;
    }
    return true;
}

class SteadyStateAlloc : public ::testing::TestWithParam<Config>
{
};

TEST_P(SteadyStateAlloc, TickAllocatesNothingPastWarmup)
{
    const Config &c = GetParam();
    SimOptions o;
    o.mode = c.mode;
    o.warmup_insts = kWarmup;
    o.measure_insts = kMeasure;
    Simulation sim(c.mix, o);
    Chip &chip = sim.chip();

    // Drive the cores directly (Chip::run's loop for a fault-free run
    // with probes off) so only tick() runs inside the counted window.
    const Cycle cap = 100 * (kWarmup + kMeasure) * sim.numLogical() +
                      1'000'000;
    Cycle n = 0;
    while (n < cap && !chip.allDone() && !pastWarmup(sim)) {
        for (unsigned k = 0; k < chip.numCores(); ++k)
            chip.cpu(k).tick();
        ++n;
    }
    const std::uint64_t c0 = logicalCommitted(sim);
    std::uint64_t allocs = 0;
    while (n < cap && !chip.allDone()) {
        const std::uint64_t a0 = t_allocs;
        for (unsigned k = 0; k < chip.numCores(); ++k)
            chip.cpu(k).tick();
        allocs += t_allocs - a0;
        ++n;
    }
    ASSERT_TRUE(chip.allDone());
    const std::uint64_t kinst = (logicalCommitted(sim) - c0) / 1000;
    ASSERT_GT(kinst, 0u);
    EXPECT_LT(allocs, kinst) << allocs << " allocations over " << kinst
                             << " kinst";
}

std::string
configName(const ::testing::TestParamInfo<Config> &info)
{
    std::string name = modeName(info.param.mode);
    for (const std::string &w : info.param.mix)
        name += "_" + w;
    return name;
}

INSTANTIATE_TEST_SUITE_P(SimSweep, SteadyStateAlloc,
                         ::testing::ValuesIn(matrix()), configName);

} // namespace
